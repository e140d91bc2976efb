#include "telemetry/sampler.hpp"

#include "telemetry/live.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace gsph::telemetry {

namespace {

/// Samples per window at 0-based sample index `i`: the smallest power of
/// two w with 512 * w >= i + 1.
std::uint64_t window_width(std::uint64_t i)
{
    return std::bit_ceil((i + 512) / 512);
}

} // namespace

void SampleWindow::append(double t, double value)
{
    const std::uint64_t i = total++;
    t_end = t;
    if (i % window_width(i) == 0) {
        min = max = sum = value;
        count = 1;
        return;
    }
    if (value < min) min = value;
    if (value > max) max = value;
    sum += value;
    ++count;
}

void SampleWindow::save(checkpoint::StateWriter& writer, const std::string& prefix) const
{
    writer.put_u64(prefix + "total", total);
    writer.put_f64(prefix + "t_end", t_end);
    writer.put_f64(prefix + "min", min);
    writer.put_f64(prefix + "max", max);
    writer.put_f64(prefix + "sum", sum);
    writer.put_u64(prefix + "count", count);
}

void SampleWindow::restore(const checkpoint::StateReader& reader, const std::string& prefix)
{
    total = reader.get_u64(prefix + "total");
    t_end = reader.get_f64(prefix + "t_end");
    min = reader.get_f64(prefix + "min");
    max = reader.get_f64(prefix + "max");
    sum = reader.get_f64(prefix + "sum");
    count = reader.get_u64(prefix + "count");
    const std::uint64_t expected = total == 0 ? 0 : (total - 1) % window_width(total - 1) + 1;
    if (count != expected) {
        throw checkpoint::CheckpointError(
            "sampler window '" + prefix + "count': " + std::to_string(count) +
            " samples, but a series of " + std::to_string(total) +
            " samples ends in a window of " + std::to_string(expected));
    }
}

LiveSampler::LiveSampler(int n_ranks, SamplerConfig config)
    : n_ranks_(n_ranks), config_(config), anomaly_(config.anomaly)
{
    if (n_ranks_ < 1) throw std::invalid_argument("LiveSampler: n_ranks < 1");
    if (!(config_.period_s > 0.0)) {
        throw std::invalid_argument("LiveSampler: period_s must be positive");
    }
    ranks_.resize(static_cast<std::size_t>(n_ranks_));
    // Pre-register the digests so /metrics exposes them from the first
    // scrape (empty until the first observation).
    MetricsRegistry& reg = MetricsRegistry::global();
    kernel_duration_digest_ = &reg.digest("kernel.duration_s");
    kernel_power_digest_ = &reg.digest("kernel.power_w");
    step_energy_digest_ = &reg.digest("step.energy_j");
    step_time_digest_ = &reg.digest("step.time_s");
}

LiveSampler::~LiveSampler()
{
    if (observer_installed_) set_call_latency_observer({});
}

void LiveSampler::attach(sim::RunHooks& hooks)
{
    hooks.append({
        .before_function = [this](int rank, gpusim::GpuDevice& dev,
                                  sph::SphFunction) { on_before(rank, dev); },
        .after_function = [this](int rank, gpusim::GpuDevice& dev, sph::SphFunction,
                                 const gpusim::KernelResult& res) {
            on_after(rank, dev, res);
        },
        .after_step = [this](int step) { on_step_end(step); },
    });
    set_call_latency_observer(
        [this](const char*, double seconds) { anomaly_.observe_call_latency(seconds); });
    observer_installed_ = true;
}

void LiveSampler::on_before(int rank, gpusim::GpuDevice& dev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RankState& rs = ranks_.at(static_cast<std::size_t>(rank));
    rs.dev = &dev; // refresh every call: resume restores state, not pointers
    if (!rs.primed) {
        rs.primed = true;
        rs.baseline_energy_j = dev.energy_j();
        rs.last_sample_t = dev.now();
        rs.next_sample_t = dev.now() + config_.period_s;
        rs.last_applied_clock_mhz = dev.application_clock_mhz();
    }
    if (!step_baseline_primed_) {
        step_baseline_primed_ = true;
        last_step_end_t_ = dev.now();
        last_total_energy_j_ = 0.0;
    }
}

void LiveSampler::on_after(int rank, gpusim::GpuDevice& dev,
                           const gpusim::KernelResult& res)
{
    const double duration_s = res.end_s - res.start_s;
    kernel_duration_digest_->observe(duration_s);
    kernel_power_digest_->observe(res.mean_power_w);

    std::lock_guard<std::mutex> lock(mutex_);
    RankState& rs = ranks_.at(static_cast<std::size_t>(rank));
    rs.dev = &dev;
    rs.busy_since_sample_s += duration_s;
    // Emit one windowed sample per crossed period boundary.  Values are the
    // batch means of the kernel that crossed the boundary — a deterministic
    // function of the run, unlike a wall-clock poller.
    const double now = dev.now();
    while (now >= rs.next_sample_t) {
        const double window = rs.next_sample_t - rs.last_sample_t;
        const double busy = std::min(rs.busy_since_sample_s, window);
        rs.power.append(rs.next_sample_t, res.mean_power_w);
        rs.clock.append(rs.next_sample_t, res.mean_clock_mhz);
        rs.utilization.append(rs.next_sample_t, window > 0.0 ? busy / window : 0.0);
        rs.busy_since_sample_s -= busy;
        rs.last_sample_t = rs.next_sample_t;
        rs.next_sample_t += config_.period_s;
    }
}

void LiveSampler::on_step_end(int step)
{
    MetricsRegistry& reg = MetricsRegistry::global();

    std::lock_guard<std::mutex> lock(mutex_);
    double total_energy_j = 0.0;
    double t_end = 0.0;
    bool clock_changed = false;
    for (RankState& rs : ranks_) {
        if (!rs.primed || rs.dev == nullptr) return; // no work seen yet
        total_energy_j += rs.dev->energy_j() - rs.baseline_energy_j;
        t_end = std::max(t_end, rs.dev->now());
        const double applied = rs.dev->application_clock_mhz();
        if (applied != rs.last_applied_clock_mhz) {
            clock_changed = true;
            rs.last_applied_clock_mhz = applied;
        }
    }
    const double step_energy_j = total_energy_j - last_total_energy_j_;
    const double step_time_s = t_end - last_step_end_t_;
    last_total_energy_j_ = total_energy_j;
    last_step_end_t_ = t_end;

    step_energy_digest_->observe(step_energy_j);
    step_time_digest_->observe(step_time_s);

    const double mismatches = reg.value("clock.verify_mismatches");
    const long long mismatch_delta =
        static_cast<long long>(mismatches - prev_verify_mismatches_);
    prev_verify_mismatches_ = mismatches;
    prev_degraded_ranks_ = reg.value("clock.degraded_ranks");

    anomaly_.observe_step(step, step_time_s, step_energy_j, clock_changed,
                          mismatch_delta);
    steps_completed_ = step + 1;
}

Json LiveSampler::live_summary_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json j = Json::object();
    j["steps_completed"] = steps_completed_;
    j["sim_time_s"] = last_step_end_t_;
    j["total_energy_j"] = last_total_energy_j_;
    j["degraded_ranks"] = prev_degraded_ranks_;

    Json ranks = Json::array();
    for (const RankState& rs : ranks_) {
        Json r = Json::object();
        r["primed"] = rs.primed;
        const auto last = [](const SampleWindow& w) -> Json {
            if (w.total == 0) return Json{};
            Json v = Json::object();
            v["t"] = w.t_end;
            v["min"] = w.min;
            v["mean"] = w.mean();
            v["max"] = w.max;
            return v;
        };
        r["power_w"] = last(rs.power);
        r["clock_mhz"] = last(rs.clock);
        r["utilization"] = last(rs.utilization);
        ranks.push_back(std::move(r));
    }
    j["ranks"] = std::move(ranks);

    Json baselines = Json::object();
    baselines["power_w"] = anomaly_.power_baseline_w();
    baselines["edp"] = anomaly_.edp_baseline();
    j["baselines"] = std::move(baselines);
    j["alerts"] = anomaly_.alerts_json();
    return j;
}

void LiveSampler::save_state(checkpoint::StateWriter& writer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    writer.put_i64("n_ranks", n_ranks_);
    writer.put_i64("steps_completed", steps_completed_);
    writer.put_f64("last_step_end_t", last_step_end_t_);
    writer.put_f64("last_total_energy_j", last_total_energy_j_);
    writer.put_bool("step_baseline_primed", step_baseline_primed_);
    writer.put_f64("prev_verify_mismatches", prev_verify_mismatches_);
    writer.put_f64("prev_degraded_ranks", prev_degraded_ranks_);
    for (int r = 0; r < n_ranks_; ++r) {
        const RankState& rs = ranks_[static_cast<std::size_t>(r)];
        const std::string prefix = "rank." + std::to_string(r) + ".";
        writer.put_bool(prefix + "primed", rs.primed);
        writer.put_f64(prefix + "baseline_energy_j", rs.baseline_energy_j);
        writer.put_f64(prefix + "next_sample_t", rs.next_sample_t);
        writer.put_f64(prefix + "last_sample_t", rs.last_sample_t);
        writer.put_f64(prefix + "busy_since_sample_s", rs.busy_since_sample_s);
        writer.put_f64(prefix + "last_applied_clock_mhz", rs.last_applied_clock_mhz);
        rs.power.save(writer, prefix + "power.");
        rs.clock.save(writer, prefix + "clock.");
        rs.utilization.save(writer, prefix + "utilization.");
    }
}

void LiveSampler::restore_state(const checkpoint::StateReader& reader)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t n = reader.get_i64("n_ranks");
    if (n != n_ranks_) {
        throw checkpoint::CheckpointError(
            "sampler: checkpoint has " + std::to_string(n) + " ranks, run has " +
            std::to_string(n_ranks_));
    }
    steps_completed_ = static_cast<int>(reader.get_i64("steps_completed"));
    last_step_end_t_ = reader.get_f64("last_step_end_t");
    last_total_energy_j_ = reader.get_f64("last_total_energy_j");
    step_baseline_primed_ = reader.get_bool("step_baseline_primed");
    prev_verify_mismatches_ = reader.get_f64("prev_verify_mismatches");
    prev_degraded_ranks_ = reader.get_f64("prev_degraded_ranks");
    for (int r = 0; r < n_ranks_; ++r) {
        RankState& rs = ranks_[static_cast<std::size_t>(r)];
        const std::string prefix = "rank." + std::to_string(r) + ".";
        rs.primed = reader.get_bool(prefix + "primed");
        rs.baseline_energy_j = reader.get_f64(prefix + "baseline_energy_j");
        rs.next_sample_t = reader.get_f64(prefix + "next_sample_t");
        rs.last_sample_t = reader.get_f64(prefix + "last_sample_t");
        rs.busy_since_sample_s = reader.get_f64(prefix + "busy_since_sample_s");
        rs.last_applied_clock_mhz = reader.get_f64(prefix + "last_applied_clock_mhz");
        rs.power.restore(reader, prefix + "power.");
        rs.clock.restore(reader, prefix + "clock.");
        rs.utilization.restore(reader, prefix + "utilization.");
        rs.dev = nullptr; // re-bound by the first before_function hook
    }
}

} // namespace gsph::telemetry
