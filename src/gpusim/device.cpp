#include "gpusim/device.hpp"

#include "telemetry/metrics.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace gsph::gpusim {

namespace {

/// Effective compute-clock transitions across every device: under ManDyn
/// these are the per-function application-clock moves, under native DVFS
/// the governor's tick-by-tick changes.  Cached reference — the global
/// registry keeps instruments alive forever (reset only zeroes them).
telemetry::Counter& transitions_counter()
{
    static telemetry::Counter& c =
        telemetry::MetricsRegistry::global().counter("governor.transitions");
    return c;
}

telemetry::Counter& kernel_batches_counter()
{
    static telemetry::Counter& c =
        telemetry::MetricsRegistry::global().counter("gpusim.kernel_batches");
    return c;
}

GpuDeviceSpec validated(GpuDeviceSpec spec)
{
    spec.validate();
    return spec;
}

/// Grid index that the calling thread's previous capped search returned
/// (-1 before its first), where the next search starts.  Consecutive
/// searches on a thread price the same SPH function on the next GPU or rank,
/// so they mostly return the same index.  It is a hint, not state: every
/// start point yields the same answer (see throttle_for_power).
thread_local int last_capped_index = -1;

} // namespace

// PowerModel and DvfsGovernor keep a pointer to the member spec_, which is
// validated before the governor quantizes its first clock on it.
GpuDevice::GpuDevice(GpuDeviceSpec spec, int index)
    : spec_(validated(std::move(spec))),
      index_(index),
      power_model_(spec_),
      governor_(spec_),
      app_clock_mhz_(spec_.default_app_clock_mhz),
      mem_clock_mhz_(spec_.memory_clock_mhz),
      current_clock_mhz_(spec_.min_compute_mhz)
{
}

GpuDevice::~GpuDevice()
{
    publish_counters();
}

void GpuDevice::publish_counters()
{
    // Skipping zero counts keeps a device that did no work off the registry.
    if (unpublished_batches_ > 0) {
        kernel_batches_counter().inc(static_cast<double>(unpublished_batches_));
        unpublished_batches_ = 0;
    }
    if (unpublished_transitions_ > 0) {
        transitions_counter().inc(static_cast<double>(unpublished_transitions_));
        unpublished_transitions_ = 0;
    }
}

void GpuDevice::set_clock_policy(ClockPolicy policy)
{
    policy_ = policy;
    if (policy_ == ClockPolicy::kNativeDvfs) {
        governor_.set_cap_mhz(spec_.max_compute_mhz);
        current_clock_mhz_ = governor_.current_mhz();
    }
    else {
        current_clock_mhz_ = spec_.min_compute_mhz; // parked until next kernel
    }
}

void GpuDevice::set_application_clocks(double mem_mhz, double compute_mhz)
{
    if (!(compute_mhz > 0.0)) {
        throw std::invalid_argument("set_application_clocks: non-positive or NaN clock");
    }
    app_clock_mhz_ = spec_.quantize_clock(compute_mhz);
    mem_clock_mhz_ = mem_mhz > 0.0 ? mem_mhz : spec_.memory_clock_mhz;
    governor_.set_cap_mhz(app_clock_mhz_);
    if (policy_ == ClockPolicy::kLockedAppClock) {
        // The locked clock takes effect at the next kernel.
    }
}

void GpuDevice::set_power_limit_w(double watts)
{
    power_limit_w_ = watts;
}

double GpuDevice::default_power_limit_w() const
{
    return spec_.idle_w + spec_.sm_dynamic_w + spec_.issue_w + spec_.mem_dynamic_w;
}

// Inline, so that an uncapped kernel pays only the first test.
inline double GpuDevice::throttle_for_power(const KernelWork& work, double requested_mhz,
                                            bool governor_managed) const
{
    if (power_limit_w_ <= 0.0) return requested_mhz;
    const double mem_scale = mem_clock_mhz_ / spec_.memory_clock_mhz;
    const auto fits = [&](int k) {
        const double f = spec_.clock_at(k);
        const KernelTiming t = price_kernel(spec_, work, f, mem_scale);
        return power_model_.busy_power(t, f, governor_managed).total_w <= power_limit_w_;
    };
    // The answer is the highest grid index up to the requested clock's,
    // `top`, whose busy power fits, or the minimum clock if none does.
    // Bisection keeps `lo` fitting (or the minimum clock, never probed) and
    // `hi` not fitting (or one past `top`).  A start point below `top`
    // narrows that bracket with two probes, itself and the index above it,
    // and is the answer when the first fits and the second does not.
    const int top = spec_.clock_index(requested_mhz);
    int& start = last_capped_index;
    int lo = 0;
    int hi = top + 1;
    if (0 <= start && start < top) {
        if (!fits(start)) {
            hi = start;
        }
        else if (fits(start + 1)) {
            lo = start + 1;
        }
        else {
            lo = start;
            hi = start + 1;
        }
    }
    else if (top == 0 || fits(top)) {
        lo = top;
    }
    else {
        hi = top;
    }
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (fits(mid)) {
            lo = mid;
        }
        else {
            hi = mid;
        }
    }
    start = lo;
    return spec_.clock_at(lo);
}

void GpuDevice::reset_application_clocks()
{
    app_clock_mhz_ = spec_.default_app_clock_mhz;
    mem_clock_mhz_ = spec_.memory_clock_mhz;
    governor_.set_cap_mhz(spec_.max_compute_mhz);
}

void GpuDevice::record(double time, double clock_mhz)
{
    if (tracing_) clock_trace_.append(time, clock_mhz);
}

void GpuDevice::account(double dt, double power_w)
{
    energy_.add(power_w * dt);
    last_power_w_ = power_w;
}

void GpuDevice::transition_to(double mhz)
{
    if (mhz == current_clock_mhz_) return;
    current_clock_mhz_ = mhz;
    ++unpublished_transitions_;
}

void GpuDevice::clear_traces()
{
    clock_trace_.clear();
    clock_text_ = {};
}

KernelResult GpuDevice::execute(const KernelWork& work)
{
    ++unpublished_batches_;
    return policy_ == ClockPolicy::kLockedAppClock ? execute_locked(work)
                                                   : execute_governed(work);
}

KernelResult GpuDevice::execute_locked(const KernelWork& work)
{
    const double f = throttle_for_power(work, app_clock_mhz_, false);
    const double mem_scale = mem_clock_mhz_ / spec_.memory_clock_mhz;
    const KernelTiming t = price_kernel(spec_, work, f, mem_scale);

    KernelResult r;
    r.timing = t;
    r.start_s = now_s_;
    r.mean_clock_mhz = f;

    transition_to(f);
    record(now_s_, f);

    const PowerBreakdown busy = power_model_.busy_power(t, f, /*governor_managed=*/false);
    const PowerBreakdown gap = power_model_.idle_power(f, /*governor_managed=*/false);

    // Busy portion at busy power; launch-overhead gaps at near-idle power.
    account(t.busy_s, busy.total_w);
    account(t.overhead_s, gap.total_w);
    const double duration = t.total_s;
    now_s_ += duration;
    r.end_s = now_s_;
    r.energy_j = busy.total_w * t.busy_s + gap.total_w * t.overhead_s;
    r.mean_power_w = duration > 0.0 ? r.energy_j / duration : 0.0;
    record(now_s_, f);
    return r;
}

KernelResult GpuDevice::execute_governed(const KernelWork& work)
{
    const double mem_scale = mem_clock_mhz_ / spec_.memory_clock_mhz;

    KernelResult r;
    r.start_s = now_s_;

    governor_.on_kernel_launch();
    const long transitions_before = governor_.transition_count();

    double progress = 0.0;           // fraction of the batch completed
    double clock_time_integral = 0.0; // for the time-weighted mean clock
    double energy = 0.0;
    KernelTiming rep{}; // representative timing (priced at current clock)

    // Launch re-boosts: batches with many launches keep re-triggering the
    // launch boost roughly uniformly through the batch duration.
    const double launches = static_cast<double>(std::max<std::int64_t>(work.launches, 1));

    // The work, power limit and memory clock are fixed for the batch, so a
    // tick's clock, timing and power depend only on the governor's clock,
    // which takes few values: the last two are priced once each.
    struct Priced {
        double requested_mhz = std::numeric_limits<double>::quiet_NaN();
        double f = 0.0;
        KernelTiming t;
        double p = 0.0; ///< busy and launch-gap power blended over the tick
    };
    std::array<Priced, 2> memo;
    std::size_t newest = 0;
    const auto priced = [&](double requested_mhz) -> const Priced& {
        if (memo[newest].requested_mhz == requested_mhz) return memo[newest];
        newest ^= 1;
        Priced& e = memo[newest];
        if (e.requested_mhz == requested_mhz) return e;
        e.requested_mhz = requested_mhz;
        e.f = throttle_for_power(work, requested_mhz, true);
        e.t = price_kernel(spec_, work, e.f, mem_scale);
        const PowerBreakdown busy =
            power_model_.busy_power(e.t, e.f, /*governor_managed=*/true);
        const PowerBreakdown gap = power_model_.idle_power(e.f, /*governor_managed=*/true);
        const double busy_frac = e.t.total_s > 0.0 ? e.t.busy_s / e.t.total_s : 1.0;
        e.p = busy.total_w * busy_frac + gap.total_w * (1.0 - busy_frac);
        return e;
    };

    int guard_iterations = 0;
    while (progress < 1.0 && ++guard_iterations < 2'000'000) {
        const Priced& tick = priced(governor_.current_mhz());
        const double f = tick.f;
        const KernelTiming& t = tick.t;
        rep = t;
        if (t.total_s <= 0.0) break;

        const double remaining_s = (1.0 - progress) * t.total_s;
        const double dt = std::min(spec_.governor.tick_s, remaining_s);
        progress += dt / t.total_s;

        const double p = tick.p;
        account(dt, p);
        energy += p * dt;
        clock_time_integral += f * dt;
        record(now_s_, f);
        now_s_ += dt;

        governor_.step(dt, /*running=*/true, t.utilization);
        if (launches > 1.0 && dt >= spec_.governor.tick_s * 0.5) {
            governor_.on_kernel_launch(); // next launches in the batch re-boost
        }
        transition_to(governor_.current_mhz());
    }

    const long transitions = governor_.transition_count() - transitions_before;
    const double transition_j = static_cast<double>(transitions) * spec_.transition_energy_j;
    energy += transition_j;
    energy_.add(transition_j);

    r.end_s = now_s_;
    r.energy_j = energy;
    const double duration = r.end_s - r.start_s;
    r.mean_clock_mhz = duration > 0.0 ? clock_time_integral / duration
                                      : governor_.current_mhz();
    r.mean_power_w = duration > 0.0 ? energy / duration : 0.0;
    r.timing = rep;
    r.timing.total_s = duration;
    record(now_s_, current_clock_mhz_);
    return r;
}

void GpuDevice::idle(double seconds)
{
    if (seconds <= 0.0) return;
    if (policy_ == ClockPolicy::kLockedAppClock) {
        transition_to(spec_.min_compute_mhz); // park
        const PowerBreakdown p = power_model_.idle_power(current_clock_mhz_, false);
        record(now_s_, current_clock_mhz_);
        account(seconds, p.total_w);
        now_s_ += seconds;
        record(now_s_, current_clock_mhz_);
        return;
    }
    // Governor mode: clock decays in ticks toward the idle target.  Idle
    // power is priced once per clock the decay passes through.
    double priced_mhz = std::numeric_limits<double>::quiet_NaN();
    double idle_w = 0.0;
    double remaining = seconds;
    while (remaining > 0.0) {
        const double dt = std::min(spec_.governor.tick_s, remaining);
        const double f = governor_.current_mhz();
        if (f != priced_mhz) {
            priced_mhz = f;
            idle_w = power_model_.idle_power(f, true).total_w;
        }
        account(dt, idle_w);
        record(now_s_, f);
        now_s_ += dt;
        remaining -= dt;
        governor_.step(dt, /*running=*/false, 0.0);
        transition_to(governor_.current_mhz());
    }
    record(now_s_, current_clock_mhz_);
}

void GpuDevice::save_series(checkpoint::StateWriter& writer, const std::string& key,
                            const util::TimeSeries& series, SeriesText& text)
{
    for (std::size_t i = text.times.size(); i < series.size(); ++i) {
        text.times.push_f64(series[i].time);
        text.values.push_f64(series[i].value);
    }
    writer.put_vec(key + ".t", text.times);
    writer.put_vec(key + ".v", text.values);
}

namespace {

void restore_series(const checkpoint::StateReader& reader, const std::string& key,
                    util::TimeSeries& series)
{
    const std::vector<double> times = reader.get_f64_vec(key + ".t");
    const std::vector<double> values = reader.get_f64_vec(key + ".v");
    if (times.size() != values.size()) {
        throw checkpoint::CheckpointError("gpu trace '" + key +
                                          "': time/value length mismatch");
    }
    series.clear();
    for (std::size_t i = 0; i < times.size(); ++i) {
        series.append(times[i], values[i]);
    }
}

} // namespace

void GpuDevice::save_state(checkpoint::StateWriter& writer) const
{
    writer.put_bool("native_dvfs", policy_ == ClockPolicy::kNativeDvfs);
    writer.put_f64("app_clock_mhz", app_clock_mhz_);
    writer.put_f64("mem_clock_mhz", mem_clock_mhz_);
    writer.put_f64("current_clock_mhz", current_clock_mhz_);
    writer.put_f64("power_limit_w", power_limit_w_);
    writer.put_f64("now_s", now_s_);
    writer.put_f64("energy_j", energy_.value());
    writer.put_f64("energy_c", energy_.compensation());
    writer.put_f64("last_power_w", last_power_w_);
    writer.put_f64("governor.cap_mhz", governor_.cap_mhz());
    writer.put_f64("governor.current_mhz", governor_.current_mhz());
    writer.put_i64("governor.transitions", governor_.transition_count());
    save_series(writer, "clock_trace", clock_trace_, clock_text_);
}

void GpuDevice::restore_state(const checkpoint::StateReader& reader)
{
    policy_ = reader.get_bool("native_dvfs") ? ClockPolicy::kNativeDvfs
                                             : ClockPolicy::kLockedAppClock;
    app_clock_mhz_ = reader.get_f64("app_clock_mhz");
    mem_clock_mhz_ = reader.get_f64("mem_clock_mhz");
    current_clock_mhz_ = reader.get_f64("current_clock_mhz");
    power_limit_w_ = reader.get_f64("power_limit_w");
    now_s_ = reader.get_f64("now_s");
    energy_.restore(reader.get_f64("energy_j"), reader.get_f64("energy_c"));
    last_power_w_ = reader.get_f64("last_power_w");
    unpublished_batches_ = 0;
    unpublished_transitions_ = 0;
    governor_.restore(reader.get_f64("governor.cap_mhz"),
                      reader.get_f64("governor.current_mhz"),
                      reader.get_i64("governor.transitions"));
    clock_text_ = {};
    restore_series(reader, "clock_trace", clock_trace_);
}

} // namespace gsph::gpusim
