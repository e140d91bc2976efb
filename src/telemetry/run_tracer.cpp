#include "telemetry/run_tracer.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsph::telemetry {

namespace {

std::size_t checked_ranks(int n_ranks)
{
    if (n_ranks <= 0) throw std::invalid_argument("RunTracer: n_ranks <= 0");
    return static_cast<std::size_t>(n_ranks);
}

} // namespace

RunTracer::RunTracer(int n_ranks)
    : n_ranks_(n_ranks),
      step_open_(checked_ranks(n_ranks), false),
      last_time_s_(static_cast<std::size_t>(n_ranks), 0.0)
{
    for (int r = 0; r < n_ranks; ++r) {
        tracer_.set_process_name(r, "rank " + std::to_string(r));
        tracer_.set_thread_name(r, 0, "gpu timeline");
    }
}

void RunTracer::attach(sim::RunHooks& hooks)
{
    hooks.append({
        .before_function = [this](int rank, gpusim::GpuDevice& dev,
                                  sph::SphFunction fn) { on_before(rank, dev, fn); },
        .after_function = [this](int rank, gpusim::GpuDevice& dev, sph::SphFunction fn,
                                 const gpusim::KernelResult& res) {
            on_after(rank, dev, fn, res);
        },
        .after_step = [this](int step) { on_step_end(step); },
    });
}

void RunTracer::on_before(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn)
{
    const auto r = static_cast<std::size_t>(rank);
    const double now = dev.now();
    if (!step_open_[r]) {
        // The driver has no before_step hook with a timestamp; the first
        // function of a step opens the step span lazily at its own start.
        tracer_.begin(rank, 0, "step " + std::to_string(current_step_), now, "step");
        step_open_[r] = true;
    }
    tracer_.begin(rank, 0, sph::to_string(fn), now, "sph");
    last_time_s_[r] = now;
}

void RunTracer::on_after(int rank, gpusim::GpuDevice& dev, sph::SphFunction /*fn*/,
                         const gpusim::KernelResult& res)
{
    const auto r = static_cast<std::size_t>(rank);
    tracer_.end(rank, 0, res.end_s);
    tracer_.counter(rank, "clock_mhz", res.end_s, res.mean_clock_mhz);
    // The *applied* (requested) clock next to the effective one makes a
    // stuck or throttled device visible as two diverging tracks.
    tracer_.counter(rank, "applied_clock_mhz", res.end_s, dev.application_clock_mhz());
    tracer_.counter(rank, "power_w", res.end_s, res.mean_power_w);
    tracer_.counter(rank, "energy_j", res.end_s, dev.energy_j());
    last_time_s_[r] = res.end_s;
}

void RunTracer::on_step_end(int step)
{
    for (int rank = 0; rank < n_ranks_; ++rank) {
        const auto r = static_cast<std::size_t>(rank);
        if (!step_open_[r]) continue;
        tracer_.end(rank, 0, last_time_s_[r]);
        step_open_[r] = false;
    }
    current_step_ = step + 1;
}

void RunTracer::add_counter_series(int pid, const std::string& name,
                                   const util::TimeSeries& series)
{
    for (const util::Sample& s : series.samples()) {
        tracer_.counter(pid, name, s.time, s.value);
    }
}

void RunTracer::save_state(checkpoint::StateWriter& writer) const
{
    writer.put_i64("current_step", current_step_);
    tracer_.save_state(writer);
}

void RunTracer::restore_state(const checkpoint::StateReader& reader)
{
    current_step_ = static_cast<int>(reader.get_i64("current_step"));
    std::fill(step_open_.begin(), step_open_.end(), false);
    tracer_.restore_state(reader);
}

} // namespace gsph::telemetry
