#pragma once
/// \file run_tracer.hpp
/// \brief Wires a SpanTracer into the instrumented driver's RunHooks.
///
/// One process per rank (pid = rank), one GPU timeline per rank (tid 0).
/// Each time-step becomes a "step N" span; each SPH function call nests
/// inside it, exactly where the paper's §III-B probes sit.  After every
/// function the rank's counter tracks are sampled: the effective compute
/// clock (MHz), the *applied* application clock (MHz; diverges from the
/// effective clock when a device is stuck or throttled), the batch mean
/// power (W) and the device's cumulative energy (J) — the Fig. 9 clock
/// trace and the energy ramp as Perfetto tracks.

#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "telemetry/tracer.hpp"
#include "util/trace.hpp"

#include <string>
#include <vector>

namespace gsph::telemetry {

class RunTracer {
public:
    explicit RunTracer(int n_ranks);

    /// Append the tracing hooks (sim::RunHooks states the order).
    void attach(sim::RunHooks& hooks);

    SpanTracer& tracer() { return tracer_; }
    const SpanTracer& tracer() const { return tracer_; }

    /// Replay a recorded TimeSeries (e.g. the rank-0 governor clock trace)
    /// as a counter track of process `pid`.
    void add_counter_series(int pid, const std::string& name,
                            const util::TimeSeries& series);

    bool write_chrome_json(const std::string& path) const
    {
        return tracer_.write_file(path);
    }

    /// Checkpoint the step index plus the full tracer contents
    /// (SpanTracer::save_state: every recorded event, args included, and the
    /// open-span depths) so a resumed run's --trace-json covers the whole
    /// run, not just the steps after the resume point.  Every step span is
    /// closed at a step boundary, so the per-rank span bookkeeping is not
    /// saved.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    void on_before(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn);
    void on_after(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn,
                  const gpusim::KernelResult& res);
    void on_step_end(int step);

    int n_ranks_;
    SpanTracer tracer_;
    int current_step_ = 0;
    std::vector<bool> step_open_;    ///< per rank: "step N" span open
    std::vector<double> last_time_s_; ///< per rank: last seen device time
};

} // namespace gsph::telemetry
