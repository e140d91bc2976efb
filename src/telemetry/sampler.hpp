#pragma once
/// \file sampler.hpp
/// \brief Live sampling plane: per-device power/clock/utilization windows,
/// per-step energy and time into quantile digests and the anomaly detector.
///
/// Sampling is driven by *simulated* time from the driver's RunHooks, not
/// by a wall-clock thread: every sample is a pure function of the run, so
/// enabling the plane perturbs nothing (serial/parallel bit-identity and
/// summary-byte-identity hold) and the sampler's entire state checkpoints
/// and resumes bit-identically.  The wall-clock side of the plane — the
/// SamplerThread publishing snapshots for /metrics and /summary.json —
/// lives in the exporter and holds no checkpointed state.
///
/// Per rank (= per device), at a configurable simulated period:
///   - power_w, clock_mhz and utilization (busy fraction of the sample
///     period), each kept as its newest SampleWindow: min/mean/max of the
///     latest samples, what /summary.json serves
/// Per step:
///   - step energy/time/EDP into the anomaly detector; degraded-rank and
///     verify-mismatch counters tracked as per-step deltas
/// Registry digests (created only when the plane is enabled, so default
/// runs keep the legacy --metrics-json document):
///   - kernel.duration_s, kernel.power_w, step.energy_j, step.time_s
///
/// The sampler keeps no history, only each series' newest window, so its
/// checkpoint section has the same size at every step.
///
/// Thread safety: hooks fire on the driving thread (the driver's contract);
/// the mutex only guards against the exporter's SamplerThread reading a
/// snapshot mid-update.

#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/json.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gsph::telemetry {

class Digest;

/// The newest window of one sampled series: the samples since the window
/// opened, and how many the series has seen.  Windows widen as the series
/// grows, as the entries of a 512-entry history that merged adjacent pairs
/// whenever it filled would: a window opens at 0-based sample index i when
/// i % width(i) == 0, where width(i) is the smallest power of two w with
/// 512 * w >= i + 1.
struct SampleWindow {
    double t_end = 0.0;      ///< simulated time of the window's last sample
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0; ///< samples in the window
    std::uint64_t total = 0; ///< samples in the series

    /// Add one sample at simulated time `t` (non-decreasing across calls).
    void append(double t, double value);
    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

    /// Keys `<prefix>total`, `t_end`, `min`, `max`, `sum` and `count`.
    /// restore() throws CheckpointError naming the key when the count is
    /// not the one the total implies.
    void save(checkpoint::StateWriter& writer, const std::string& prefix) const;
    void restore(const checkpoint::StateReader& reader, const std::string& prefix);
};

struct SamplerConfig {
    /// Simulated seconds between device samples.
    double period_s = 0.25;
    /// Detector thresholds (detector always runs with the sampler).
    AnomalyConfig anomaly;
};

class LiveSampler {
public:
    LiveSampler(int n_ranks, SamplerConfig config = {});
    ~LiveSampler();
    LiveSampler(const LiveSampler&) = delete;
    LiveSampler& operator=(const LiveSampler&) = delete;

    /// Append the sampling hooks and install the management-call latency
    /// observer.
    void attach(sim::RunHooks& hooks);

    int n_ranks() const { return n_ranks_; }
    const SamplerConfig& config() const { return config_; }

    AnomalyDetector& anomaly() { return anomaly_; }
    const AnomalyDetector& anomaly() const { return anomaly_; }

    int steps_completed() const { return steps_completed_; }

    /// Live snapshot of the run-summary structure (served as /summary.json).
    /// Thread-safe; callable while the run is in flight.
    Json live_summary_json() const;

    /// Checkpoint the full deterministic sampling state; a resumed run's
    /// windows and alerts are bit-identical to an uninterrupted one.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    struct RankState {
        const gpusim::GpuDevice* dev = nullptr; ///< seen via hooks; not owned
        bool primed = false;
        double baseline_energy_j = 0.0; ///< device energy at first sight
        double next_sample_t = 0.0;     ///< simulated time of the next sample
        double last_sample_t = 0.0;
        double busy_since_sample_s = 0.0;
        double last_applied_clock_mhz = -1.0;
        SampleWindow power;
        SampleWindow clock;
        SampleWindow utilization;
    };

    void on_before(int rank, gpusim::GpuDevice& dev);
    void on_after(int rank, gpusim::GpuDevice& dev, const gpusim::KernelResult& res);
    void on_step_end(int step);

    int n_ranks_;
    SamplerConfig config_;
    mutable std::mutex mutex_;
    std::vector<RankState> ranks_;
    AnomalyDetector anomaly_;
    int steps_completed_ = 0;
    double last_step_end_t_ = 0.0;
    double last_total_energy_j_ = 0.0;
    bool step_baseline_primed_ = false;
    double prev_verify_mismatches_ = 0.0;
    double prev_degraded_ranks_ = 0.0;
    bool observer_installed_ = false;
    // The registry digests the constructor creates; the registry never frees
    // an instrument, so the hooks skip the lookup by name.
    Digest* kernel_duration_digest_ = nullptr;
    Digest* kernel_power_digest_ = nullptr;
    Digest* step_energy_digest_ = nullptr;
    Digest* step_time_digest_ = nullptr;
};

} // namespace gsph::telemetry
