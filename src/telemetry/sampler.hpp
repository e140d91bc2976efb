#pragma once
/// \file sampler.hpp
/// \brief Live sampling plane: per-device power/clock/utilization and
/// per-step energy into bounded ring-buffer series, quantile digests and
/// the anomaly detector.
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
///   - power_w, clock_mhz ring series (windowed min/mean/max downsampling)
///   - utilization ring series (busy fraction of the sample window)
/// Per step:
///   - step energy ring series; step energy/time/EDP into the anomaly
///     detector; degraded-rank and verify-mismatch counters tracked as
///     per-step deltas
/// Registry digests (created only when the plane is enabled, so default
/// runs keep the legacy --metrics-json document):
///   - kernel.duration_s, kernel.power_w, step.energy_j, step.time_s
///
/// Thread safety: hooks fire on the driving thread (the driver's contract);
/// the mutex only guards against the exporter's SamplerThread reading a
/// snapshot mid-update.

#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ring.hpp"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gsph::telemetry {

class Digest;

struct SamplerConfig {
    /// Simulated seconds between device samples.
    double period_s = 0.25;
    /// Ring capacity per series (entries; memory stays bounded forever).
    std::size_t ring_capacity = 512;
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

    // Ring access for tests and reports (driving thread or quiesced run).
    const RingSeries& power_ring(int rank) const;
    const RingSeries& clock_ring(int rank) const;
    const RingSeries& utilization_ring(int rank) const;
    const RingSeries& step_energy_ring() const { return step_energy_; }

    int steps_completed() const { return steps_completed_; }

    /// Live snapshot of the run-summary structure (served as /summary.json).
    /// Thread-safe; callable while the run is in flight.
    Json live_summary_json() const;

    /// Checkpoint the full deterministic sampling state; a resumed run's
    /// rings/digest feeds/alerts are bit-identical to an uninterrupted one.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    /// A ring's checkpoint text (save_state).  Entries before the last one
    /// change only when the ring compacts, which doubles its window width;
    /// so the text keeps every entry but the last until the width changes.
    struct RingText {
        std::uint64_t window_width = 0; ///< of the ring when the text was encoded
        checkpoint::EncodeCache t_start, t_end, min, max, sum, count;
    };
    struct RankState {
        const gpusim::GpuDevice* dev = nullptr; ///< seen via hooks; not owned
        bool primed = false;
        double baseline_energy_j = 0.0; ///< device energy at first sight
        double next_sample_t = 0.0;     ///< simulated time of the next sample
        double last_sample_t = 0.0;
        double busy_since_sample_s = 0.0;
        double last_applied_clock_mhz = -1.0;
        RingSeries power{512};
        RingSeries clock{512};
        RingSeries utilization{512};
        mutable RingText power_text, clock_text, utilization_text;
    };

    void on_before(int rank, gpusim::GpuDevice& dev);
    void on_after(int rank, gpusim::GpuDevice& dev, const gpusim::KernelResult& res);
    void on_step_end(int step);
    static void save_ring(checkpoint::StateWriter& writer, const std::string& prefix,
                          const RingSeries& ring, RingText& text);
    static void restore_ring(const checkpoint::StateReader& reader,
                             const std::string& prefix, RingSeries& ring, RingText& text);

    int n_ranks_;
    SamplerConfig config_;
    mutable std::mutex mutex_;
    std::vector<RankState> ranks_;
    RingSeries step_energy_;
    mutable RingText step_energy_text_;
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
