#pragma once
/// \file anomaly.hpp
/// \brief Online anomaly detection over per-step energy/time/EDP signals.
///
/// The paper's frequency decisions can go wrong at runtime in ways a
/// post-run report only shows after the energy is spent: a clock change
/// that regresses EDP, a power spike from a mis-set clock, a management
/// library whose writes silently stop landing (verify-mismatch storms), or
/// calls that stall the host.  The AnomalyDetector maintains EWMA + MAD
/// (EWMA of absolute deviation) rolling baselines per signal and emits a
/// structured Alert — counter increment, WARN log line, and an entry in the
/// run summary's provenance `alerts` array — when a step breaks its
/// baseline.
///
/// Alert kinds and their deterministic oracles (test contract):
///   - kPowerSpike          step mean power above baseline + k * MAD
///   - kEdpRegression       step EDP above baseline + k * MAD within a
///                          watch window after an applied-clock change
///   - kVerifyMismatchStorm >= threshold clock.verify_mismatches in one
///                          step (the `stuck` fault's signature)
///   - kMgmtCallStall       >= 1 management call stalled past an absolute
///                          wall-clock threshold during the step (the
///                          `slow` fault's signature)
///
/// Determinism: every checkpointed field derives from simulated quantities
/// or *threshold crossings*.  Wall-clock latencies themselves are never
/// stored — only the count of calls that crossed the absolute stall
/// threshold, which is reproducible for a fixed fault (spec, seed) because
/// injected stalls exceed the threshold by construction and un-faulted
/// calls sit orders of magnitude below it.

#include "checkpoint/state.hpp"
#include "telemetry/json.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gsph::telemetry {

enum class AlertKind {
    kPowerSpike,
    kEdpRegression,
    kVerifyMismatchStorm,
    kMgmtCallStall,
    /// Fired by telemetry::SloTracker (slo.hpp), not by AnomalyDetector:
    /// an endpoint is consuming its error budget faster than the burn-rate
    /// objective allows.  Shares the Alert record / counter / WARN-log
    /// pipeline so SLO breaches surface exactly like anomaly alerts.
    kSloBurnRate,
};

const char* to_string(AlertKind kind);

struct Alert {
    AlertKind kind = AlertKind::kPowerSpike;
    int step = 0;         ///< simulated step that fired the alert
    double value = 0.0;   ///< offending observation (sim-derived)
    double baseline = 0.0; ///< rolling baseline at firing time
    double threshold = 0.0; ///< value the observation had to exceed
    std::string message;  ///< human-readable one-liner (also logged)

    Json to_json() const;
};

struct AnomalyConfig {
    /// Steps used to seed baselines before any alert can fire.
    int warmup_steps = 5;
    /// EWMA smoothing factor for mean and absolute-deviation baselines.
    double ewma_alpha = 0.2;
    /// Deviation floor so constant signals don't alert on float noise.
    double relative_mad_floor = 1e-3;
    double power_spike_k = 6.0;     ///< MADs above baseline
    double edp_regression_k = 6.0;  ///< MADs above baseline
    int edp_watch_steps = 3;        ///< post-clock-change watch window
    long long mismatch_storm_threshold = 3; ///< per-step verify mismatches
    double stall_threshold_s = 0.010;       ///< absolute mgmt-call stall cutoff
    int cooldown_steps = 5;   ///< per-kind quiet period after an alert
    std::size_t max_alerts = 256; ///< bound on retained alert records
};

class AnomalyDetector {
public:
    explicit AnomalyDetector(AnomalyConfig config = {});

    /// Feed one completed step.  `clock_changed` marks an applied-clock
    /// change observed this step; `verify_mismatch_delta` is the step's
    /// increment of clock.verify_mismatches.  Fires alerts synchronously.
    void observe_step(int step, double step_time_s, double step_energy_j,
                      bool clock_changed, long long verify_mismatch_delta);

    /// Wall-clock latency of one management call (from the live observer
    /// hook; may be called from any thread).  Only the threshold crossing
    /// is retained.
    void observe_call_latency(double seconds);

    const std::vector<Alert>& alerts() const { return alerts_; }
    std::size_t alert_count(AlertKind kind) const;
    int steps_observed() const { return steps_observed_; }
    const AnomalyConfig& config() const { return config_; }

    /// Rolling baselines (tests / live summary).
    double power_baseline_w() const { return power_.mean; }
    double edp_baseline() const { return edp_.mean; }

    Json alerts_json() const; ///< array of Alert::to_json()

    /// Checkpoint every deterministic field (baselines, cooldowns, alert
    /// records, counts); restore(save) then further observe_step calls is
    /// bit-identical to never having stopped.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    struct Baseline {
        bool primed = false;
        double mean = 0.0;
        double abs_dev = 0.0; ///< EWMA of |x - mean| (MAD proxy)

        void update(double x, double alpha);
    };

    /// Deviation scale with the relative floor applied.
    double mad(const Baseline& b) const;
    bool in_cooldown(AlertKind kind, int step) const;
    void fire(AlertKind kind, int step, double value, double baseline,
              double threshold, const std::string& message);

    AnomalyConfig config_;
    Baseline power_;
    Baseline edp_;
    int steps_observed_ = 0;
    int last_clock_change_step_ = -1;
    /// Per-AlertKind cooldown/totals.  Sized for the full enum so
    /// alert_count(kSloBurnRate) is safe, but the detector itself only
    /// fires (and checkpoints) its own four kinds.
    int last_fired_step_[5] = {-1, -1, -1, -1, -1};
    std::uint64_t fired_[5] = {0, 0, 0, 0, 0};
    std::atomic<std::uint64_t> pending_stalls_{0}; ///< calls past threshold
    std::vector<Alert> alerts_;
};

} // namespace gsph::telemetry
