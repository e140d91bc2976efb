#include "telemetry/anomaly.hpp"

#include "telemetry/metrics.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsph::telemetry {

const char* to_string(AlertKind kind)
{
    switch (kind) {
    case AlertKind::kPowerSpike: return "power_spike";
    case AlertKind::kEdpRegression: return "edp_regression";
    case AlertKind::kVerifyMismatchStorm: return "verify_mismatch_storm";
    case AlertKind::kMgmtCallStall: return "mgmt_call_stall";
    case AlertKind::kSloBurnRate: return "slo_burn_rate";
    }
    return "unknown";
}

Json Alert::to_json() const
{
    Json j = Json::object();
    j["kind"] = to_string(kind);
    j["step"] = step;
    j["value"] = value;
    j["baseline"] = baseline;
    j["threshold"] = threshold;
    j["message"] = message;
    return j;
}

AnomalyDetector::AnomalyDetector(AnomalyConfig config) : config_(config)
{
    if (config_.warmup_steps < 1) {
        throw std::invalid_argument("AnomalyDetector: warmup_steps < 1");
    }
    if (!(config_.ewma_alpha > 0.0) || !(config_.ewma_alpha <= 1.0)) {
        throw std::invalid_argument("AnomalyDetector: ewma_alpha outside (0, 1]");
    }
}

void AnomalyDetector::Baseline::update(double x, double alpha)
{
    if (!primed) {
        primed = true;
        mean = x;
        abs_dev = 0.0;
        return;
    }
    abs_dev = (1.0 - alpha) * abs_dev + alpha * std::fabs(x - mean);
    mean = (1.0 - alpha) * mean + alpha * x;
}

double AnomalyDetector::mad(const Baseline& b) const
{
    return std::max(b.abs_dev, config_.relative_mad_floor * std::fabs(b.mean));
}

bool AnomalyDetector::in_cooldown(AlertKind kind, int step) const
{
    const int last = last_fired_step_[static_cast<int>(kind)];
    return last >= 0 && step - last <= config_.cooldown_steps;
}

void AnomalyDetector::fire(AlertKind kind, int step, double value, double baseline,
                           double threshold, const std::string& message)
{
    last_fired_step_[static_cast<int>(kind)] = step;
    MetricsRegistry::global()
        .counter(std::string("alerts.") + to_string(kind))
        .inc();
    GSPH_LOG_WARN("anomaly", "step " << step << ": " << message);
    if (alerts_.size() < config_.max_alerts) {
        alerts_.push_back({kind, step, value, baseline, threshold, message});
    }
}

void AnomalyDetector::observe_step(int step, double step_time_s, double step_energy_j,
                                   bool clock_changed, long long verify_mismatch_delta)
{
    if (clock_changed) last_clock_change_step_ = step;

    const double power_w = step_time_s > 0.0 ? step_energy_j / step_time_s : 0.0;
    const double edp = step_energy_j * step_time_s;
    const bool warmed = steps_observed_ >= config_.warmup_steps;

    if (warmed && !in_cooldown(AlertKind::kPowerSpike, step)) {
        const double threshold = power_.mean + config_.power_spike_k * mad(power_);
        if (power_w > threshold) {
            fire(AlertKind::kPowerSpike, step, power_w, power_.mean, threshold,
                 "step mean power " + util::format_fixed(power_w, 1) +
                     " W above baseline " + util::format_fixed(power_.mean, 1) +
                     " W (threshold " + util::format_fixed(threshold, 1) + " W)");
        }
    }
    const bool watching_edp =
        last_clock_change_step_ >= 0 &&
        step - last_clock_change_step_ <= config_.edp_watch_steps;
    if (warmed && watching_edp && !in_cooldown(AlertKind::kEdpRegression, step)) {
        const double threshold = edp_.mean + config_.edp_regression_k * mad(edp_);
        if (edp > threshold) {
            fire(AlertKind::kEdpRegression, step, edp, edp_.mean, threshold,
                 "step EDP " + util::format_fixed(edp, 3) +
                     " Js regressed after clock change at step " +
                     std::to_string(last_clock_change_step_) + " (baseline " +
                     util::format_fixed(edp_.mean, 3) + " Js)");
        }
    }
    if (verify_mismatch_delta >= config_.mismatch_storm_threshold &&
        !in_cooldown(AlertKind::kVerifyMismatchStorm, step)) {
        fire(AlertKind::kVerifyMismatchStorm, step,
             static_cast<double>(verify_mismatch_delta), 0.0,
             static_cast<double>(config_.mismatch_storm_threshold),
             std::to_string(verify_mismatch_delta) +
                 " clock verify mismatches in one step: clock writes are not "
                 "landing (stuck clocks?)");
    }
    const std::uint64_t stalls = pending_stalls_.exchange(0, std::memory_order_acq_rel);
    if (stalls > 0 && !in_cooldown(AlertKind::kMgmtCallStall, step)) {
        fire(AlertKind::kMgmtCallStall, step, static_cast<double>(stalls), 0.0,
             config_.stall_threshold_s,
             std::to_string(stalls) + " management call(s) stalled past " +
                 util::format_fixed(config_.stall_threshold_s * 1e3, 1) + " ms");
    }

    // Baselines learn after detection so the spike itself is not absorbed
    // before it is judged.
    power_.update(power_w, config_.ewma_alpha);
    edp_.update(edp, config_.ewma_alpha);
    ++steps_observed_;
}

void AnomalyDetector::observe_call_latency(double seconds)
{
    if (seconds >= config_.stall_threshold_s) {
        pending_stalls_.fetch_add(1, std::memory_order_acq_rel);
    }
}

Json AnomalyDetector::alerts_json() const
{
    Json arr = Json::array();
    for (const Alert& alert : alerts_) arr.push_back(alert.to_json());
    return arr;
}

void AnomalyDetector::save_state(checkpoint::StateWriter& writer) const
{
    writer.put_bool("power.primed", power_.primed);
    writer.put_f64("power.mean", power_.mean);
    writer.put_f64("power.abs_dev", power_.abs_dev);
    writer.put_bool("edp.primed", edp_.primed);
    writer.put_f64("edp.mean", edp_.mean);
    writer.put_f64("edp.abs_dev", edp_.abs_dev);
    writer.put_i64("steps_observed", steps_observed_);
    writer.put_i64("last_clock_change_step", last_clock_change_step_);
    for (int k = 0; k < 4; ++k) {
        writer.put_i64("kind." + std::to_string(k) + ".last_fired_step",
                       last_fired_step_[k]);
    }
    writer.put_u64("alerts", alerts_.size());
    for (std::size_t i = 0; i < alerts_.size(); ++i) {
        const Alert& a = alerts_[i];
        const std::string prefix = "alert." + std::to_string(i) + ".";
        writer.put_i64(prefix + "kind", static_cast<int>(a.kind));
        writer.put_i64(prefix + "step", a.step);
        writer.put_f64(prefix + "value", a.value);
        writer.put_f64(prefix + "baseline", a.baseline);
        writer.put_f64(prefix + "threshold", a.threshold);
        writer.put_str(prefix + "message", a.message);
    }
}

void AnomalyDetector::restore_state(const checkpoint::StateReader& reader)
{
    power_.primed = reader.get_bool("power.primed");
    power_.mean = reader.get_f64("power.mean");
    power_.abs_dev = reader.get_f64("power.abs_dev");
    edp_.primed = reader.get_bool("edp.primed");
    edp_.mean = reader.get_f64("edp.mean");
    edp_.abs_dev = reader.get_f64("edp.abs_dev");
    steps_observed_ = static_cast<int>(reader.get_i64("steps_observed"));
    last_clock_change_step_ =
        static_cast<int>(reader.get_i64("last_clock_change_step"));
    for (int k = 0; k < 4; ++k) {
        last_fired_step_[k] = static_cast<int>(
            reader.get_i64("kind." + std::to_string(k) + ".last_fired_step"));
    }
    alerts_.clear();
    const std::uint64_t n = reader.get_u64("alerts");
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string prefix = "alert." + std::to_string(i) + ".";
        Alert a;
        const std::int64_t kind = reader.get_i64(prefix + "kind");
        if (kind < 0 || kind > 3) {
            throw checkpoint::CheckpointError("anomaly: bad alert kind " +
                                              std::to_string(kind));
        }
        a.kind = static_cast<AlertKind>(kind);
        a.step = static_cast<int>(reader.get_i64(prefix + "step"));
        a.value = reader.get_f64(prefix + "value");
        a.baseline = reader.get_f64(prefix + "baseline");
        a.threshold = reader.get_f64(prefix + "threshold");
        a.message = reader.get_str(prefix + "message");
        alerts_.push_back(std::move(a));
    }
    pending_stalls_.store(0, std::memory_order_release);
}

} // namespace gsph::telemetry
