/// Live observability plane: AnomalyDetector unit contracts (per-kind
/// deterministic oracles, warmup, cooldown, checkpointing) and LiveSampler
/// integration — the plane must populate rings/digests from a real run,
/// must not perturb the run it watches, and injected `stuck` / `slow`
/// faults must deterministically raise their documented alerts.

#include "core/frequency_table.hpp"
#include "core/policy.hpp"
#include "checkpoint/state.hpp"
#include "faults/fault_injector.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace gsph::telemetry {
namespace {

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 50e6;
        spec.n_steps = 6;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

sim::RunConfig cfg(int ranks, int threads = 1)
{
    sim::RunConfig c;
    c.n_ranks = ranks;
    c.n_threads = threads;
    c.setup_s = 2.0;
    return c;
}

// --------------------------------------------------------------- anomaly ---

TEST(AnomalyDetector, RejectsBadConfig)
{
    AnomalyConfig bad;
    bad.warmup_steps = 0;
    EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
    bad = AnomalyConfig{};
    bad.ewma_alpha = 0.0;
    EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
    bad.ewma_alpha = 1.5;
    EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
}

TEST(AnomalyDetector, WarmupAbsorbsSpikesSilently)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    // Wild excursions inside the warmup window seed the baseline but may
    // never alert — there is nothing trustworthy to compare against yet.
    det.observe_step(0, 1.0, 5000.0, false, 0);
    det.observe_step(1, 1.0, 50.0, false, 0);
    for (int step = 2; step <= 4; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    EXPECT_EQ(det.alert_count(AlertKind::kPowerSpike), 0u);
    EXPECT_TRUE(det.alerts().empty());
}

TEST(AnomalyDetector, PowerSpikeFiresPastWarmup)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step <= 6; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    // A 10x power step against a settled 100 W baseline breaks it.
    det.observe_step(7, 1.0, 1000.0, false, 0);
    ASSERT_EQ(det.alert_count(AlertKind::kPowerSpike), 1u);
    const Alert& alert = det.alerts().back();
    EXPECT_EQ(alert.kind, AlertKind::kPowerSpike);
    EXPECT_EQ(alert.step, 7);
    EXPECT_DOUBLE_EQ(alert.value, 1000.0);
    EXPECT_DOUBLE_EQ(alert.baseline, 100.0);
    EXPECT_GT(alert.threshold, alert.baseline);
    EXPECT_LT(alert.threshold, alert.value);
    EXPECT_FALSE(alert.message.empty());
    EXPECT_EQ(MetricsRegistry::global().value("alerts.power_spike"), 1.0);
}

TEST(AnomalyDetector, CooldownSuppressesRepeatFires)
{
    MetricsRegistry::global().reset();
    AnomalyConfig config;
    config.warmup_steps = 2;
    config.cooldown_steps = 3;
    AnomalyDetector det(config);
    int step = 0;
    for (; step < 4; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    det.observe_step(step++, 1.0, 1000.0, false, 0); // fires
    det.observe_step(step++, 1.0, 1200.0, false, 0); // in cooldown: silent
    EXPECT_EQ(det.alert_count(AlertKind::kPowerSpike), 1u);
    for (int i = 0; i < config.cooldown_steps + 1; ++i) {
        det.observe_step(step++, 1.0, 100.0, false, 0);
    }
    det.observe_step(step++, 1.0, 50000.0, false, 0); // cooled down: fires
    EXPECT_EQ(det.alert_count(AlertKind::kPowerSpike), 2u);
}

TEST(AnomalyDetector, EdpRegressionRequiresRecentClockChange)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step < 6; ++step) det.observe_step(step, 1.0, 100.0, false, 0);

    // Same mean power (no spike) but 100x the EDP, right after a clock
    // change: the regression alert, not the spike, must fire.
    det.observe_step(6, 10.0, 1000.0, true, 0);
    EXPECT_EQ(det.alert_count(AlertKind::kPowerSpike), 0u);
    ASSERT_EQ(det.alert_count(AlertKind::kEdpRegression), 1u);
    EXPECT_EQ(det.alerts().back().step, 6);
    EXPECT_NE(det.alerts().back().message.find("clock change"), std::string::npos);
    EXPECT_EQ(MetricsRegistry::global().value("alerts.edp_regression"), 1.0);
}

TEST(AnomalyDetector, EdpRegressionSilentOutsideWatchWindow)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step < 5; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    det.observe_step(5, 1.0, 100.0, true, 0); // clock change, normal step
    for (int step = 6; step < 9; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    // Step 9 is past the 3-step watch window: the same EDP excursion that
    // fired in the windowed test is attributed to the workload, not the
    // clock decision.
    det.observe_step(9, 10.0, 1000.0, false, 0);
    EXPECT_EQ(det.alert_count(AlertKind::kEdpRegression), 0u);
}

TEST(AnomalyDetector, MismatchStormFiresImmediatelyAtThreshold)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    det.observe_step(0, 1.0, 100.0, false, 2); // below threshold
    EXPECT_EQ(det.alert_count(AlertKind::kVerifyMismatchStorm), 0u);
    // Warmup does not shield the storm: mismatch counts are discrete
    // evidence, not a learned baseline.
    det.observe_step(1, 1.0, 100.0, false, 3);
    ASSERT_EQ(det.alert_count(AlertKind::kVerifyMismatchStorm), 1u);
    EXPECT_DOUBLE_EQ(det.alerts().back().value, 3.0);
    EXPECT_EQ(MetricsRegistry::global().value("alerts.verify_mismatch_storm"), 1.0);
}

TEST(AnomalyDetector, StallObserverCrossesThresholdIntoNextStep)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    det.observe_call_latency(0.005); // below the 10 ms cutoff: ignored
    det.observe_step(0, 1.0, 100.0, false, 0);
    EXPECT_EQ(det.alert_count(AlertKind::kMgmtCallStall), 0u);

    det.observe_call_latency(0.010); // at the cutoff (inclusive)
    det.observe_call_latency(0.500);
    det.observe_step(1, 1.0, 100.0, false, 0);
    ASSERT_EQ(det.alert_count(AlertKind::kMgmtCallStall), 1u);
    EXPECT_DOUBLE_EQ(det.alerts().back().value, 2.0); // both stalled calls
    // Pending stalls drained: the next clean step stays quiet.
    for (int step = 2; step < 10; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    EXPECT_EQ(det.alert_count(AlertKind::kMgmtCallStall), 1u);
}

TEST(AnomalyDetector, MaxAlertsBoundsRecordsButNotCounts)
{
    MetricsRegistry::global().reset();
    AnomalyConfig config;
    config.warmup_steps = 1;
    config.cooldown_steps = 0;
    config.max_alerts = 2;
    AnomalyDetector det(config);
    det.observe_step(0, 1.0, 100.0, false, 0);
    det.observe_step(1, 1.0, 100.0, false, 0);
    double energy = 1e4;
    for (int step = 2; step < 5; ++step) {
        det.observe_step(step, 1.0, energy, false, 0);
        energy *= 100.0; // outruns the EWMA so every step re-fires
    }
    EXPECT_EQ(det.alert_count(AlertKind::kPowerSpike), 3u);
    EXPECT_EQ(det.alerts().size(), 2u); // retained records stay bounded
    EXPECT_EQ(det.alerts_json().size(), 2u);
}

TEST(AnomalyDetector, SaveRestoreRoundTripsBitExactly)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step < 6; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    det.observe_call_latency(0.2);
    det.observe_step(6, 1.0, 900.0, false, 4); // spike + storm + stall

    checkpoint::StateWriter saved;
    det.save_state(saved);
    AnomalyDetector restored;
    restored.restore_state(checkpoint::StateReader("anomaly", saved.str()));

    // Serialized state is the bit-identity witness: doubles round-trip as
    // raw IEEE-754 patterns, so equal strings mean equal state.
    checkpoint::StateWriter again;
    restored.save_state(again);
    EXPECT_EQ(again.str(), saved.str());
    EXPECT_EQ(restored.alerts_json().dump(2), det.alerts_json().dump(2));

    // Divergence test: both detectors must keep evolving identically.
    for (int step = 7; step < 15; ++step) {
        det.observe_step(step, 1.0, 100.0 + step, step == 9, 0);
        restored.observe_step(step, 1.0, 100.0 + step, step == 9, 0);
    }
    checkpoint::StateWriter a, b;
    det.save_state(a);
    restored.save_state(b);
    EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------------- sampler ---

TEST(LiveSampler, RejectsBadConfig)
{
    EXPECT_THROW(LiveSampler(0), std::invalid_argument);
    SamplerConfig config;
    config.period_s = 0.0;
    EXPECT_THROW(LiveSampler(1, config), std::invalid_argument);
}

TEST(LiveSampler, PopulatesRingsDigestsAndSummaryFromARun)
{
    MetricsRegistry::global().reset();
    LiveSampler sampler(2);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    const auto result =
        core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);

    EXPECT_EQ(sampler.steps_completed(), result.n_steps);
    EXPECT_EQ(sampler.step_energy_ring().total_appended(),
              static_cast<std::uint64_t>(result.n_steps));
    for (int rank = 0; rank < 2; ++rank) {
        EXPECT_FALSE(sampler.power_ring(rank).empty()) << "rank " << rank;
        EXPECT_FALSE(sampler.clock_ring(rank).empty()) << "rank " << rank;
        EXPECT_FALSE(sampler.utilization_ring(rank).empty()) << "rank " << rank;
        for (const RingEntry& e : sampler.utilization_ring(rank).entries()) {
            EXPECT_GE(e.min, 0.0);
            EXPECT_LE(e.max, 1.0 + 1e-12);
        }
        EXPECT_GT(sampler.power_ring(rank).back().mean(), 0.0);
    }
    // Step energies in the ring must sum to the run's GPU energy.
    double ring_energy = 0.0;
    for (const RingEntry& e : sampler.step_energy_ring().entries()) {
        ring_energy += e.sum;
    }
    // Step windows start at the first hooked kernel, not the loop edge, so
    // allow a small slice of boundary idle energy either way.
    EXPECT_NEAR(ring_energy, result.gpu_energy_j, 0.05 * result.gpu_energy_j);

    auto& reg = MetricsRegistry::global();
    EXPECT_GT(reg.value("kernel.duration_s"), 0.0);
    EXPECT_GT(reg.value("kernel.power_w"), 0.0);
    EXPECT_EQ(reg.value("step.energy_j"), static_cast<double>(result.n_steps));
    EXPECT_EQ(reg.value("step.time_s"), static_cast<double>(result.n_steps));
    EXPECT_GT(reg.digest("kernel.power_w").quantile(99.0), 0.0);

    const Json summary = sampler.live_summary_json();
    EXPECT_EQ(summary.at("steps_completed").as_number(), result.n_steps);
    EXPECT_GT(summary.at("total_energy_j").as_number(), 0.0);
    ASSERT_EQ(summary.at("ranks").size(), 2u);
    EXPECT_TRUE(summary.at("ranks").items()[0].at("primed").as_bool());
    EXPECT_TRUE(summary.at("ranks").items()[0].at("power_w").is_object());
    EXPECT_TRUE(summary.at("alerts").is_array());
    EXPECT_GT(summary.at("baselines").at("power_w").as_number(), 0.0);
}

TEST(LiveSampler, AttachingThePlaneDoesNotPerturbTheRun)
{
    // The acceptance property behind "provably non-perturbing": with the
    // sampler attached the RunResult is bit-identical, serial and parallel.
    auto table = core::reference_a100_turbulence_table();
    for (int threads : {1, 4}) {
        auto bare_policy = core::make_mandyn_policy(table);
        const auto bare = core::run_with_policy(sim::mini_hpc(), trace(),
                                                cfg(2, threads), *bare_policy);

        MetricsRegistry::global().reset();
        LiveSampler sampler(2);
        sim::RunHooks hooks;
        sampler.attach(hooks);
        auto watched_policy = core::make_mandyn_policy(table);
        const auto watched = core::run_with_policy(
            sim::mini_hpc(), trace(), cfg(2, threads), *watched_policy, hooks);

        EXPECT_EQ(watched.gpu_energy_j, bare.gpu_energy_j) << threads << " threads";
        EXPECT_EQ(watched.node_energy_j, bare.node_energy_j) << threads << " threads";
        EXPECT_EQ(watched.makespan_s(), bare.makespan_s()) << threads << " threads";
        EXPECT_EQ(watched.edp(), bare.edp()) << threads << " threads";
        ASSERT_EQ(watched.step_start_times.size(), bare.step_start_times.size());
        for (std::size_t i = 0; i < bare.step_start_times.size(); ++i) {
            EXPECT_EQ(watched.step_start_times[i], bare.step_start_times[i]);
        }
    }
}

TEST(LiveSampler, SaveRestoreRoundTripsBitExactly)
{
    MetricsRegistry::global().reset();
    LiveSampler sampler(2);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);

    checkpoint::StateWriter saved;
    sampler.save_state(saved);
    LiveSampler restored(2);
    restored.restore_state(checkpoint::StateReader("sampler", saved.str()));
    checkpoint::StateWriter again;
    restored.save_state(again);
    EXPECT_EQ(again.str(), saved.str());
    EXPECT_EQ(restored.steps_completed(), sampler.steps_completed());

    LiveSampler wrong_shape(3);
    EXPECT_THROW(
        wrong_shape.restore_state(checkpoint::StateReader("sampler", saved.str())),
        checkpoint::CheckpointError);
}

/// Small rings that compact every few steps.
SamplerConfig small_rings()
{
    SamplerConfig config;
    config.period_s = 0.02;
    config.ring_capacity = 16;
    return config;
}

/// A ManDyn run whose sampler, with small rings, saves at the end of the
/// listed steps.  Returns each save and the power ring's window width at
/// that save, by step.
std::map<int, std::pair<std::string, std::uint64_t>> sampler_saves(const std::set<int>& at_steps)
{
    MetricsRegistry::global().reset();
    LiveSampler sampler(2, small_rings());
    sim::RunHooks hooks;
    sampler.attach(hooks);
    std::map<int, std::pair<std::string, std::uint64_t>> saves;
    hooks.append({.after_step = [&](int step) {
        if (at_steps.count(step) == 0) return;
        checkpoint::StateWriter writer;
        sampler.save_state(writer);
        saves[step] = {writer.take(), sampler.power_ring(0).window_width()};
    }});
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);
    return saves;
}

TEST(LiveSampler, SavesAcrossRingCompactionsMatchAFreshSave)
{
    // A save at every step keeps each ring's settled entries encoded; each
    // must equal the one save of a sampler that never saved before.
    const std::set<int> steps = {0, 1, 2, 3, 4, 5};
    const auto saves = sampler_saves(steps);
    ASSERT_EQ(saves.size(), steps.size());
    int compactions = 0;
    int appends_only = 0;
    for (const int step : steps) {
        const auto fresh = sampler_saves({step});
        ASSERT_EQ(fresh.size(), 1u);
        EXPECT_EQ(saves.at(step).first, fresh.at(step).first) << "step " << step;
        if (step > 0) {
            const bool compacted = saves.at(step).second != saves.at(step - 1).second;
            (compacted ? compactions : appends_only) += 1;
        }
    }
    // Both cases ran between two saves: rings that compacted, and rings that
    // only grew.
    EXPECT_GT(compactions, 0);
    EXPECT_GT(appends_only, 0);

    // A restore drops the text earlier saves kept: same bytes again.
    LiveSampler restored(2, small_rings());
    for (const int step : {5, 3}) {
        restored.restore_state(checkpoint::StateReader("sampler", saves.at(step).first));
        checkpoint::StateWriter again;
        restored.save_state(again);
        EXPECT_EQ(again.str(), saves.at(step).first) << "step " << step;
    }
}

// --------------------------------------------------- fault alert oracles ---

TEST(LiveSamplerFaults, StuckClocksRaiseVerifyMismatchStorm)
{
    // `stuck` fault oracle: every clock write reports success but never
    // lands, so the resilient backend's read-back verification piles up
    // clock.verify_mismatches every step — the sampler's per-step delta
    // must cross the storm threshold and alert.
    MetricsRegistry::global().reset();
    faults::ScopedFaultInjection guard(
        faults::FaultSpec::parse("stuck:at=0,count=1000000"), 17);
    LiveSampler sampler(2);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    const auto result =
        core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);
    EXPECT_GT(result.gpu_energy_j, 0.0); // the run itself must survive

    EXPECT_GT(MetricsRegistry::global().value("clock.verify_mismatches"), 0.0);
    ASSERT_GE(sampler.anomaly().alert_count(AlertKind::kVerifyMismatchStorm), 1u);
    EXPECT_GE(MetricsRegistry::global().value("alerts.verify_mismatch_storm"), 1.0);
    bool found = false;
    for (const Alert& alert : sampler.anomaly().alerts()) {
        if (alert.kind != AlertKind::kVerifyMismatchStorm) continue;
        found = true;
        EXPECT_GE(alert.value, 3.0); // at least the storm threshold
    }
    EXPECT_TRUE(found);
}

TEST(LiveSamplerFaults, SlowManagementCallsRaiseStallAlert)
{
    // `slow` fault oracle: every clock write stalls 15 ms of real wall
    // clock, well past the 10 ms threshold, so the latency observer the
    // sampler installs must count the crossings and alert on the first
    // step.  Deterministic because the injected stall exceeds the cutoff
    // by construction.
    MetricsRegistry::global().reset();
    faults::ScopedFaultInjection guard(faults::FaultSpec::parse("slow:p=1,ms=15"), 17);
    LiveSampler sampler(1);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    const auto result =
        core::run_with_policy(sim::mini_hpc(), trace(), cfg(1), *policy, hooks);
    EXPECT_GT(result.gpu_energy_j, 0.0);

    ASSERT_GE(sampler.anomaly().alert_count(AlertKind::kMgmtCallStall), 1u);
    EXPECT_GE(MetricsRegistry::global().value("alerts.mgmt_call_stall"), 1.0);
    const Json alerts = sampler.anomaly().alerts_json();
    bool found = false;
    for (const Json& alert : alerts.items()) {
        if (alert.at("kind").as_string() == "mgmt_call_stall") found = true;
    }
    EXPECT_TRUE(found);
}

TEST(LiveSamplerFaults, CleanRunRaisesNoFaultAlerts)
{
    // Control for the two oracles above: the same run without injection
    // must keep both fault-signature alert kinds silent.
    MetricsRegistry::global().reset();
    LiveSampler sampler(2);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);
    EXPECT_EQ(sampler.anomaly().alert_count(AlertKind::kVerifyMismatchStorm), 0u);
    EXPECT_EQ(sampler.anomaly().alert_count(AlertKind::kMgmtCallStall), 0u);
}

} // namespace
} // namespace gsph::telemetry
