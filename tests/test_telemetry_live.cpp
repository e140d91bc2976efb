/// Live observability plane: AnomalyDetector unit contracts (per-kind
/// deterministic oracles, warmup, cooldown, checkpointing), SampleWindow
/// against the bounded history it replaced, and LiveSampler integration —
/// the plane must populate windows/digests from a real run, must not
/// perturb the run it watches, must checkpoint in a section whose size does
/// not grow with the step, and injected `stuck` / `slow` faults must
/// deterministically raise their documented alerts.

#include "core/frequency_table.hpp"
#include "core/policy.hpp"
#include "checkpoint/state.hpp"
#include "faults/fault_injector.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gsph::telemetry {
namespace {

/// The alerts of `kind` the detector kept: every test here fires fewer than
/// max_alerts (256), so that is every one it fired.
std::size_t alerts_of(const AnomalyDetector& det, AlertKind kind)
{
    return static_cast<std::size_t>(std::count_if(
        det.alerts().begin(), det.alerts().end(),
        [kind](const Alert& alert) { return alert.kind == kind; }));
}

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
    EXPECT_EQ(alerts_of(det, AlertKind::kPowerSpike), 0u);
    EXPECT_TRUE(det.alerts().empty());
}

TEST(AnomalyDetector, PowerSpikeFiresPastWarmup)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step <= 6; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    // A 10x power step against a settled 100 W baseline breaks it.
    det.observe_step(7, 1.0, 1000.0, false, 0);
    ASSERT_EQ(alerts_of(det, AlertKind::kPowerSpike), 1u);
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
    EXPECT_EQ(alerts_of(det, AlertKind::kPowerSpike), 1u);
    for (int i = 0; i < config.cooldown_steps + 1; ++i) {
        det.observe_step(step++, 1.0, 100.0, false, 0);
    }
    det.observe_step(step++, 1.0, 50000.0, false, 0); // cooled down: fires
    EXPECT_EQ(alerts_of(det, AlertKind::kPowerSpike), 2u);
}

TEST(AnomalyDetector, EdpRegressionRequiresRecentClockChange)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    for (int step = 0; step < 6; ++step) det.observe_step(step, 1.0, 100.0, false, 0);

    // Same mean power (no spike) but 100x the EDP, right after a clock
    // change: the regression alert, not the spike, must fire.
    det.observe_step(6, 10.0, 1000.0, true, 0);
    EXPECT_EQ(alerts_of(det, AlertKind::kPowerSpike), 0u);
    ASSERT_EQ(alerts_of(det, AlertKind::kEdpRegression), 1u);
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
    EXPECT_EQ(alerts_of(det, AlertKind::kEdpRegression), 0u);
}

TEST(AnomalyDetector, MismatchStormFiresImmediatelyAtThreshold)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    det.observe_step(0, 1.0, 100.0, false, 2); // below threshold
    EXPECT_EQ(alerts_of(det, AlertKind::kVerifyMismatchStorm), 0u);
    // Warmup does not shield the storm: mismatch counts are discrete
    // evidence, not a learned baseline.
    det.observe_step(1, 1.0, 100.0, false, 3);
    ASSERT_EQ(alerts_of(det, AlertKind::kVerifyMismatchStorm), 1u);
    EXPECT_DOUBLE_EQ(det.alerts().back().value, 3.0);
    EXPECT_EQ(MetricsRegistry::global().value("alerts.verify_mismatch_storm"), 1.0);
}

TEST(AnomalyDetector, StallObserverCrossesThresholdIntoNextStep)
{
    MetricsRegistry::global().reset();
    AnomalyDetector det;
    det.observe_call_latency(0.005); // below the 10 ms cutoff: ignored
    det.observe_step(0, 1.0, 100.0, false, 0);
    EXPECT_EQ(alerts_of(det, AlertKind::kMgmtCallStall), 0u);

    det.observe_call_latency(0.010); // at the cutoff (inclusive)
    det.observe_call_latency(0.500);
    det.observe_step(1, 1.0, 100.0, false, 0);
    ASSERT_EQ(alerts_of(det, AlertKind::kMgmtCallStall), 1u);
    EXPECT_DOUBLE_EQ(det.alerts().back().value, 2.0); // both stalled calls
    // Pending stalls drained: the next clean step stays quiet.
    for (int step = 2; step < 10; ++step) det.observe_step(step, 1.0, 100.0, false, 0);
    EXPECT_EQ(alerts_of(det, AlertKind::kMgmtCallStall), 1u);
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
    EXPECT_EQ(MetricsRegistry::global().value("alerts.power_spike"), 3.0);
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
    auto& reg = MetricsRegistry::global();
    EXPECT_GT(reg.value("kernel.duration_s"), 0.0);
    EXPECT_GT(reg.value("kernel.power_w"), 0.0);
    EXPECT_EQ(reg.value("step.energy_j"), static_cast<double>(result.n_steps));
    EXPECT_EQ(reg.value("step.time_s"), static_cast<double>(result.n_steps));
    EXPECT_GT(reg.digest("kernel.power_w").quantile(99.0), 0.0);
    // Step energies must sum to the run's GPU energy.  Step windows start at
    // the first hooked kernel, not the loop edge, so allow a small slice of
    // boundary idle energy either way.
    EXPECT_NEAR(reg.digest("step.energy_j").snapshot().sum(), result.gpu_energy_j,
                0.05 * result.gpu_energy_j);

    const Json summary = sampler.live_summary_json();
    EXPECT_EQ(summary.at("steps_completed").as_number(), result.n_steps);
    EXPECT_GT(summary.at("total_energy_j").as_number(), 0.0);
    ASSERT_EQ(summary.at("ranks").size(), 2u);
    for (const Json& rank : summary.at("ranks").items()) {
        EXPECT_TRUE(rank.at("primed").as_bool());
        ASSERT_TRUE(rank.at("power_w").is_object());
        ASSERT_TRUE(rank.at("clock_mhz").is_object());
        ASSERT_TRUE(rank.at("utilization").is_object());
        EXPECT_GT(rank.at("power_w").at("mean").as_number(), 0.0);
        EXPECT_GE(rank.at("utilization").at("min").as_number(), 0.0);
        EXPECT_LE(rank.at("utilization").at("max").as_number(), 1.0);
    }
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

/// A 40-step trace whose sampled series, at a 0.02 s period, reach about
/// 7,600 samples: windows of 16.
const sim::WorkloadTrace& long_trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 150e6;
        spec.n_steps = 40;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

TEST(LiveSampler, SectionSizeDoesNotGrowWithTheStep)
{
    MetricsRegistry::global().reset();
    SamplerConfig config;
    config.period_s = 0.02;
    LiveSampler sampler(4, config);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    std::vector<std::size_t> bytes;
    hooks.append({.after_step = [&](int step) {
        if (step != 2 && step != 39) return;
        checkpoint::StateWriter writer;
        sampler.save_state(writer);
        bytes.push_back(writer.str().size());
    }});
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    core::run_with_policy(sim::mini_hpc(), long_trace(), cfg(4), *policy, hooks);
    ASSERT_EQ(bytes.size(), 2u);
    // Only the decimal sample counts gain digits.
    EXPECT_LE(static_cast<double>(bytes[1]), 1.01 * static_cast<double>(bytes[0]))
        << bytes[0] << " B at step 2, " << bytes[1] << " B at step 39";
}

TEST(LiveSampler, RestoreRejectsAWindowCountThatDoesNotFitItsTotal)
{
    MetricsRegistry::global().reset();
    LiveSampler sampler(2);
    sim::RunHooks hooks;
    sampler.attach(hooks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    core::run_with_policy(sim::mini_hpc(), trace(), cfg(2), *policy, hooks);
    checkpoint::StateWriter saved;
    sampler.save_state(saved);

    const std::string key = "rank.1.clock.count=";
    std::string tampered = saved.str();
    const std::size_t at = tampered.find(key);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = tampered.find('\n', at);
    const std::uint64_t count =
        std::stoull(tampered.substr(at + key.size(), end - at - key.size()));
    tampered.replace(at + key.size(), end - at - key.size(), std::to_string(count + 1));

    LiveSampler restored(2);
    try {
        restored.restore_state(checkpoint::StateReader("sampler", tampered));
        FAIL() << "a window count that does not fit its total was restored";
    }
    catch (const checkpoint::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("rank.1.clock.count"), std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------- sample window ---

/// The bounded history SampleWindow replaced, whose newest entry is what
/// /summary.json served: 512 entries; when it is full, adjacent pairs merge
/// and each entry holds twice the samples.
struct ReferenceRing {
    std::vector<SampleWindow> entries; ///< `total` unused
    std::uint64_t width = 1;

    void append(double t, double value)
    {
        if (!entries.empty() && entries.back().count < width) {
            SampleWindow& e = entries.back();
            e.t_end = t;
            if (value < e.min) e.min = value;
            if (value > e.max) e.max = value;
            e.sum += value;
            ++e.count;
            return;
        }
        if (entries.size() == 512) {
            for (std::size_t i = 0; i < 256; ++i) {
                const SampleWindow& a = entries[2 * i];
                const SampleWindow& b = entries[2 * i + 1];
                entries[i] = {b.t_end, std::min(a.min, b.min), std::max(a.max, b.max),
                              a.sum + b.sum, a.count + b.count, 0};
            }
            entries.resize(256);
            width *= 2;
        }
        entries.push_back({t, value, value, value, 1, 0});
    }
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(SampleWindow, MatchesTheNewestEntryOfAReferenceRing)
{
    // 10,000 samples: the ring doubles its entries' width five times (to
    // 32 samples at 512 * 16 < 10,000).  Halfway, the window goes through
    // a checkpoint in the middle of a 16-sample window.
    util::Rng rng(20);
    ReferenceRing ring;
    SampleWindow window;
    for (int i = 0; i < 10000; ++i) {
        const double t = 0.02 * i;
        const double value = rng.uniform(-50.0, 400.0);
        ring.append(t, value);
        window.append(t, value);
        if (i == 5000) {
            checkpoint::StateWriter saved;
            window.save(saved, "w.");
            SampleWindow restored;
            restored.restore(checkpoint::StateReader("sampler", saved.str()), "w.");
            ASSERT_GT(restored.count, 1u);
            ASSERT_LT(restored.count, 16u);
            window = restored;
        }
        const SampleWindow& e = ring.entries.back();
        ASSERT_EQ(window.total, static_cast<std::uint64_t>(i + 1));
        ASSERT_EQ(bits(window.t_end), bits(e.t_end)) << "sample " << i;
        ASSERT_EQ(bits(window.min), bits(e.min)) << "sample " << i;
        ASSERT_EQ(bits(window.max), bits(e.max)) << "sample " << i;
        ASSERT_EQ(bits(window.sum), bits(e.sum)) << "sample " << i;
        ASSERT_EQ(window.count, e.count) << "sample " << i;
    }
    EXPECT_EQ(ring.width, 32u);
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
    ASSERT_GE(alerts_of(sampler.anomaly(), AlertKind::kVerifyMismatchStorm), 1u);
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

    ASSERT_GE(alerts_of(sampler.anomaly(), AlertKind::kMgmtCallStall), 1u);
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
    EXPECT_EQ(alerts_of(sampler.anomaly(), AlertKind::kVerifyMismatchStorm), 0u);
    EXPECT_EQ(alerts_of(sampler.anomaly(), AlertKind::kMgmtCallStall), 0u);
}

} // namespace
} // namespace gsph::telemetry
