#include "core/online_tuner.hpp"

#include "checkpoint/state.hpp"
#include "core/policy.hpp"
#include "faults/fault_injector.hpp"
#include "gpusim/device.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "tuning/kernel_tuner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gsph::core {
namespace {

const sim::WorkloadTrace& turb450()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 91.125e6;
        spec.n_steps = 5; // cycled by the driver for longer runs
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return t;
}

OnlineTunerConfig config_with_band()
{
    OnlineTunerConfig cfg;
    cfg.candidate_clocks = {1005.0, 1110.0, 1215.0, 1320.0, 1410.0};
    cfg.samples_per_clock = 2;
    cfg.warmup_calls = 1;
    return cfg;
}

sim::RunConfig run_config(int steps)
{
    sim::RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.setup_s = 5.0;
    cfg.n_steps = steps;
    cfg.rank_jitter = 0.0;
    return cfg;
}

TEST(OnlineTuner, RejectsBadConfig)
{
    OnlineTunerConfig cfg;
    EXPECT_THROW(OnlineManDynPolicy{cfg}, std::invalid_argument); // no clocks
    cfg.candidate_clocks = {1005.0};
    cfg.samples_per_clock = 0;
    EXPECT_THROW(OnlineManDynPolicy{cfg}, std::invalid_argument);
}

TEST(OnlineTuner, LearnerBookkeeping)
{
    FunctionLearner learner;
    learner.clocks = {1005.0, 1410.0};
    learner.energy_j = {0.0, 0.0};
    learner.time_s = {0.0, 0.0};
    learner.samples = {0, 0};
    EXPECT_FALSE(learner.exploration_done(1));
    EXPECT_EQ(learner.next_candidate(1), 0);

    learner.samples[0] = 1;
    learner.energy_j[0] = 10.0;
    learner.time_s[0] = 1.0; // EDP 10
    EXPECT_EQ(learner.next_candidate(1), 1);

    learner.samples[1] = 1;
    learner.energy_j[1] = 12.0;
    learner.time_s[1] = 0.9; // EDP 10.8
    EXPECT_TRUE(learner.exploration_done(1));
    EXPECT_DOUBLE_EQ(learner.best_edp_clock(), 1005.0);
}

TEST(OnlineTuner, ConvergesDuringRun)
{
    auto policy = make_online_mandyn_policy(config_with_band());
    // 5 candidates x 2 samples + 1 warmup = 11 calls per function; run 15
    // steps (one call per step per function).
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(15), *policy);
    EXPECT_TRUE(policy->all_converged());
    const auto& me = policy->learner(sph::SphFunction::kMomentumEnergy);
    EXPECT_TRUE(me.converged);
    EXPECT_GT(me.chosen_mhz, 0.0);
}

TEST(OnlineTuner, LearnedTableMatchesOfflineSweepShape)
{
    auto policy = make_online_mandyn_policy(config_with_band());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(15), *policy);
    const auto table = policy->learned_table(1410.0);

    // Same qualitative shape the offline KernelTuner finds (Fig. 2):
    // compute-bound kernels choose higher clocks than memory-bound ones.
    EXPECT_GT(table.get(sph::SphFunction::kMomentumEnergy),
              table.get(sph::SphFunction::kXMass));
    EXPECT_DOUBLE_EQ(table.get(sph::SphFunction::kXMass), 1005.0);
    EXPECT_GE(table.get(sph::SphFunction::kMomentumEnergy), 1215.0);
}

TEST(OnlineTuner, BeatsBaselineAfterConvergence)
{
    // Long run: exploration overhead amortizes and the learned clocks
    // save energy, like offline ManDyn.
    auto baseline = make_baseline_policy();
    const auto rb = core::run_with_policy(sim::mini_hpc(), turb450(), run_config(40),
                                          *baseline);
    auto online = make_online_mandyn_policy(config_with_band());
    const auto ro =
        core::run_with_policy(sim::mini_hpc(), turb450(), run_config(40), *online);

    EXPECT_LT(ro.gpu_energy_j, rb.gpu_energy_j * 0.97);
    EXPECT_LT(ro.makespan_s(), rb.makespan_s() * 1.08);
    EXPECT_LT(ro.gpu_edp(), rb.gpu_edp());
}

TEST(OnlineTuner, UnconvergedTableUsesDefault)
{
    auto policy = make_online_mandyn_policy(config_with_band());
    // 3 steps: not enough samples to converge anything.
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(3), *policy);
    EXPECT_FALSE(policy->all_converged());
    const auto table = policy->learned_table(1410.0);
    EXPECT_DOUBLE_EQ(table.get(sph::SphFunction::kMomentumEnergy), 1410.0);
}

OnlineTunerConfig model_config()
{
    OnlineTunerConfig cfg = config_with_band();
    cfg.strategy = TuneStrategy::kModel;
    return cfg;
}

// ---- follower-rank warmup (regression) ------------------------------------

TEST(OnlineTuner, FollowerRanksWarmupAtTopClock)
{
    // Regression: followers used to fall back to the *lowest* candidate
    // while rank 0 warmed up at the top clock, throttling every
    // non-measurement rank for the warmup window.
    auto policy = make_online_mandyn_policy(config_with_band());
    sim::RunConfig cfg;
    cfg.n_ranks = 2;
    cfg.setup_s = 5.0;
    cfg.n_steps = 1; // warmup_calls = 1: the whole step is warmup
    cfg.rank_jitter = 0.0;
    std::vector<double> rank1_mhz;
    sim::RunHooks hooks;
    // The policy prepends its hooks, so this observer sees the clock applied
    // for the call.
    hooks.before_function = [&](int rank, gpusim::GpuDevice& dev, sph::SphFunction) {
        if (rank == 1) rank1_mhz.push_back(dev.application_clock_mhz());
    };
    core::run_with_policy(sim::mini_hpc(), turb450(), cfg, *policy, hooks);
    ASSERT_FALSE(rank1_mhz.empty());
    for (const double mhz : rank1_mhz) EXPECT_DOUBLE_EQ(mhz, 1410.0);
}

// ---- model strategy -------------------------------------------------------

TEST(OnlineTuner, ModelStrategyConverges)
{
    auto policy = make_online_mandyn_policy(model_config());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(25), *policy);
    EXPECT_TRUE(policy->all_converged());
    const auto table = policy->learned_table(1410.0);
    // Same qualitative shape as the exhaustive sweep: memory-bound kernels
    // land low, compute-bound kernels land high.
    EXPECT_GT(table.get(sph::SphFunction::kMomentumEnergy),
              table.get(sph::SphFunction::kXMass));
}

TEST(OnlineTuner, ModelUsesFewerSamplesAtSmallRegret)
{
    auto& reg = telemetry::MetricsRegistry::global();

    reg.reset();
    auto exhaustive = make_online_mandyn_policy(config_with_band());
    const auto r_ex = core::run_with_policy(sim::mini_hpc(), turb450(),
                                            run_config(40), *exhaustive);
    const double samples_ex = reg.value("tuner.online.samples");
    ASSERT_TRUE(exhaustive->all_converged());

    reg.reset();
    auto model = make_online_mandyn_policy(model_config());
    const auto r_model =
        core::run_with_policy(sim::mini_hpc(), turb450(), run_config(40), *model);
    const double samples_model = reg.value("tuner.online.samples");
    ASSERT_TRUE(model->all_converged());

    // The acceptance bar: half the samples, within 2% EDP of exhaustive.
    EXPECT_GT(samples_ex, 0.0);
    EXPECT_LE(samples_model, 0.5 * samples_ex);
    EXPECT_LE(r_model.gpu_edp(), r_ex.gpu_edp() * 1.02);
}

TEST(OnlineTuner, ModelSeedsFromNeighbors)
{
    auto& reg = telemetry::MetricsRegistry::global();
    reg.reset();
    auto policy = make_online_mandyn_policy(model_config());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(25), *policy);
    // At least one function matched an earlier function's compute intensity
    // and skipped two of its three probes.
    EXPECT_GT(reg.value("tuner.online.model_seeded"), 0.0);
}

TEST(OnlineTuner, TransientFaultDuringProbeDiscardsSample)
{
    auto& reg = telemetry::MetricsRegistry::global();
    reg.reset();
    faults::ScopedFaultInjection guard(
        faults::FaultSpec::parse("transient-set:p=0.3"), 11);
    auto policy = make_online_mandyn_policy(model_config());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(40), *policy);
    // Failed clock sets during probe/confirm discard the sample...
    EXPECT_GT(reg.value("tuner.online.samples_discarded"), 0.0);
    // ...and never corrupt the fit: converged choices are genuine
    // candidates and predictions stay in range.
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto& l = policy->learner(static_cast<sph::SphFunction>(f));
        if (l.converged) {
            bool member = false;
            for (const double c : l.clocks) member = member || c == l.chosen_mhz;
            EXPECT_TRUE(member) << "fn " << f;
        }
        if (l.fit.valid) {
            ASSERT_GE(l.predicted_idx, 0) << "fn " << f;
            ASSERT_LT(static_cast<std::size_t>(l.predicted_idx), l.clocks.size())
                << "fn " << f;
            EXPECT_GT(l.predicted_edp, 0.0) << "fn " << f;
        }
    }
}

// ---- thread-count bit-identity --------------------------------------------

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b)
{
    EXPECT_EQ(a.gpu_energy_j, b.gpu_energy_j);
    EXPECT_EQ(a.node_energy_j, b.node_energy_j);
    EXPECT_EQ(a.loop_start_s, b.loop_start_s);
    EXPECT_EQ(a.loop_end_s, b.loop_end_s);
    EXPECT_EQ(a.total_wall_s, b.total_wall_s);
    ASSERT_EQ(a.step_start_times.size(), b.step_start_times.size());
    for (std::size_t i = 0; i < a.step_start_times.size(); ++i) {
        EXPECT_EQ(a.step_start_times[i], b.step_start_times[i]) << "step " << i;
    }
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto fn = static_cast<sph::SphFunction>(f);
        EXPECT_EQ(a.fn(fn).time_s, b.fn(fn).time_s) << sph::to_string(fn);
        EXPECT_EQ(a.fn(fn).gpu_energy_j, b.fn(fn).gpu_energy_j)
            << sph::to_string(fn);
        EXPECT_EQ(a.fn(fn).clock_time_product, b.fn(fn).clock_time_product)
            << sph::to_string(fn);
        EXPECT_EQ(a.fn(fn).calls, b.fn(fn).calls) << sph::to_string(fn);
    }
}

class OnlineTunerDeterminism : public testing::TestWithParam<TuneStrategy> {};

TEST_P(OnlineTunerDeterminism, RunBitIdenticalAcrossThreadCounts)
{
    // The driver fires hooks in one order at every thread count, so both
    // strategies must reproduce the inline run exactly with the pooled
    // execute phase; a mismatch means a hook depends on thread scheduling.
    OnlineTunerConfig cfg = config_with_band();
    cfg.strategy = GetParam();
    sim::RunConfig rc;
    rc.n_ranks = 4;
    rc.setup_s = 5.0;
    rc.n_steps = 15;
    rc.rank_jitter = 0.02;

    auto serial_policy = make_online_mandyn_policy(cfg);
    rc.n_threads = 1;
    const auto serial =
        core::run_with_policy(sim::mini_hpc(), turb450(), rc, *serial_policy);
    auto pooled_policy = make_online_mandyn_policy(cfg);
    rc.n_threads = 4;
    const auto pooled =
        core::run_with_policy(sim::mini_hpc(), turb450(), rc, *pooled_policy);
    expect_same_run(serial, pooled);
}

INSTANTIATE_TEST_SUITE_P(Strategies, OnlineTunerDeterminism,
                         testing::Values(TuneStrategy::kExhaustive,
                                         TuneStrategy::kModel),
                         [](const testing::TestParamInfo<TuneStrategy>& param_info) {
                             return param_info.param == TuneStrategy::kModel
                                        ? std::string("model")
                                        : std::string("exhaustive");
                         });

// ---- checkpoint hardening -------------------------------------------------

TEST(OnlineTuner, RestoreRejectsOversizedSampleCounts)
{
    auto policy = make_online_mandyn_policy(config_with_band());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(3), *policy);
    checkpoint::StateWriter writer;
    policy->save_state(writer);

    // Corrupt fn.0's first sample count to INT_MAX + 1 (counts are stored
    // as u64; restore narrows to int and must reject the overflow).
    std::string payload = writer.str();
    const std::string key = "fn.0.samples=";
    const auto pos = payload.find(key);
    ASSERT_NE(pos, std::string::npos);
    const auto eol = payload.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    payload.replace(pos, eol - pos, key + "2147483648 0 0 0 0");
    const checkpoint::StateReader reader("policy", payload);

    auto fresh = make_online_mandyn_policy(config_with_band());
    sim::RunHooks hooks;
    fresh->attach(hooks, 1);
    EXPECT_THROW(fresh->restore_state(reader), checkpoint::CheckpointError);
}

TEST(OnlineTuner, RestoreRejectsMissingStage)
{
    auto policy = make_online_mandyn_policy(config_with_band());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(3), *policy);
    checkpoint::StateWriter writer;
    policy->save_state(writer);

    // Every policy section the current format writes has the stage machine;
    // one without it is corrupt, not an older layout to resume idle.
    std::string payload = writer.str();
    const auto pos = payload.find("fn.0.stage=");
    ASSERT_NE(pos, std::string::npos);
    payload.erase(pos, payload.find('\n', pos) + 1 - pos);
    const checkpoint::StateReader reader("policy", payload);

    auto fresh = make_online_mandyn_policy(config_with_band());
    sim::RunHooks hooks;
    fresh->attach(hooks, 1);
    EXPECT_THROW(fresh->restore_state(reader), checkpoint::CheckpointError);
}

// ---- decision audit: no phantom predictions -------------------------------

TEST(OnlineTuner, WarmupDecisionsAreMarkedNoPrediction)
{
    telemetry::AttributionLedger ledger(1);
    sim::RunHooks hooks;
    ledger.attach(hooks);
    auto policy = make_online_mandyn_policy(config_with_band());
    core::run_with_policy(sim::mini_hpc(), turb450(), run_config(6), *policy, hooks);

    const auto j = ledger.attribution_json(ledger.decision_count());
    const auto& decisions = j.at("decisions").items();
    ASSERT_FALSE(decisions.empty());
    bool saw_no_prediction = false;
    for (const auto& d : decisions) {
        // Exactly one of the two markers, never both, never neither.
        EXPECT_NE(d.contains("predicted_edp"), d.contains("no_prediction"));
        if (d.contains("no_prediction")) {
            saw_no_prediction = true;
            // A decision without a prediction can never score an error.
            EXPECT_FALSE(d.contains("prediction_error"));
        }
        else {
            EXPECT_GT(d.at("predicted_edp").as_number(), 0.0);
        }
    }
    // Warmup and first-candidate visits have nothing to predict with, so
    // the run necessarily produces some.
    EXPECT_TRUE(saw_no_prediction);
}

} // namespace
} // namespace gsph::core
