/// Failure-injection tests: the instrumentation must degrade gracefully
/// when the management libraries are absent or permission is denied —
/// on a production system a refused clock change must never kill the
/// simulation (the paper's motivation for *user-level* clock control).

#include "core/online_tuner.hpp"
#include "core/policy.hpp"
#include "faults/fault_injector.hpp"
#include "telemetry/metrics.hpp"

#include "nvmlsim/nvml.hpp"

#include <gtest/gtest.h>

namespace gsph {
namespace {

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 50e6;
        spec.n_steps = 3;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return t;
}

sim::RunConfig cfg()
{
    sim::RunConfig c;
    c.n_ranks = 1;
    c.setup_s = 2.0;
    c.rank_jitter = 0.0;
    return c;
}

TEST(FailureInjection, ManDynWithoutNvmlBindingRunsAtConfiguredCap)
{
    // bind_nvml=false: every controller call fails (library sees no
    // devices) but the run must complete; clocks stay at the policy's
    // starting cap, so the result equals a static run at the table max.
    auto mandyn = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    sim::RunConfig unbound = cfg();
    unbound.bind_nvml = false;
    const auto degraded = core::run_with_policy(sim::mini_hpc(), trace(), unbound, *mandyn);

    auto static_max = core::make_static_policy(
        core::reference_a100_turbulence_table().max_clock());
    sim::RunConfig bound = cfg();
    const auto reference =
        core::run_with_policy(sim::mini_hpc(), trace(), bound, *static_max);

    EXPECT_GT(degraded.makespan_s(), 0.0);
    EXPECT_NEAR(degraded.gpu_energy_j, reference.gpu_energy_j,
                1e-6 * reference.gpu_energy_j);
    EXPECT_NEAR(degraded.makespan_s(), reference.makespan_s(),
                1e-9 * reference.makespan_s());
}

TEST(FailureInjection, PermissionDeniedMidRunFallsBackGracefully)
{
    // Revoke the clock permission after a few functions: subsequent apply
    // calls fail but the run completes; already-applied clocks persist.
    auto mandyn = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    sim::RunConfig c = cfg();
    mandyn->configure(c);
    sim::RunHooks hooks;
    mandyn->attach(hooks, 1);

    int calls = 0;
    hooks.prepend({.before_function = [&calls](int, gpusim::GpuDevice&, sph::SphFunction) {
        if (++calls == 5) nvmlsim::set_user_clock_permission(false);
    }});

    const auto r = sim::run_instrumented(sim::mini_hpc(), trace(), c, hooks);
    EXPECT_GT(r.makespan_s(), 0.0);
    EXPECT_GT(r.gpu_energy_j, 0.0);
    nvmlsim::set_user_clock_permission(true);
}

TEST(FailureInjection, OnlineTunerSurvivesDeniedClocks)
{
    // With clock control denied from the start the online tuner measures
    // every "candidate" at the same effective clock; it still converges
    // (to a no-op table) without crashing or corrupting the run.
    core::OnlineTunerConfig tcfg;
    tcfg.candidate_clocks = {1005.0, 1410.0};
    tcfg.samples_per_clock = 1;
    auto online = core::make_online_mandyn_policy(tcfg);

    sim::RunConfig c = cfg();
    c.n_steps = 10;
    online->configure(c);
    sim::RunHooks hooks;
    online->attach(hooks, 1);
    hooks.prepend({.before_function = [](int, gpusim::GpuDevice&, sph::SphFunction) {
        nvmlsim::set_user_clock_permission(false);
    }});
    const auto r = sim::run_instrumented(sim::mini_hpc(), trace(), c, hooks);
    EXPECT_GT(r.gpu_energy_j, 0.0);
    nvmlsim::set_user_clock_permission(true);
}

TEST(FailureInjection, ZeroJitterAndHugeJitterBothComplete)
{
    sim::RunConfig c = cfg();
    c.rank_jitter = 0.0;
    EXPECT_GT(sim::run_instrumented(sim::mini_hpc(), trace(), c).makespan_s(), 0.0);
    c.rank_jitter = 0.5; // extreme imbalance
    c.n_ranks = 2;
    const auto r = sim::run_instrumented(sim::mini_hpc(), trace(), c);
    EXPECT_GT(r.makespan_s(), 0.0);
    // Collectives absorb the imbalance: both ranks end at the same time.
    EXPECT_GT(r.fn(sph::SphFunction::kTimestep).time_s, 0.0);
}

TEST(FailureInjection, OnlineTunerConvergesToSameTableUnderFaults)
{
    // 10% transient set failures plus one stuck episode: retry + read-back
    // discard affected samples, so the learner converges later but to the
    // SAME table the fault-free run learns.
    core::OnlineTunerConfig tcfg;
    tcfg.candidate_clocks = {1005.0, 1110.0, 1215.0, 1320.0, 1410.0};
    tcfg.samples_per_clock = 2;
    tcfg.warmup_calls = 1;

    sim::RunConfig c = cfg();
    c.n_steps = 30; // 11 calls/function needed + re-queue slack

    auto clean = core::make_online_mandyn_policy(tcfg);
    core::run_with_policy(sim::mini_hpc(), trace(), c, *clean);
    ASSERT_TRUE(clean->all_converged());
    const auto clean_table = clean->learned_table(1410.0);

    telemetry::MetricsRegistry::global().reset();
    faults::ScopedFaultInjection guard(
        faults::FaultSpec::parse("transient-set:p=0.1;stuck:at=30,count=3"), 11);
    auto faulty = core::make_online_mandyn_policy(tcfg);
    core::run_with_policy(sim::mini_hpc(), trace(), c, *faulty);

    EXPECT_TRUE(faulty->all_converged());
    const auto faulty_table = faulty->learned_table(1410.0);
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto fn = static_cast<sph::SphFunction>(f);
        EXPECT_DOUBLE_EQ(faulty_table.get(fn), clean_table.get(fn))
            << sph::to_string(fn);
    }

    auto& registry = telemetry::MetricsRegistry::global();
    EXPECT_GT(registry.value("clock.set_retries"), 0.0);
    EXPECT_GT(registry.value("tuner.online.samples_discarded"), 0.0);
    EXPECT_GT(registry.value("faults.injected.transient"), 0.0);
}

TEST(FailureInjection, StuckClockNeverMisattributesSamples)
{
    // Regression: every clock write reports success but the device never
    // leaves its 1410 MHz default.  The learner must not book samples taken
    // at 1410 against the 1005 candidate — before the discard fix it did,
    // silently corrupting the table.
    core::OnlineTunerConfig tcfg;
    tcfg.candidate_clocks = {1005.0, 1410.0};
    tcfg.samples_per_clock = 1;
    tcfg.warmup_calls = 1;

    telemetry::MetricsRegistry::global().reset();
    faults::ScopedFaultInjection guard(
        faults::FaultSpec::parse("stuck:at=0,count=1000000"), 1);
    auto online = core::make_online_mandyn_policy(tcfg);
    sim::RunConfig c = cfg();
    c.n_steps = 10;
    const auto r = core::run_with_policy(sim::mini_hpc(), trace(), c, *online);
    EXPECT_GT(r.gpu_energy_j, 0.0);

    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto& learner = online->learner(static_cast<sph::SphFunction>(f));
        if (learner.calls_seen == 0) continue;
        // Candidate 0 (1005 MHz) never actually applied: zero samples.
        EXPECT_EQ(learner.samples[0], 0)
            << sph::to_string(static_cast<sph::SphFunction>(f));
        // The function can only converge on data from clocks that held.
        EXPECT_FALSE(learner.converged);
    }
    EXPECT_GT(telemetry::MetricsRegistry::global().value(
                  "tuner.online.samples_discarded"),
              0.0);
}

TEST(FailureInjection, SetupFreeRunStillAccountsSlurm)
{
    sim::RunConfig c = cfg();
    c.setup_s = 0.0;
    c.teardown_s = 0.0;
    const auto r = sim::run_instrumented(sim::mini_hpc(), trace(), c);
    EXPECT_TRUE(r.slurm.completed);
    // Without setup/teardown Slurm and the loop window agree closely.
    EXPECT_NEAR(r.slurm.consumed_energy_j, r.node_energy_j,
                0.01 * r.node_energy_j + 2.0);
}

} // namespace
} // namespace gsph
