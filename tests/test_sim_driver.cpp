#include "sim/driver.hpp"

#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

namespace gsph::sim {
namespace {

class DriverFixture : public ::testing::Test {
protected:
    static const WorkloadTrace& trace()
    {
        static const WorkloadTrace t = [] {
            WorkloadSpec spec;
            spec.kind = WorkloadKind::kSubsonicTurbulence;
            spec.particles_per_gpu = 20e6;
            spec.n_steps = 4;
            spec.real_nside = 8;
            return record_trace(spec);
        }();
        return t;
    }

    static RunConfig base_config()
    {
        RunConfig cfg;
        cfg.n_ranks = 2;
        cfg.setup_s = 5.0;
        cfg.teardown_s = 1.0;
        cfg.rank_jitter = 0.01;
        return cfg;
    }

    /// Runs `cfg` on both of the driver's execute paths, whatever the
    /// host's core count: inline (one thread), then pooled (four).  The two
    /// results must agree bit for bit; returns the inline one.
    static RunResult run(RunConfig cfg, const RunHooks& hooks = {})
    {
        cfg.n_threads = 1;
        const RunResult inline_run = run_instrumented(mini_hpc(), trace(), cfg, hooks);
        cfg.n_threads = 4;
        const RunResult pooled = run_instrumented(mini_hpc(), trace(), cfg, hooks);
        EXPECT_EQ(pooled.loop_start_s, inline_run.loop_start_s);
        EXPECT_EQ(pooled.loop_end_s, inline_run.loop_end_s);
        EXPECT_EQ(pooled.total_wall_s, inline_run.total_wall_s);
        EXPECT_EQ(pooled.gpu_energy_j, inline_run.gpu_energy_j);
        EXPECT_EQ(pooled.cpu_energy_j, inline_run.cpu_energy_j);
        EXPECT_EQ(pooled.memory_energy_j, inline_run.memory_energy_j);
        EXPECT_EQ(pooled.other_energy_j, inline_run.other_energy_j);
        EXPECT_EQ(pooled.node_energy_j, inline_run.node_energy_j);
        EXPECT_EQ(pooled.pmt_loop_energy_j, inline_run.pmt_loop_energy_j);
        EXPECT_EQ(pooled.step_start_times, inline_run.step_start_times);
        for (std::size_t f = 0; f < inline_run.per_function.size(); ++f) {
            EXPECT_EQ(pooled.per_function[f].time_s, inline_run.per_function[f].time_s);
            EXPECT_EQ(pooled.per_function[f].gpu_energy_j,
                      inline_run.per_function[f].gpu_energy_j);
            EXPECT_EQ(pooled.per_function[f].calls, inline_run.per_function[f].calls);
        }
        return inline_run;
    }
};

TEST(WorkJitter, GoldenValues)
{
    // Pins the chained-SplitMix64 jitter stream: any change to the mixing
    // silently changes every simulated result, so it must be deliberate.
    EXPECT_DOUBLE_EQ(work_jitter(0.02, 0, 0, 0), 1.0001049232731791);
    EXPECT_DOUBLE_EQ(work_jitter(0.02, 1, 0, 0), 0.9883850936809877);
    EXPECT_DOUBLE_EQ(work_jitter(0.02, 0, 1, 0), 0.98997775274377708);
    EXPECT_DOUBLE_EQ(work_jitter(0.02, 0, 0, 1), 1.0173198620864004);
    EXPECT_DOUBLE_EQ(work_jitter(0.05, 3, 123456789, 70000), 1.0040720381591925);
}

TEST(WorkJitter, BoundsAndDisabled)
{
    EXPECT_DOUBLE_EQ(work_jitter(0.0, 5, 5, 5), 1.0);
    EXPECT_DOUBLE_EQ(work_jitter(-1.0, 5, 5, 5), 1.0);
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 64; ++c) {
            const double j = work_jitter(0.02, r, 11, c);
            EXPECT_GE(j, 0.98);
            EXPECT_LE(j, 1.02);
        }
    }
}

TEST(WorkJitter, NoCollisionsWhereTheOldPackingCollided)
{
    // The old shift-XOR packing (rank<<40 ^ step<<16 ^ call) made
    // (step, call) = (0, 65536) and (1, 0) share a seed, and wrapped step
    // at 2^24.  The chained mixing keeps those streams distinct.
    EXPECT_NE(work_jitter(0.02, 0, 0, 65536), work_jitter(0.02, 0, 1, 0));
    EXPECT_NE(work_jitter(0.02, 2, 7, 65536), work_jitter(0.02, 2, 8, 0));
    // step = 2^24 + 7 vs rank-bit aliasing (old: step<<16 reached rank bits).
    EXPECT_NE(work_jitter(0.02, 2, 16777223, 0), work_jitter(0.02, 3, 7, 0));
}

TEST_F(DriverFixture, BasicRunProducesSaneResult)
{
    const auto r = run(base_config());
    EXPECT_EQ(r.n_ranks, 2);
    EXPECT_EQ(r.n_steps, 4);
    EXPECT_GT(r.makespan_s(), 0.0);
    EXPECT_DOUBLE_EQ(r.loop_start_s, 5.0);
    EXPECT_GT(r.loop_end_s, r.loop_start_s);
    EXPECT_GT(r.gpu_energy_j, 0.0);
    EXPECT_GT(r.cpu_energy_j, 0.0);
    EXPECT_GT(r.other_energy_j, 0.0);
    EXPECT_NEAR(r.node_energy_j,
                r.gpu_energy_j + r.cpu_energy_j + r.memory_energy_j + r.other_energy_j,
                1e-6);
    EXPECT_EQ(r.system_name, "miniHPC");
    EXPECT_EQ(r.workload_name, "SubsonicTurbulence");
}

TEST_F(DriverFixture, EveryFunctionAccountedOncePerStepPerRank)
{
    const auto r = run(base_config());
    for (sph::SphFunction fn : sph::function_order(false)) {
        EXPECT_EQ(r.fn(fn).calls, 4 * 2) << sph::to_string(fn);
        EXPECT_GT(r.fn(fn).time_s, 0.0) << sph::to_string(fn);
        EXPECT_GT(r.fn(fn).gpu_energy_j, 0.0) << sph::to_string(fn);
    }
    EXPECT_EQ(r.fn(sph::SphFunction::kGravity).calls, 0);
}

TEST_F(DriverFixture, DeviceCountsArePublishedByEveryStepEnd)
{
    // Devices count kernel batches, clock transitions and governor cap sets
    // in plain members and publish them at each step end, before the
    // after_step hooks; the driver adds one function call per rank.  Three
    // ranks leave one of the second node's two GPUs unused, idling under the
    // clock policy.
    const auto value = [](const char* name) {
        return telemetry::MetricsRegistry::global().value(name);
    };
    struct Case {
        gpusim::ClockPolicy policy;
        double transitions; ///< as counted when every transition bumped the registry
        double cap_sets;    ///< likewise for every cap the governor was given
    };
    for (const Case c : {Case{gpusim::ClockPolicy::kLockedAppClock, 90.0, 0.0},
                         Case{gpusim::ClockPolicy::kNativeDvfs, 204.0, 4.0}}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, policy " +
                         std::to_string(static_cast<int>(c.policy)));
            RunConfig cfg = base_config();
            cfg.n_ranks = 3;
            cfg.n_threads = threads;
            cfg.clock_policy = c.policy;
            const double calls0 = value("driver.function_calls");
            const double batches0 = value("gpusim.kernel_batches");
            const double transitions0 = value("governor.transitions");
            const double cap_sets0 = value("governor.cap_sets");
            double rank_kernels = 0.0;
            int steps_seen = 0;
            RunHooks hooks;
            hooks.after_step = [&](int step) {
                rank_kernels += static_cast<double>(
                    cfg.n_ranks * trace().steps[static_cast<std::size_t>(step)]
                                      .functions.size());
                EXPECT_EQ(value("driver.function_calls") - calls0, rank_kernels) << step;
                EXPECT_EQ(value("gpusim.kernel_batches") - batches0, rank_kernels) << step;
                // Every cap is set before the loop.
                EXPECT_EQ(value("governor.cap_sets") - cap_sets0, c.cap_sets) << step;
                ++steps_seen;
            };
            run_instrumented(mini_hpc(), trace(), cfg, hooks);
            EXPECT_EQ(steps_seen, 4);
            EXPECT_EQ(value("driver.function_calls") - calls0, rank_kernels);
            EXPECT_EQ(value("gpusim.kernel_batches") - batches0, rank_kernels);
            EXPECT_EQ(value("governor.transitions") - transitions0, c.transitions);
            EXPECT_EQ(value("governor.cap_sets") - cap_sets0, c.cap_sets);
        }
    }
}

TEST_F(DriverFixture, FunctionTimesSumToMakespan)
{
    const auto r = run(base_config());
    double total = 0.0;
    for (const auto& a : r.per_function) total += a.time_s;
    EXPECT_NEAR(total, r.makespan_s(), 0.02 * r.makespan_s());
}

TEST_F(DriverFixture, FunctionGpuEnergySumsToTotal)
{
    const auto r = run(base_config());
    double total = 0.0;
    for (const auto& a : r.per_function) total += a.gpu_energy_j;
    // Time outside functions (end-of-step straggler sync) is small.
    EXPECT_NEAR(total, r.gpu_energy_j, 0.03 * r.gpu_energy_j);
}

TEST_F(DriverFixture, SlurmSeesMoreThanLoopWindow)
{
    const auto r = run(base_config());
    EXPECT_TRUE(r.slurm.completed);
    EXPECT_GT(r.slurm.consumed_energy_j, r.node_energy_j);
    // ... but the excess stays within a generous idle-node power envelope
    // over the setup + teardown window.
    const double setup_window = base_config().setup_s + base_config().teardown_s;
    EXPECT_LT(r.slurm.consumed_energy_j - r.node_energy_j, 800.0 * setup_window);
    EXPECT_NEAR(r.slurm.elapsed_s, r.total_wall_s, 1e-9);
}

TEST_F(DriverFixture, PmtMatchesGroundTruthWithinSamplingError)
{
    const auto r = run(base_config());
    // PMT reads the 10 Hz pm_counters surface: small quantization error.
    EXPECT_NEAR(r.pmt_loop_energy_j, r.node_energy_j, 0.05 * r.node_energy_j);
}

TEST_F(DriverFixture, HooksFireInOrder)
{
    // One order on both execute paths: within each function call, every
    // rank's before-hook fires, in rank order, before the first after-hook;
    // the after-hooks then fire in rank order.
    struct Event {
        char kind; ///< 'B' before, 'A' after, 'S' end of step
        int rank;
        sph::SphFunction fn;
    };
    const auto cfg = base_config();
    std::vector<Event> log;
    RunHooks hooks;
    hooks.before_function = [&](int rank, gpusim::GpuDevice&, sph::SphFunction fn) {
        log.push_back({'B', rank, fn});
    };
    hooks.after_function = [&](int rank, gpusim::GpuDevice&, sph::SphFunction fn,
                               const gpusim::KernelResult&) {
        log.push_back({'A', rank, fn});
    };
    hooks.after_step = [&](int) { log.push_back({'S', -1, {}}); };
    run(cfg, hooks); // logs the inline run, then the pooled one

    const auto count = [&](char kind) {
        return std::count_if(log.begin(), log.end(),
                             [kind](const Event& e) { return e.kind == kind; });
    };
    const long expected =
        2 * 4L * cfg.n_ranks * static_cast<long>(sph::function_order(false).size());
    EXPECT_EQ(count('B'), expected);
    EXPECT_EQ(count('A'), expected);
    EXPECT_EQ(count('S'), 2 * 4);

    const std::size_t n = static_cast<std::size_t>(cfg.n_ranks);
    std::size_t i = 0;
    while (i < log.size()) {
        if (log[i].kind == 'S') {
            ++i;
            continue;
        }
        ASSERT_LE(i + 2 * n, log.size()) << "truncated call at event " << i;
        const sph::SphFunction fn = log[i].fn;
        for (std::size_t r = 0; r < n; ++r) {
            const Event& before = log[i + r];
            const Event& after = log[i + n + r];
            EXPECT_EQ(before.kind, 'B') << "event " << i + r;
            EXPECT_EQ(before.rank, static_cast<int>(r)) << "event " << i + r;
            EXPECT_EQ(before.fn, fn) << "event " << i + r;
            EXPECT_EQ(after.kind, 'A') << "event " << i + n + r;
            EXPECT_EQ(after.rank, static_cast<int>(r)) << "event " << i + n + r;
            EXPECT_EQ(after.fn, fn) << "event " << i + n + r;
        }
        i += 2 * n;
    }
}

/// Hooks that append `id` to `log`; `callbacks` names the ones set:
/// 'B' before, 'A' after, 'S' end of step.
RunHooks logging_hooks(std::string& log, char id, std::string_view callbacks)
{
    RunHooks hooks;
    if (callbacks.find('B') != std::string_view::npos) {
        hooks.before_function = [&log, id](int, gpusim::GpuDevice&, sph::SphFunction) {
            log += id;
        };
    }
    if (callbacks.find('A') != std::string_view::npos) {
        hooks.after_function = [&log, id](int, gpusim::GpuDevice&, sph::SphFunction,
                                          const gpusim::KernelResult&) { log += id; };
    }
    if (callbacks.find('S') != std::string_view::npos) {
        hooks.after_step = [&log, id](int) { log += id; };
    }
    return hooks;
}

TEST(RunHooks, AppendAndPrependKeepOneOrder)
{
    // Observers a and b append; policy P (before and after, as online
    // ManDyn) and policy Q (before only, as ManDyn) prepend, interleaved.
    std::string log;
    RunHooks hooks;
    hooks.append(logging_hooks(log, 'a', "BAS"));
    hooks.prepend(logging_hooks(log, 'P', "BA"));
    hooks.append(logging_hooks(log, 'b', "BAS"));
    hooks.prepend(logging_hooks(log, 'Q', "B"));

    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    hooks.before_function(0, dev, sph::SphFunction::kXMass);
    EXPECT_EQ(log, "QPab");
    log.clear();
    hooks.after_function(0, dev, sph::SphFunction::kXMass, gpusim::KernelResult{});
    EXPECT_EQ(log, "Pab");
    log.clear();
    hooks.after_step(0);
    EXPECT_EQ(log, "ab");

    // A callback a component leaves empty adds no call: the before-only
    // policy leaves the observer's own after-hook installed as it was, and
    // a callback nobody sets stays empty, so the driver skips it.
    const RunHooks observer = logging_hooks(log, 'a', "A");
    RunHooks observed;
    observed.append(observer);
    observed.prepend(logging_hooks(log, 'Q', "B"));
    EXPECT_TRUE(observed.after_function.target_type() ==
                observer.after_function.target_type());
    EXPECT_TRUE(observed.before_function);
    EXPECT_FALSE(observed.after_step);
}

TEST_F(DriverFixture, StaticClockAppliesEverywhere)
{
    auto cfg = base_config();
    cfg.app_clock_mhz = 1005.0;
    const auto r = run(cfg);
    for (sph::SphFunction fn : sph::function_order(false)) {
        // Halo/collective idle time at the park clock dilutes the mean for
        // the communication-bearing functions.
        if (sph::is_collective(fn) || fn == sph::SphFunction::kDomainDecompAndSync) {
            continue;
        }
        EXPECT_NEAR(r.fn(fn).mean_clock_mhz(), 1005.0, 30.0) << sph::to_string(fn);
    }
}

TEST_F(DriverFixture, LowerClockSlowerCheaper)
{
    auto cfg = base_config();
    const auto base = run(cfg);
    cfg.app_clock_mhz = 1005.0;
    const auto low = run(cfg);
    EXPECT_GT(low.makespan_s(), base.makespan_s());
    EXPECT_LT(low.gpu_energy_j, base.gpu_energy_j);
}

TEST_F(DriverFixture, DvfsPolicyTracesClock)
{
    auto cfg = base_config();
    cfg.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
    cfg.enable_rank0_trace = true;
    const auto r = run(cfg);
    EXPECT_FALSE(r.rank0_clock_trace.empty());
    EXPECT_GT(r.rank0_clock_trace.max_value(), 1300.0); // boosts near max
    EXPECT_LT(r.rank0_clock_trace.min_value(), 1300.0); // dips during idle
    EXPECT_EQ(r.step_start_times.size(), 4u);
}

TEST_F(DriverFixture, MoreRanksMoreEnergySimilarTime)
{
    auto cfg = base_config();
    cfg.n_ranks = 2;
    const auto small = run(cfg);
    cfg.n_ranks = 4;
    const auto large = run(cfg);
    // Weak scaling: same per-rank work, double the ranks.
    EXPECT_NEAR(large.gpu_energy_j / small.gpu_energy_j, 2.0, 0.1);
    EXPECT_NEAR(large.makespan_s() / small.makespan_s(), 1.0, 0.05);
}

TEST_F(DriverFixture, JitterIsDeterministic)
{
    const auto a = run(base_config());
    const auto b = run(base_config());
    EXPECT_DOUBLE_EQ(a.makespan_s(), b.makespan_s());
    EXPECT_DOUBLE_EQ(a.gpu_energy_j, b.gpu_energy_j);
}

TEST_F(DriverFixture, StepsCanExceedTraceLength)
{
    auto cfg = base_config();
    cfg.n_steps = 10; // trace has 4: cycles
    const auto r = run(cfg);
    EXPECT_EQ(r.n_steps, 10);
    EXPECT_EQ(r.fn(sph::SphFunction::kMomentumEnergy).calls, 10 * 2);
}

TEST_F(DriverFixture, EmptyTraceThrows)
{
    WorkloadTrace empty;
    EXPECT_THROW(run_instrumented(mini_hpc(), empty, base_config()),
                 std::invalid_argument);
}

TEST_F(DriverFixture, CpuEnergyApportionedByDuration)
{
    const auto r = run(base_config());
    double cpu_total = 0.0;
    for (const auto& a : r.per_function) cpu_total += a.cpu_energy_j;
    EXPECT_NEAR(cpu_total, r.cpu_energy_j + r.memory_energy_j, 1.0);
    // The biggest-time function gets the biggest CPU share.
    const auto& me = r.fn(sph::SphFunction::kMomentumEnergy);
    const auto& eos = r.fn(sph::SphFunction::kEquationOfState);
    EXPECT_GT(me.cpu_energy_j, eos.cpu_energy_j);
}

} // namespace
} // namespace gsph::sim
