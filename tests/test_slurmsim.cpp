#include "slurmsim/slurm.hpp"

#include "checkpoint/state.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

namespace gsph::slurmsim {
namespace {

struct TestNode {
    cpusim::CpuDevice cpu{cpusim::epyc_7113()};
    gpusim::GpuDevice gpu{gpusim::a100_sxm4_80g()};
    pmcounters::PmCounters counters{{}, &cpu, {&gpu}};

    void advance(double dt, double to)
    {
        cpu.advance(dt);
        gpu.idle(dt);
        counters.sample_to(to);
    }
};

TEST(SlurmJob, ConsumedEnergyIsNodeDelta)
{
    TestNode node;
    node.advance(1.0, 1.0); // pre-job activity
    Job job("42", "turb", {&node.counters});
    job.start(1.0);
    const double baseline = node.counters.node_energy_j();
    node.advance(10.0, 11.0);
    job.finish(11.0);
    EXPECT_NEAR(job.consumed_energy_j(), node.counters.node_energy_j() - baseline, 1.0);
    EXPECT_DOUBLE_EQ(job.elapsed_s(), 10.0);
}

TEST(SlurmJob, MultiNodeSumsAllNodes)
{
    TestNode a, b;
    Job job("43", "turb", {&a.counters, &b.counters});
    job.start(0.0);
    a.advance(5.0, 5.0);
    b.advance(5.0, 5.0);
    job.finish(5.0);
    EXPECT_NEAR(job.consumed_energy_j(),
                a.counters.node_energy_j() + b.counters.node_energy_j(), 2.0);
}

TEST(SlurmJob, IncludesSetupPhaseUnlikePmt)
{
    // The Fig. 3 mechanism: Slurm accounts from job start.
    TestNode node;
    Job job("44", "turb", {&node.counters});
    job.start(0.0);
    node.advance(30.0, 30.0); // setup: idle but accounted
    const double at_loop_start = node.counters.node_energy_j();
    node.advance(10.0, 40.0); // "loop"
    job.finish(40.0);
    const double pmt_loop = node.counters.node_energy_j() - at_loop_start;
    EXPECT_GT(job.consumed_energy_j(), pmt_loop);
}

TEST(SlurmJob, LifecycleErrors)
{
    TestNode node;
    Job job("45", "x", {&node.counters});
    EXPECT_THROW(job.finish(1.0), std::logic_error);
    job.start(0.0);
    EXPECT_THROW(job.start(0.0), std::logic_error);
    job.finish(1.0);
    EXPECT_THROW(job.finish(2.0), std::logic_error);
}

TEST(SlurmJob, EmptyOrNullNodesThrow)
{
    EXPECT_THROW(Job("1", "x", {}), std::invalid_argument);
    EXPECT_THROW(Job("1", "x", {nullptr}), std::invalid_argument);
}

TEST(SlurmJob, UnfinishedJobReportsZero)
{
    TestNode node;
    Job job("46", "x", {&node.counters});
    job.start(0.0);
    EXPECT_DOUBLE_EQ(job.consumed_energy_j(), 0.0);
    EXPECT_FALSE(job.record().completed);
}

TEST(SlurmJob, EnergyIsIntegralJoules)
{
    TestNode node;
    Job job("47", "x", {&node.counters});
    job.start(0.0);
    node.advance(1.234, 1.234);
    job.finish(1.234);
    const double e = job.consumed_energy_j();
    EXPECT_DOUBLE_EQ(e, std::floor(e));
}

TEST(SlurmJob, WrappedNodeCounterClampsToZeroAndCounts)
{
    // A finite-width node energy counter rolls over mid-job; Slurm-style
    // accounting must clamp the negative delta (like pmt) and count it.
    cpusim::CpuDevice cpu{cpusim::epyc_7113()};
    gpusim::GpuDevice gpu{gpusim::a100_sxm4_80g()};
    pmcounters::PmCountersConfig cfg;
    cfg.counter_wrap_j = 5000.0; // node draws ~280 W -> wraps within ~18 s
    pmcounters::PmCounters counters{cfg, &cpu, {&gpu}};

    auto advance = [&](double dt, double to) {
        cpu.advance(dt);
        gpu.idle(dt);
        counters.sample_to(to);
    };

    advance(10.0, 10.0);
    Job job("49", "wrap", {&counters});
    job.start(10.0);
    const double baseline = counters.node_energy_j();
    const double wraps_before =
        telemetry::MetricsRegistry::global().value("slurm.counter_wraps");
    advance(10.0, 20.0);
    ASSERT_LT(counters.node_energy_j(), baseline) << "counter did not wrap";
    job.finish(20.0);

    EXPECT_GE(job.consumed_energy_j(), 0.0);
    EXPECT_GE(job.record().consumed_energy_j, 0.0);
    EXPECT_DOUBLE_EQ(
        telemetry::MetricsRegistry::global().value("slurm.counter_wraps"),
        wraps_before + 1.0);
}

TEST(SlurmJob, FloorsPerNodeNotCrossNodeTotal)
{
    // slurmd accumulates integral joules per node; flooring the cross-node
    // total instead over-reports whenever the per-node fractions sum past 1.
    TestNode a, b;
    Job job("50", "floor", {&a.counters, &b.counters});
    job.start(0.0);
    const double baseline = a.counters.node_energy_j(); // the same on both nodes
    // Advance both nodes until each one's delta has a fractional part of at
    // least half a joule, so the per-node fractions sum past 1.
    double t = 0.0;
    double delta = 0.0;
    do {
        t += 0.1;
        a.advance(0.1, t);
        b.advance(0.1, t);
        delta = a.counters.node_energy_j() - baseline;
    } while (delta - std::floor(delta) < 0.5);
    ASSERT_EQ(b.counters.node_energy_j(), a.counters.node_energy_j());
    job.finish(t);
    EXPECT_DOUBLE_EQ(job.consumed_energy_j(), 2.0 * std::floor(delta));
    EXPECT_LT(job.consumed_energy_j(), std::floor(2.0 * delta)); // the cross-node floor
}

TEST(SlurmJob, CheckpointsOnlyARunningJob)
{
    // A checkpoint falls between steps, where a job is always running.
    TestNode node;
    Job job("52", "ckpt", {&node.counters});
    checkpoint::StateWriter unstarted;
    EXPECT_THROW(job.save_state(unstarted), std::logic_error);
    job.start(0.0);
    node.advance(5.0, 5.0);
    checkpoint::StateWriter running;
    job.save_state(running);

    Job two_nodes("52", "ckpt", {&node.counters, &node.counters});
    EXPECT_THROW(two_nodes.restore_state(checkpoint::StateReader("slurm", running.str())),
                 checkpoint::CheckpointError); // one baseline per node
    Job restored("52", "ckpt", {&node.counters});
    restored.restore_state(checkpoint::StateReader("slurm", running.str()));
    EXPECT_TRUE(restored.started());
    EXPECT_FALSE(restored.finished());
    EXPECT_EQ(restored.record().consumed_energy_j, job.record().consumed_energy_j);
    job.finish(5.0);
    restored.finish(5.0);
    EXPECT_EQ(restored.record().consumed_energy_j, job.record().consumed_energy_j);
    checkpoint::StateWriter finished;
    EXPECT_THROW(job.save_state(finished), std::logic_error);
}

TEST(SlurmJob, RunningJobReportsTimeAndEnergySoFar)
{
    TestNode node;
    node.advance(1.0, 1.0);
    Job job("51", "live", {&node.counters});
    job.start(1.0);
    node.advance(9.0, 10.0);

    const JobRecord live = job.record();
    EXPECT_FALSE(live.completed);
    EXPECT_NEAR(live.elapsed_s, 9.0, 0.2);   // sensor-tick granularity
    EXPECT_GT(live.consumed_energy_j, 0.0);  // energy-so-far, not zero
    EXPECT_DOUBLE_EQ(live.consumed_energy_j, std::floor(live.consumed_energy_j));

    job.finish(10.0);
    const JobRecord done = job.record();
    EXPECT_TRUE(done.completed);
    EXPECT_DOUBLE_EQ(done.elapsed_s, 9.0);
    EXPECT_GE(done.consumed_energy_j, live.consumed_energy_j);
}

TEST(SlurmFormat, ConsumedEnergySuffixes)
{
    EXPECT_EQ(format_consumed_energy(24.4e6), "24.40M");
    EXPECT_EQ(format_consumed_energy(1500.0), "1.50K");
    EXPECT_EQ(format_consumed_energy(42.0), "42");
}

TEST(SlurmFormat, GigajouleTierAndExplicitNegatives)
{
    // A 1000-GPU fleet crosses 1 GJ routinely; "1234.56M" is unreadable.
    EXPECT_EQ(format_consumed_energy(1.5e9), "1.50G");
    EXPECT_EQ(format_consumed_energy(1.23456e9), "1.23G");
    // Negatives are impossible post-clamp but must never print as a bare
    // fixed-point joule value ("-1500").
    EXPECT_EQ(format_consumed_energy(-1500.0), "-1.50K");
    EXPECT_EQ(format_consumed_energy(-2.5e9), "-2.50G");
}

TEST(SlurmFormat, SacctDayPrefixedElapsedForMultiDayJob)
{
    JobRecord r;
    r.job_id = "100";
    r.job_name = "fleet";
    r.elapsed_s = 3.0 * 86400 + 2.0 * 3600 + 5.0 * 60 + 7.0;
    r.consumed_energy_j = 2.5e9;
    r.n_nodes = 256;
    r.completed = true;
    const std::string out = format_sacct({r});
    EXPECT_NE(out.find("3-02:05:07"), std::string::npos) << out;
    EXPECT_NE(out.find("2.50G"), std::string::npos) << out;
}

TEST(SlurmFormat, SacctElapsedSurvives64BitSeconds)
{
    // 2.5e9 s (~79 simulated years) overflows a 32-bit int cast (UB).
    JobRecord r;
    r.job_id = "101";
    r.job_name = "longhaul";
    r.elapsed_s = 2.5e9;
    r.consumed_energy_j = 1.0e6;
    r.n_nodes = 1;
    r.completed = true;
    const std::string out = format_sacct({r});
    EXPECT_NE(out.find("28935-04:26:40"), std::string::npos) << out;
}

TEST(SlurmFormat, SacctTableContainsColumns)
{
    TestNode node;
    Job job("48", "SubsonicTurbulence", {&node.counters});
    job.start(0.0);
    node.advance(3700.0, 3700.0);
    job.finish(3700.0);
    const std::string out = format_sacct({job.record()});
    EXPECT_NE(out.find("JobID"), std::string::npos);
    EXPECT_NE(out.find("ConsumedEnergy"), std::string::npos);
    EXPECT_NE(out.find("48"), std::string::npos);
    EXPECT_NE(out.find("SubsonicTurbulence"), std::string::npos);
    EXPECT_NE(out.find("01:01:40"), std::string::npos); // elapsed hh:mm:ss
}

} // namespace
} // namespace gsph::slurmsim
