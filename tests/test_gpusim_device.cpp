#include "gpusim/device.hpp"

#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <string>
#include <type_traits>

namespace gsph::gpusim {
namespace {

// The power model and governor point at the device's own spec, so a copy
// would dangle once its source is gone (and publish its counts twice).
static_assert(!std::is_copy_constructible_v<GpuDevice>);
static_assert(!std::is_copy_assignable_v<GpuDevice>);

KernelWork big_kernel()
{
    KernelWork w;
    w.flops = 5e11;
    w.dram_bytes = 8e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.5;
    w.threads = 90'000'000;
    return w;
}

TEST(Device, ExecuteAdvancesTimeAndEnergy)
{
    GpuDevice dev(a100_sxm4_80g());
    const auto r = dev.execute(big_kernel());
    EXPECT_GT(r.end_s, r.start_s);
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_DOUBLE_EQ(dev.now(), r.end_s);
    EXPECT_NEAR(dev.energy_j(), r.energy_j, 1e-9);
}

TEST(Device, LockedModeRunsAtAppClock)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1110.0);
    const auto r = dev.execute(big_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1110.0);
}

TEST(Device, LowerClockSlowerButCheaper)
{
    GpuDevice hi(a100_sxm4_80g()), lo(a100_sxm4_80g());
    lo.set_application_clocks(1593.0, 1005.0);
    const auto rh = hi.execute(big_kernel());
    const auto rl = lo.execute(big_kernel());
    EXPECT_GT(rl.timing.total_s, rh.timing.total_s);
    EXPECT_LT(rl.mean_power_w, rh.mean_power_w);
}

TEST(Device, SetApplicationClocksQuantizes)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1007.0);
    EXPECT_DOUBLE_EQ(dev.application_clock_mhz(), 1005.0);
}

TEST(Device, ResetApplicationClocksRestoresDefault)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1005.0);
    dev.reset_application_clocks();
    EXPECT_DOUBLE_EQ(dev.application_clock_mhz(), 1410.0);
}

TEST(Device, InvalidClockThrows)
{
    GpuDevice dev(a100_sxm4_80g());
    EXPECT_THROW(dev.set_application_clocks(1593.0, 0.0), std::invalid_argument);
    EXPECT_THROW(dev.set_application_clocks(1593.0, std::nan("")), std::invalid_argument);
}

TEST(Device, RejectsUnboundedClockGrid)
{
    GpuDeviceSpec spec = a100_sxm4_80g();
    spec.clock_step_mhz = 1e-13; // f - step == f
    EXPECT_THROW(GpuDevice{spec}, std::invalid_argument);
}

TEST(Device, IdleAccumulatesIdleEnergy)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.idle(10.0);
    EXPECT_DOUBLE_EQ(dev.now(), 10.0);
    const double p = dev.energy_j() / 10.0;
    EXPECT_GT(p, 10.0);
    EXPECT_LT(p, 100.0); // near idle power, far from TDP
}

TEST(Device, GovernedModeBoostsAndRuns)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    const auto r = dev.execute(big_kernel());
    // high-utilization kernel: governor should push near max clock
    EXPECT_GT(r.mean_clock_mhz, 1200.0);
    EXPECT_GT(r.energy_j, 0.0);
}

TEST(Device, GovernedTimeSimilarLockedEnergyLower)
{
    // The Fig. 7 DVFS result in miniature: native DVFS matches the locked
    // baseline's time on compute-heavy work but costs more energy.
    GpuDevice locked(a100_sxm4_80g()), governed(a100_sxm4_80g());
    governed.set_clock_policy(ClockPolicy::kNativeDvfs);
    KernelWork w = big_kernel();
    double locked_t = 0.0, governed_t = 0.0;
    for (int i = 0; i < 5; ++i) {
        locked_t += locked.execute(w).timing.total_s;
        governed_t += governed.execute(w).timing.total_s;
    }
    EXPECT_NEAR(governed_t / locked_t, 1.0, 0.05);
    EXPECT_GT(governed.energy_j(), locked.energy_j());
}

TEST(Device, GovernedRespectsCap)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.set_application_clocks(1593.0, 1005.0);
    const auto r = dev.execute(big_kernel());
    EXPECT_LE(r.mean_clock_mhz, 1005.0 + 1e-9);
}

TEST(Device, TracingRecordsClockSamples)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.enable_tracing(true);
    dev.execute(big_kernel());
    dev.idle(0.2);
    EXPECT_FALSE(dev.clock_trace().empty());
    EXPECT_GT(dev.clock_trace().size(), 5u);
    dev.clear_traces();
    EXPECT_TRUE(dev.clock_trace().empty());
}

/// Ops [from, to) of one fixed sequence of governed kernels and idles.
void drive(GpuDevice& dev, int from, int to)
{
    const KernelWork kernel = big_kernel();
    for (int k = from; k < to; ++k) {
        if (k % 3 == 2) {
            dev.idle(0.05 * (k % 4 + 1));
        }
        else {
            dev.execute(kernel);
        }
    }
}

/// Governed clocks, so every tick lands in the traces.
void trace_governed(GpuDevice& dev)
{
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.enable_tracing(true);
}

std::string saved(const GpuDevice& dev)
{
    checkpoint::StateWriter writer;
    dev.save_state(writer);
    return writer.take();
}

TEST(Device, TraceSavesMatchAFreshSave)
{
    // Saves at several points encode only the samples appended since the
    // last one; each must equal the one save of a device that never saved.
    GpuDevice dev(a100_sxm4_80g());
    trace_governed(dev);
    int done = 0;
    for (const int ops : {0, 1, 4, 7}) {
        drive(dev, done, done + ops);
        done += ops;
        GpuDevice fresh(a100_sxm4_80g());
        trace_governed(fresh);
        drive(fresh, 0, done);
        ASSERT_EQ(saved(dev), saved(fresh)) << done << " ops";
    }
    ASSERT_GT(dev.clock_trace().size(), 20u);

    // clear_traces drops the saved text with the samples.
    dev.clear_traces();
    drive(dev, done, done + 3);
    GpuDevice cleared(a100_sxm4_80g());
    trace_governed(cleared);
    drive(cleared, 0, done);
    cleared.clear_traces();
    drive(cleared, done, done + 3);
    EXPECT_EQ(saved(dev), saved(cleared));
    done += 3;

    // A restored device drops the text its own saves kept, and continues
    // as the original does.
    GpuDevice restored(a100_sxm4_80g());
    trace_governed(restored);
    drive(restored, 0, 2);
    saved(restored);
    restored.restore_state(checkpoint::StateReader("gpu.0", saved(dev)));
    drive(dev, done, done + 5);
    drive(restored, done, done + 5);
    EXPECT_EQ(saved(restored), saved(dev));
}

/// The registry's kernel-batch and clock-transition totals.
struct Published {
    double batches;
    double transitions;
};

Published published()
{
    const auto& reg = telemetry::MetricsRegistry::global();
    return {reg.value("gpusim.kernel_batches"), reg.value("governor.transitions")};
}

TEST(Device, CountsReachTheRegistryOnlyWhenPublished)
{
    const Published before = published();
    {
        GpuDevice dev(a100_sxm4_80g());
        dev.set_application_clocks(1593.0, 1110.0);
        dev.execute(big_kernel()); // park -> 1110 MHz
        dev.execute(big_kernel());
        dev.idle(0.1);             // 1110 MHz -> park
        EXPECT_EQ(published().batches, before.batches);
        EXPECT_EQ(published().transitions, before.transitions);

        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches + 2.0);
        EXPECT_EQ(published().transitions, before.transitions + 2.0);
        dev.publish_counters(); // nothing new: adds nothing
        EXPECT_EQ(published().batches, before.batches + 2.0);

        dev.execute(big_kernel());
    }
    // The destructor publishes what was left.
    EXPECT_EQ(published().batches, before.batches + 3.0);
    EXPECT_EQ(published().transitions, before.transitions + 3.0);
}

TEST(Device, RestoreDropsCountsFromBeforeTheRestore)
{
    // The registry's own checkpoint section holds the restored run's
    // totals, so work done before a device restore must not be added.
    const Published before = published();
    {
        GpuDevice dev(a100_sxm4_80g());
        const std::string fresh = saved(dev);
        dev.set_clock_policy(ClockPolicy::kNativeDvfs);
        dev.execute(big_kernel());
        dev.idle(0.2);
        ASSERT_GT(dev.clock_transitions(), 0);
        dev.restore_state(checkpoint::StateReader("gpu.0", fresh));
        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches);
        EXPECT_EQ(published().transitions, before.transitions);

        // Work after the restore is counted as usual.
        dev.set_application_clocks(1593.0, 1110.0);
        dev.execute(big_kernel()); // park -> 1110 MHz
    }
    EXPECT_EQ(published().batches, before.batches + 1.0);
    EXPECT_EQ(published().transitions, before.transitions + 1.0);
}

TEST(Device, NoTracesByDefault)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.execute(big_kernel());
    EXPECT_TRUE(dev.clock_trace().empty());
}

TEST(Device, EnergyIsMonotone)
{
    GpuDevice dev(a100_sxm4_80g());
    double prev = 0.0;
    for (int i = 0; i < 10; ++i) {
        dev.execute(big_kernel());
        EXPECT_GT(dev.energy_j(), prev);
        prev = dev.energy_j();
        dev.idle(0.01);
        EXPECT_GT(dev.energy_j(), prev);
        prev = dev.energy_j();
    }
}

TEST(Device, LockedEnergyDeterministic)
{
    GpuDevice a(a100_sxm4_80g()), b(a100_sxm4_80g());
    a.execute(big_kernel());
    b.execute(big_kernel());
    EXPECT_DOUBLE_EQ(a.energy_j(), b.energy_j());
    EXPECT_DOUBLE_EQ(a.now(), b.now());
}

TEST(Device, OverheadPricedNearIdle)
{
    // A launch-storm batch with negligible math should burn near-idle power.
    GpuDevice dev(a100_sxm4_80g());
    KernelWork w;
    w.launches = 10000;
    w.flops = 1e6;
    w.dram_bytes = 1e6;
    w.threads = 1000;
    const auto r = dev.execute(w);
    EXPECT_LT(r.mean_power_w, 120.0);
}

TEST(Device, MemoryClockSettingAffectsBandwidth)
{
    GpuDevice normal(a100_sxm4_80g()), slow(a100_sxm4_80g());
    KernelWork w;
    w.dram_bytes = 1e11;
    w.flops = 1e9;
    w.threads = 90'000'000;
    slow.set_application_clocks(1593.0 / 2.0, 1410.0);
    const auto rn = normal.execute(w);
    const auto rs = slow.execute(w);
    EXPECT_GT(rs.timing.total_s, rn.timing.total_s * 1.5);
}

} // namespace
} // namespace gsph::gpusim
