#include "gpusim/roofline.hpp"

#include <gtest/gtest.h>

namespace gsph::gpusim {
namespace {

KernelWork compute_heavy()
{
    KernelWork w;
    w.flops = 1e12;
    w.dram_bytes = 1e9; // intensity 1000 flops/B: far above any ridge
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.0;
    w.threads = 100'000'000;
    return w;
}

KernelWork memory_heavy()
{
    KernelWork w;
    w.flops = 1e9;
    w.dram_bytes = 1e11; // intensity 0.01
    w.flop_efficiency = 0.3;
    w.gather_fraction = 0.0;
    w.threads = 100'000'000;
    return w;
}

TEST(Roofline, ComputeBoundScalesInverselyWithClock)
{
    const auto spec = a100_sxm4_80g();
    const auto w = compute_heavy();
    const auto t_max = price_kernel(spec, w, 1410.0);
    const auto t_low = price_kernel(spec, w, 705.0);
    EXPECT_NEAR(t_low.busy_s / t_max.busy_s, 2.0, 0.05);
}

TEST(Roofline, MemoryBoundInsensitiveToClock)
{
    const auto spec = a100_sxm4_80g();
    const auto w = memory_heavy();
    const auto t_max = price_kernel(spec, w, 1410.0);
    const auto t_low = price_kernel(spec, w, 1005.0);
    EXPECT_NEAR(t_low.busy_s / t_max.busy_s, 1.0, 0.02);
}

TEST(Roofline, TotalIncludesLaunchOverhead)
{
    const auto spec = a100_sxm4_80g();
    KernelWork w = memory_heavy();
    w.launches = 1000;
    const auto t = price_kernel(spec, w, 1410.0);
    EXPECT_NEAR(t.overhead_s, 1000 * spec.launch_overhead_s, 1e-12);
    EXPECT_NEAR(t.total_s, t.busy_s + t.overhead_s, 1e-12);
}

TEST(Roofline, ActivitiesInUnitRange)
{
    const auto spec = a100_sxm4_80g();
    for (const auto& w : {compute_heavy(), memory_heavy()}) {
        const auto t = price_kernel(spec, w, 1200.0);
        EXPECT_GE(t.compute_activity, 0.0);
        EXPECT_LE(t.compute_activity, 1.0);
        EXPECT_GE(t.memory_activity, 0.0);
        EXPECT_LE(t.memory_activity, 1.0);
        EXPECT_GE(t.utilization, 0.0);
        EXPECT_LE(t.utilization, 1.0);
    }
}

TEST(Roofline, ComputeBoundHasHighComputeActivity)
{
    const auto spec = a100_sxm4_80g();
    const auto t = price_kernel(spec, compute_heavy(), 1410.0);
    EXPECT_GT(t.compute_activity, 0.9);
    EXPECT_LT(t.memory_activity, 0.1);
}

TEST(Roofline, GatherTrafficIsSlower)
{
    const auto spec = a100_sxm4_80g();
    KernelWork stream = memory_heavy();
    KernelWork gather = memory_heavy();
    gather.gather_fraction = 1.0;
    const auto ts = price_kernel(spec, stream, 1410.0);
    const auto tg = price_kernel(spec, gather, 1410.0);
    EXPECT_GT(tg.memory_s, ts.memory_s * 1.2);
}

TEST(Roofline, GatherPenaltyLargerOnAmd)
{
    KernelWork gather = memory_heavy();
    gather.gather_fraction = 1.0;
    KernelWork stream = memory_heavy();

    const auto nvidia = a100_sxm4_80g();
    const auto amd = mi250x_gcd();
    const double nv_ratio = price_kernel(nvidia, gather, 1410.0).memory_s /
                            price_kernel(nvidia, stream, 1410.0).memory_s;
    const double amd_ratio = price_kernel(amd, gather, 1700.0).memory_s /
                             price_kernel(amd, stream, 1700.0).memory_s;
    EXPECT_GT(amd_ratio, nv_ratio);
}

TEST(Roofline, SmallProblemsLoseBandwidth)
{
    // The Fig. 6 mechanism: under-filled devices are latency-limited.
    const auto spec = a100_sxm4_80g();
    KernelWork big = memory_heavy();
    KernelWork small = memory_heavy();
    small.threads = 2'000'000;
    EXPECT_GT(price_kernel(spec, small, 1410.0).memory_s,
              price_kernel(spec, big, 1410.0).memory_s * 1.5);
}

TEST(Roofline, SmallProblemClockSensitivityDrops)
{
    // A near-ridge kernel becomes clock-insensitive when under-occupied.
    const auto spec = a100_sxm4_80g();
    KernelWork w;
    w.flops = 1e12;
    w.dram_bytes = 1.6e11; // near the A100 ridge at these efficiencies
    w.flop_efficiency = 0.6;
    w.threads = 100'000'000;

    auto sensitivity = [&](std::int64_t threads) {
        KernelWork k = w;
        k.threads = threads;
        const double hi = price_kernel(spec, k, 1410.0).busy_s;
        const double lo = price_kernel(spec, k, 1005.0).busy_s;
        return lo / hi;
    };
    EXPECT_GT(sensitivity(100'000'000), sensitivity(4'000'000));
}

TEST(Roofline, ZeroWorkIsOnlyOverhead)
{
    const auto spec = a100_sxm4_80g();
    KernelWork w;
    w.launches = 5;
    const auto t = price_kernel(spec, w, 1410.0);
    EXPECT_DOUBLE_EQ(t.busy_s, 0.0);
    EXPECT_DOUBLE_EQ(t.total_s, 5 * spec.launch_overhead_s);
    EXPECT_DOUBLE_EQ(t.utilization, 0.0);
}

TEST(Roofline, MemoryClockScaleSpeedsUpMemory)
{
    const auto spec = a100_sxm4_80g();
    const auto w = memory_heavy();
    const auto base = price_kernel(spec, w, 1410.0, 1.0);
    const auto slow_mem = price_kernel(spec, w, 1410.0, 0.5);
    EXPECT_NEAR(slow_mem.memory_s / base.memory_s, 2.0, 1e-6);
}

TEST(KernelWorkScaling, ScalesExtensiveQuantities)
{
    KernelWork w = compute_heavy();
    w.launches = 4;
    const KernelWork s = scaled(w, 100.0);
    EXPECT_DOUBLE_EQ(s.flops, w.flops * 100.0);
    EXPECT_DOUBLE_EQ(s.dram_bytes, w.dram_bytes * 100.0);
    EXPECT_EQ(s.threads, w.threads * 100);
    EXPECT_EQ(s.launches, 40); // sqrt growth
    EXPECT_DOUBLE_EQ(s.gather_fraction, w.gather_fraction);
}

TEST(KernelWorkScaling, DownScaleKeepsAtLeastOneLaunch)
{
    KernelWork w = compute_heavy();
    w.launches = 1;
    const KernelWork s = scaled(w, 0.001);
    EXPECT_GE(s.launches, 1);
}

TEST(KernelWorkMerge, CombinesAndWeights)
{
    KernelWork a = compute_heavy(); // gather 0
    KernelWork b = compute_heavy();
    b.gather_fraction = 1.0;
    const double cost_a = a.flops + a.dram_bytes;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.flops, 2e12);
    EXPECT_EQ(a.launches, 2);
    // weights are equal -> gather averages to 0.5
    (void)cost_a;
    EXPECT_NEAR(a.gather_fraction, 0.5, 1e-9);
}

} // namespace
} // namespace gsph::gpusim
