#include "gpusim/power_model.hpp"
#include "gpusim/roofline.hpp"
#include "gpusim_random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

namespace gsph::gpusim {
namespace {

KernelTiming full_activity()
{
    KernelTiming t;
    t.compute_activity = 1.0;
    t.memory_activity = 1.0;
    return t;
}

TEST(PowerModel, IdleAtMinClockNearSpecIdle)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    const auto p = pm.idle_power(spec.min_compute_mhz, false);
    EXPECT_NEAR(p.total_w, spec.idle_w, 0.5);
}

TEST(PowerModel, FullLoadNearTdp)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    const auto p = pm.busy_power(full_activity(), spec.max_compute_mhz, false);
    // A100 SXM4 TDP is 400 W; the model should land in that neighbourhood.
    EXPECT_GT(p.total_w, 350.0);
    EXPECT_LT(p.total_w, 450.0);
}

TEST(PowerModel, MonotoneInClock)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    double prev = 0.0;
    for (double f = 210.0; f <= 1410.0; f += 150.0) {
        const double p = pm.busy_power(full_activity(), f, false).total_w;
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(PowerModel, PricedKernelMonotoneInClock)
{
    // A priced kernel's compute activity rises as the clock falls, yet its
    // busy power must never fall as the clock rises: GpuDevice's power-cap
    // throttle bisects the clock grid on that.
    util::Rng rng(0x3013);
    for (const GpuDeviceSpec& spec : test::catalog_specs()) {
        const PowerModel pm(spec);
        const int top = spec.clock_index(spec.max_compute_mhz);
        for (int i = 0; i < 300; ++i) {
            const KernelWork work = test::random_kernel(rng);
            const double mem_scale = i % 3 == 0 ? 1.0 : rng.uniform(0.5, 1.5);
            for (const bool governed : {false, true}) {
                double prev = 0.0;
                for (int k = 0; k <= top; ++k) {
                    const double f = spec.clock_at(k);
                    const double p =
                        pm.busy_power(price_kernel(spec, work, f, mem_scale), f, governed)
                            .total_w;
                    ASSERT_GE(p, prev) << spec.name << " at " << f << " MHz, kernel " << i
                                       << (governed ? ", governed" : ", locked");
                    prev = p;
                }
            }
        }
    }
}

TEST(PowerModel, MonotoneInActivity)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    KernelTiming low;
    low.compute_activity = 0.2;
    low.memory_activity = 0.2;
    EXPECT_LT(pm.busy_power(low, 1410.0, false).total_w,
              pm.busy_power(full_activity(), 1410.0, false).total_w);
}

TEST(PowerModel, GuardBandRaisesDynamicPower)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    const double locked = pm.busy_power(full_activity(), 1410.0, false).total_w;
    const double governed = pm.busy_power(full_activity(), 1410.0, true).total_w;
    EXPECT_GT(governed, locked);
    // Guard band applies to dynamic SM terms only, not idle/memory.
    EXPECT_LT(governed, locked * (1.0 + spec.governor.voltage_guard));
}

TEST(PowerModel, BreakdownSumsToTotal)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    KernelTiming t;
    t.compute_activity = 0.7;
    t.memory_activity = 0.5;
    const auto p = pm.busy_power(t, 1200.0, false);
    EXPECT_NEAR(p.total_w, p.idle_w + p.sm_w + p.issue_w + p.mem_w, 1e-9);
}

TEST(PowerModel, MemoryPowerWeaklyClockDependent)
{
    // HBM power is in its own domain, but the core-domain L2/coalescer
    // share (~30%) follows the compute clock.
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    KernelTiming t;
    t.memory_activity = 1.0;
    const double hi = pm.busy_power(t, 1410.0, false).mem_w;
    const double lo = pm.busy_power(t, 1005.0, false).mem_w;
    EXPECT_LT(lo, hi);
    EXPECT_GT(lo, 0.70 * hi); // most of it stays clock-independent
}

/// Property sweep: the paper's "limited energy reduction" behaviour demands
/// power at 1005 MHz between 55% and 85% of power at 1410 MHz for busy
/// kernels across activity mixes.
class PowerRatioSweep : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PowerRatioSweep, Band)
{
    const auto [act_c, act_m] = GetParam();
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    KernelTiming t;
    t.compute_activity = act_c;
    t.memory_activity = act_m;
    const double hi = pm.busy_power(t, 1410.0, false).total_w;
    const double lo = pm.busy_power(t, 1005.0, false).total_w;
    EXPECT_GT(lo / hi, 0.55);
    EXPECT_LT(lo / hi, 0.92);
}

INSTANTIATE_TEST_SUITE_P(ActivityMixes, PowerRatioSweep,
                         ::testing::Values(std::pair{1.0, 0.3}, std::pair{0.8, 0.8},
                                           std::pair{0.3, 1.0}, std::pair{0.5, 0.5},
                                           std::pair{1.0, 1.0}));

TEST(PowerModel, IdleGrowsWithParkedClock)
{
    const auto spec = a100_sxm4_80g();
    const PowerModel pm(spec);
    EXPECT_GT(pm.idle_power(1410.0, false).total_w,
              pm.idle_power(210.0, false).total_w);
}

} // namespace
} // namespace gsph::gpusim
