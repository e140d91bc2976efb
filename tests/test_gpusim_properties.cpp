/// Property-style sweeps over the full supported clock band: invariants the
/// whole energy analysis rests on.

#include "gpusim/device.hpp"

#include <gtest/gtest.h>

namespace gsph::gpusim {
namespace {

KernelWork mixed_kernel()
{
    KernelWork w;
    w.flops = 2e11;
    w.dram_bytes = 3.5e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.6;
    w.threads = 90'000'000;
    return w;
}

class ClockSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClockSweep, TimeNonIncreasingInClock)
{
    const double f = GetParam();
    const auto spec = a100_sxm4_80g();
    const auto w = mixed_kernel();
    const auto at_f = price_kernel(spec, w, f);
    const auto at_next = price_kernel(spec, w, std::min(f + 105.0, 1410.0));
    EXPECT_GE(at_f.total_s, at_next.total_s - 1e-15);
}

TEST_P(ClockSweep, EnergyPerKernelNonDecreasingInClock)
{
    // E(f) = P(f) * t(f): with the calibrated voltage curve, higher clocks
    // never save energy for a fixed kernel (the basis of Fig. 8(b)).
    const double f = GetParam();
    const auto w = mixed_kernel();
    auto energy_at = [&w](double clock) {
        GpuDevice dev(a100_sxm4_80g());
        dev.set_application_clocks(1593.0, clock);
        return dev.execute(w).energy_j;
    };
    EXPECT_LE(energy_at(f), energy_at(std::min(f + 105.0, 1410.0)) * (1.0 + 1e-12));
}

TEST_P(ClockSweep, PowerWithinPhysicalEnvelope)
{
    const double f = GetParam();
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, f);
    const auto r = dev.execute(mixed_kernel());
    EXPECT_GT(r.mean_power_w, dev.spec().idle_w * 0.5);
    EXPECT_LT(r.mean_power_w, 450.0); // never beyond the board envelope
}

TEST_P(ClockSweep, DeterministicAcrossInstances)
{
    const double f = GetParam();
    GpuDevice a(a100_sxm4_80g()), b(a100_sxm4_80g());
    a.set_application_clocks(1593.0, f);
    b.set_application_clocks(1593.0, f);
    const auto ra = a.execute(mixed_kernel());
    const auto rb = b.execute(mixed_kernel());
    EXPECT_DOUBLE_EQ(ra.energy_j, rb.energy_j);
    EXPECT_DOUBLE_EQ(ra.timing.total_s, rb.timing.total_s);
}

INSTANTIATE_TEST_SUITE_P(PaperBand, ClockSweep,
                         ::testing::Values(1005.0, 1110.0, 1215.0, 1320.0, 1410.0));

class DeviceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DeviceSweep, EveryCatalogDeviceExecutesAndIdles)
{
    GpuDevice dev(spec_by_name(GetParam()));
    const auto r = dev.execute(mixed_kernel());
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_GT(r.timing.total_s, 0.0);
    dev.idle(1.0);
    EXPECT_GT(dev.energy_j(), r.energy_j);
}

TEST_P(DeviceSweep, GovernorModeWorksOnEveryDevice)
{
    GpuDevice dev(spec_by_name(GetParam()));
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    const auto r = dev.execute(mixed_kernel());
    EXPECT_GT(r.mean_clock_mhz, dev.spec().min_compute_mhz);
    EXPECT_LE(r.mean_clock_mhz, dev.spec().max_compute_mhz);
}

TEST_P(DeviceSweep, EdpSweetSpotInsideClockRange)
{
    const auto spec = spec_by_name(GetParam());
    const auto w = mixed_kernel();
    double best_f = 0.0;
    double best_edp = 1e300;
    for (double frac = 0.7; frac <= 1.0; frac += 0.05) {
        const double f = spec.quantize_clock(frac * spec.max_compute_mhz);
        GpuDevice dev(spec);
        dev.set_application_clocks(spec.memory_clock_mhz, f);
        const auto r = dev.execute(w);
        const double edp = r.energy_j * r.timing.total_s;
        if (edp < best_edp) {
            best_edp = edp;
            best_f = f;
        }
    }
    EXPECT_GE(best_f, spec.min_compute_mhz);
    EXPECT_LE(best_f, spec.max_compute_mhz);
}

INSTANTIATE_TEST_SUITE_P(Catalog, DeviceSweep,
                         ::testing::Values("a100-sxm4-80g", "a100-pcie-40g", "mi250x-gcd",
                                           "intel-max-1550"));

} // namespace
} // namespace gsph::gpusim
