#include "gpusim/device_spec.hpp"
#include "gpusim_random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace gsph::gpusim {
namespace {

TEST(DeviceSpec, CatalogEntriesValidate)
{
    EXPECT_NO_THROW(a100_sxm4_80g().validate());
    EXPECT_NO_THROW(a100_pcie_40g().validate());
    EXPECT_NO_THROW(mi250x_gcd().validate());
}

TEST(DeviceSpec, TableOneClocks)
{
    // Table I of the paper.
    EXPECT_DOUBLE_EQ(a100_sxm4_80g().default_app_clock_mhz, 1410.0);
    EXPECT_DOUBLE_EQ(a100_sxm4_80g().memory_clock_mhz, 1593.0);
    EXPECT_DOUBLE_EQ(mi250x_gcd().default_app_clock_mhz, 1700.0);
    EXPECT_DOUBLE_EQ(mi250x_gcd().memory_clock_mhz, 1600.0);
}

TEST(DeviceSpec, LookupByName)
{
    EXPECT_EQ(spec_by_name("A100-SXM4-80G").name, "a100-sxm4-80g");
    EXPECT_EQ(spec_by_name("mi250x-gcd").vendor, Vendor::kAmd);
    EXPECT_THROW(spec_by_name("h100"), std::invalid_argument);
}

TEST(DeviceSpec, QuantizeClampsToRange)
{
    const auto spec = a100_sxm4_80g();
    EXPECT_DOUBLE_EQ(spec.quantize_clock(5000.0), 1410.0);
    EXPECT_DOUBLE_EQ(spec.quantize_clock(-10.0), 210.0);
}

TEST(DeviceSpec, QuantizeSnapsToGrid)
{
    const auto spec = a100_sxm4_80g(); // grid: 210 + k*15
    EXPECT_DOUBLE_EQ(spec.quantize_clock(1005.0), 1005.0);
    EXPECT_DOUBLE_EQ(spec.quantize_clock(1009.0), 1005.0);
    EXPECT_DOUBLE_EQ(spec.quantize_clock(1013.0), 1020.0);
}

TEST(DeviceSpec, SupportedClocksDescendingAndOnGrid)
{
    const auto spec = a100_sxm4_80g();
    const auto clocks = spec.supported_clocks();
    ASSERT_FALSE(clocks.empty());
    EXPECT_DOUBLE_EQ(clocks.front(), 1410.0);
    EXPECT_DOUBLE_EQ(clocks.back(), 210.0);
    for (std::size_t i = 1; i < clocks.size(); ++i) {
        EXPECT_DOUBLE_EQ(clocks[i - 1] - clocks[i], 15.0);
    }
}

TEST(DeviceSpec, CatalogSupportedClocksCountDownFromMax)
{
    // The catalog ranges are whole numbers of steps, so the grid is the
    // NVML-style countdown from the maximum clock.
    for (const GpuDeviceSpec& spec : test::catalog_specs()) {
        std::vector<double> countdown;
        for (double f = spec.max_compute_mhz; f >= spec.min_compute_mhz - 1e-9;
             f -= spec.clock_step_mhz) {
            countdown.push_back(f);
        }
        EXPECT_EQ(spec.supported_clocks(), countdown) << spec.name;
    }
}

TEST(DeviceSpec, SupportedClocksAreTheQuantizeGrid)
{
    // 1210 MHz is 80.67 steps of 15: quantize_clock counts up from the
    // minimum (200, 215, ..., 1400) and caps at 1410.  Every advertised clock
    // must be one a request for it locks, and every clock quantize_clock
    // returns must be advertised.
    GpuDeviceSpec spec = a100_sxm4_80g();
    spec.min_compute_mhz = 200.0;
    const std::vector<double> clocks = spec.supported_clocks();
    ASSERT_EQ(clocks.size(), 82u);
    EXPECT_EQ(clocks[0], 1410.0);
    EXPECT_EQ(clocks[1], 1400.0);
    EXPECT_EQ(clocks[2], 1385.0);
    EXPECT_EQ(clocks.back(), 200.0);
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        EXPECT_EQ(spec.quantize_clock(clocks[i]), clocks[i]) << clocks[i];
    }
    EXPECT_TRUE(std::is_sorted(clocks.rbegin(), clocks.rend()));
    for (double f = 150.0; f <= 1460.0; f += 0.25) {
        const double q = spec.quantize_clock(f);
        EXPECT_NE(std::find(clocks.begin(), clocks.end(), q), clocks.end()) << f;
    }
}

TEST(DeviceSpec, ValidationBoundsTheClockGrid)
{
    // A step below the clocks' resolution (f - step == f) made an unbounded
    // grid; 65,536 clocks is the most validate() accepts.
    GpuDeviceSpec spec = a100_sxm4_80g();
    spec.clock_step_mhz = 1e-13;
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    spec.clock_step_mhz = 1.0 / 64.0;
    spec.max_compute_mhz = spec.min_compute_mhz + 65535 * spec.clock_step_mhz;
    spec.default_app_clock_mhz = spec.max_compute_mhz;
    EXPECT_NO_THROW(spec.validate());
    EXPECT_EQ(spec.supported_clocks().size(), 65536u);
    spec.max_compute_mhz += spec.clock_step_mhz;
    spec.default_app_clock_mhz = spec.max_compute_mhz;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(DeviceSpec, DynamicPowerFactorBounds)
{
    const auto spec = a100_sxm4_80g();
    EXPECT_DOUBLE_EQ(spec.dynamic_power_factor(spec.max_compute_mhz), 1.0);
    EXPECT_GT(spec.dynamic_power_factor(1005.0), 0.0);
    EXPECT_LT(spec.dynamic_power_factor(1005.0), 1.0);
}

TEST(DeviceSpec, DynamicPowerEffectiveExponentInBand)
{
    // Over the paper's sweep band the effective exponent should be well
    // above linear (voltage scaling) but below cubic (bounded V range).
    const auto spec = a100_sxm4_80g();
    const double r = spec.dynamic_power_factor(1005.0);
    const double fhat = 1005.0 / 1410.0;
    const double exponent = std::log(r) / std::log(fhat);
    EXPECT_GT(exponent, 1.3);
    EXPECT_LT(exponent, 2.5);
}

TEST(DeviceSpec, ValidationCatchesBadValues)
{
    auto spec = a100_sxm4_80g();
    spec.v0 = 0.6; // v0 + v_slope != 1
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    spec = a100_sxm4_80g();
    spec.min_compute_mhz = 2000.0;
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    spec = a100_sxm4_80g();
    spec.stream_bw_eff = 1.5;
    EXPECT_THROW(spec.validate(), std::invalid_argument);

    spec = a100_sxm4_80g();
    spec.name.clear();
    EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(DeviceSpec, FlopsPerCycleConsistent)
{
    const auto spec = a100_sxm4_80g();
    EXPECT_NEAR(spec.flops_per_cycle() * 1.41e9, spec.peak_fp64_flops, 1.0);
}

TEST(DeviceSpec, AmdGatherEfficiencyBelowNvidia)
{
    // The calibration knob behind the paper's Fig. 5 cross-system gap.
    EXPECT_LT(mi250x_gcd().gather_bw_eff, a100_sxm4_80g().gather_bw_eff);
}

} // namespace
} // namespace gsph::gpusim
