#include "core/controller.hpp"

#include "nvmlsim/nvml.hpp"
#include "rocmsmi/rocm_smi.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

namespace gsph::core {
namespace {

/// The registry's count of applies skipped as redundant.
double skipped_calls()
{
    return telemetry::MetricsRegistry::global().value("controller.skipped.calls");
}

class ControllerFixture : public ::testing::Test {
protected:
    ControllerFixture()
        : dev0_(gpusim::a100_sxm4_80g(), 0),
          dev1_(gpusim::a100_sxm4_80g(), 1),
          binding_({&dev0_, &dev1_}, /*allow_user_clocks=*/true)
    {
    }

    gpusim::GpuDevice dev0_;
    gpusim::GpuDevice dev1_;
    nvmlsim::ScopedNvmlBinding binding_;
};

TEST_F(ControllerFixture, AppliesTableClockToRankDevice)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 2);
    ASSERT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kOk);
    EXPECT_DOUBLE_EQ(dev0_.application_clock_mhz(), 1005.0);
    EXPECT_DOUBLE_EQ(dev1_.application_clock_mhz(), 1410.0); // untouched

    ASSERT_EQ(ctl.apply(1, sph::SphFunction::kMomentumEnergy), ClockStatus::kOk);
    EXPECT_DOUBLE_EQ(dev1_.application_clock_mhz(), 1350.0);
}

TEST_F(ControllerFixture, DefaultBackendIsNvml)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    EXPECT_EQ(ctl.backend().name(), "nvml");
}

TEST_F(ControllerFixture, SkipsRedundantCalls)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    ctl.apply(0, sph::SphFunction::kXMass);            // 1005: set
    const long calls = ctl.backend_calls();
    const double skipped = skipped_calls();
    ctl.apply(0, sph::SphFunction::kEquationOfState);  // 1005: skipped
    ctl.apply(0, sph::SphFunction::kAVswitches);       // 1005: skipped
    EXPECT_EQ(ctl.backend_calls(), calls);
    EXPECT_EQ(skipped_calls(), skipped + 2.0);
    ctl.apply(0, sph::SphFunction::kMomentumEnergy);   // 1350: set
    EXPECT_EQ(ctl.backend_calls(), calls + 1);
}

TEST_F(ControllerFixture, PreservesMemoryClock)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    ctl.apply(0, sph::SphFunction::kXMass);
    EXPECT_DOUBLE_EQ(dev0_.memory_clock_mhz(), 1593.0); // Table I value kept
}

TEST_F(ControllerFixture, RestoreAllReturnsToDeviceDefault)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 2);
    ctl.apply(0, sph::SphFunction::kXMass);
    ctl.apply(1, sph::SphFunction::kXMass);
    ctl.restore_all();
    EXPECT_DOUBLE_EQ(dev0_.application_clock_mhz(), 1410.0);
    EXPECT_DOUBLE_EQ(dev1_.application_clock_mhz(), 1410.0);
}

TEST_F(ControllerFixture, RestoreSkipsUntouchedRanks)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 2);
    ctl.apply(0, sph::SphFunction::kXMass);
    const long before = ctl.backend_calls();
    ctl.restore_all(); // only rank 0 was touched
    EXPECT_EQ(ctl.backend_calls(), before + 1);
}

TEST_F(ControllerFixture, InvalidRankRejected)
{
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    EXPECT_EQ(ctl.apply(-1, sph::SphFunction::kXMass), ClockStatus::kInvalidArgument);
    EXPECT_EQ(ctl.apply(5, sph::SphFunction::kXMass), ClockStatus::kInvalidArgument);
}

TEST_F(ControllerFixture, PermissionDeniedPropagates)
{
    nvmlsim::set_user_clock_permission(false);
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    EXPECT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kPermissionDenied);
    nvmlsim::set_user_clock_permission(true);
    EXPECT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kOk);
}

TEST_F(ControllerFixture, FailedApplyDoesNotPoisonCache)
{
    // A denied call must not be recorded as "already set": once permission
    // arrives, the controller retries instead of skipping.
    nvmlsim::set_user_clock_permission(false);
    FrequencyController ctl(reference_a100_turbulence_table(), 1);
    const double skipped = skipped_calls();
    EXPECT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kPermissionDenied);
    nvmlsim::set_user_clock_permission(true);
    EXPECT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kOk);
    EXPECT_EQ(skipped_calls(), skipped);
    EXPECT_DOUBLE_EQ(dev0_.application_clock_mhz(), 1005.0);
}

TEST(Controller, ZeroRanksThrows)
{
    EXPECT_THROW(FrequencyController(FrequencyTable(1410.0), 0), std::invalid_argument);
}

// --- AMD path (the paper's future work): rocm_smi backend ------------------

class AmdControllerFixture : public ::testing::Test {
protected:
    AmdControllerFixture()
        : gcd0_(gpusim::mi250x_gcd(), 0),
          gcd1_(gpusim::mi250x_gcd(), 1),
          binding_({&gcd0_, &gcd1_}, /*allow_clock_writes=*/true)
    {
    }

    gpusim::GpuDevice gcd0_;
    gpusim::GpuDevice gcd1_;
    rocmsmi::ScopedRocmBinding binding_;
};

TEST_F(AmdControllerFixture, RocmBackendCapsViaFrequencyLevels)
{
    FrequencyTable table(1700.0);
    table.set(sph::SphFunction::kXMass, 1200.0);
    FrequencyController ctl(table, 2, make_rocm_clock_backend(2));
    EXPECT_EQ(ctl.backend().name(), "rocm-smi");

    ASSERT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kOk);
    // The cap is the highest enabled DPM level <= 1200 MHz.
    EXPECT_LE(gcd0_.application_clock_mhz(), 1200.0);
    EXPECT_GT(gcd0_.application_clock_mhz(), 1000.0);
    EXPECT_DOUBLE_EQ(gcd1_.application_clock_mhz(), 1700.0);
}

TEST_F(AmdControllerFixture, RocmRestoreUsesPerfAuto)
{
    FrequencyTable table(1700.0);
    table.set(sph::SphFunction::kXMass, 1000.0);
    FrequencyController ctl(table, 1, make_rocm_clock_backend(1));
    ctl.apply(0, sph::SphFunction::kXMass);
    ctl.restore_all();
    EXPECT_DOUBLE_EQ(gcd0_.application_clock_mhz(), 1700.0);
}

TEST_F(AmdControllerFixture, RocmPermissionDenied)
{
    rocmsmi::set_clock_write_permission(false);
    FrequencyTable table(1700.0);
    table.set(sph::SphFunction::kXMass, 1000.0);
    FrequencyController ctl(table, 1, make_rocm_clock_backend(1));
    EXPECT_EQ(ctl.apply(0, sph::SphFunction::kXMass), ClockStatus::kPermissionDenied);
    rocmsmi::set_clock_write_permission(true);
}

TEST(ClockBackend, VendorDispatch)
{
    // make_clock_backend wraps every vendor path in the resilient layer.
    EXPECT_EQ(make_clock_backend(gpusim::Vendor::kNvidia, 1)->name(), "resilient(nvml)");
    EXPECT_EQ(make_clock_backend(gpusim::Vendor::kAmd, 1)->name(), "resilient(rocm-smi)");
    EXPECT_EQ(make_clock_backend(gpusim::Vendor::kIntel, 1)->name(), "resilient(nvml)");
}

TEST(ClockBackend, StatusStrings)
{
    EXPECT_STREQ(to_string(ClockStatus::kOk), "ok");
    EXPECT_STREQ(to_string(ClockStatus::kPermissionDenied), "permission denied");
}

TEST(ClockBackend, ZeroRanksThrows)
{
    EXPECT_THROW(make_nvml_clock_backend(0), std::invalid_argument);
    EXPECT_THROW(make_rocm_clock_backend(0), std::invalid_argument);
}

} // namespace
} // namespace gsph::core
