#include "sph/kernel.hpp"
#include "sph_scalar_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace gsph::sph {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Numerical radial integral of 4 pi r^2 W(r, h) over the support.
double kernel_volume_integral(const KernelTable& kern, double h)
{
    const int n = 20000;
    const double rmax = 2.0 * h;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const double r = (i + 0.5) * rmax / n;
        sum += 4.0 * kPi * r * r * kern.w(r, h) * (rmax / n);
    }
    return sum;
}

class KernelTypeTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(KernelTypeTest, NormalizedToUnity)
{
    const KernelTable kern(GetParam());
    for (double h : {0.1, 1.0, 3.5}) {
        EXPECT_NEAR(kernel_volume_integral(kern, h), 1.0, 2e-3) << "h=" << h;
    }
}

TEST_P(KernelTypeTest, CompactSupport)
{
    const KernelTable kern(GetParam());
    EXPECT_DOUBLE_EQ(kern.w(2.0001, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(kern.w(5.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(kern.dw_dr(2.5, 1.0), 0.0);
    EXPECT_GT(kern.w(1.9, 1.0), 0.0);
}

TEST_P(KernelTypeTest, PositiveInsideSupport)
{
    const KernelTable kern(GetParam());
    for (double q = 0.0; q < 2.0; q += 0.05) {
        EXPECT_GE(kern.w(q, 1.0), 0.0) << "q=" << q;
    }
}

TEST_P(KernelTypeTest, MonotoneDecreasing)
{
    const KernelTable kern(GetParam());
    double prev = kern.w(0.0, 1.0);
    for (double q = 0.05; q < 2.0; q += 0.05) {
        const double cur = kern.w(q, 1.0);
        EXPECT_LE(cur, prev + 1e-12) << "q=" << q;
        prev = cur;
    }
}

TEST_P(KernelTypeTest, DerivativeNonPositive)
{
    const KernelTable kern(GetParam());
    for (double q = 0.01; q < 2.0; q += 0.05) {
        EXPECT_LE(kern.dw_dr(q, 1.0), 1e-12) << "q=" << q;
    }
}

TEST_P(KernelTypeTest, TableMatchesAnalytic)
{
    const KernelTable kern(GetParam());
    auto analytic_w = GetParam() == KernelType::kCubicSpline ? cubic_spline_w : wendland_c2_w;
    auto analytic_d =
        GetParam() == KernelType::kCubicSpline ? cubic_spline_dw_dr : wendland_c2_dw_dr;
    for (double q : {0.13, 0.77, 1.21, 1.83}) {
        for (double h : {0.5, 2.0}) {
            EXPECT_NEAR(kern.w(q * h, h), analytic_w(q, h),
                        1e-4 * std::fabs(analytic_w(0.0, h)));
            EXPECT_NEAR(kern.dw_dr(q * h, h), analytic_d(q, h),
                        2e-4 * std::fabs(analytic_d(1.0, h)) + 1e-12);
        }
    }
}

TEST_P(KernelTypeTest, ScalingWithH)
{
    // W(0, h) ~ h^-3.
    const KernelTable kern(GetParam());
    EXPECT_NEAR(kern.w(0.0, 1.0) / kern.w(0.0, 2.0), 8.0, 1e-9);
}

TEST_P(KernelTypeTest, DwDhConsistentWithFiniteDifference)
{
    const KernelTable kern(GetParam());
    const double r = 0.8, h = 1.0, eps = 1e-5;
    const double fd = (kern.w(r, h + eps) - kern.w(r, h - eps)) / (2.0 * eps);
    EXPECT_NEAR(kern.dw_dh(r, h), fd, 5e-3 * std::fabs(fd) + 1e-6);
}

TEST_P(KernelTypeTest, LookupsMatchOutOfLineBodiesBitForBit)
{
    const KernelTable kern(GetParam());
    // The lookups as they were defined out of line in kernel.cpp.
    const test::ScalarKernel ref(GetParam());
    const double inf = std::numeric_limits<double>::infinity();
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    int checked = 0;
    for (double h : {1.0, 0.5, 0.37, 3.0, 1e-3, 0.0123456789}) {
        // q on every knot and halfway between, at ±0, at 2 and past it.
        std::vector<double> radii = {0.0, -0.0, 2.0 * h, std::nextafter(2.0 * h, inf),
                                     std::nextafter(2.0 * h, 0.0), 2.5 * h, 7.0 * h, 1e300};
        for (std::size_t k = 0; k <= KernelTable::kSize; ++k) {
            const double q = KernelTable::kQMax * static_cast<double>(k) /
                             static_cast<double>(KernelTable::kSize);
            radii.push_back(q * h);
            radii.push_back((q + 0.5 * KernelTable::kQMax / KernelTable::kSize) * h);
            radii.push_back(std::nextafter(q * h, inf));
        }
        for (double r : radii) {
            ASSERT_EQ(bits(kern.w(r, h)), bits(ref.w(r, h))) << "w r=" << r << " h=" << h;
            ASSERT_EQ(bits(kern.dw_dr(r, h)), bits(ref.dw_dr(r, h)))
                << "dw_dr r=" << r << " h=" << h;
            ASSERT_EQ(bits(kern.dw_dh(r, h)), bits(ref.dw_dh(r, h)))
                << "dw_dh r=" << r << " h=" << h;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 6 * (8 + 3 * (static_cast<int>(KernelTable::kSize) + 1)));

    // The tables at q itself, where the select clamps |q| to kQMax and masks
    // a negative q: both must read what the early return gave.
    const double q_max = KernelTable::kQMax;
    for (double q : {std::nextafter(q_max, 0.0), q_max, std::nextafter(q_max, inf), 1e300, inf,
                     0.0, -0.0, -1e-300, -1.0, -q_max, -7.0, -inf, 0.5, 1.0, 1.5}) {
        EXPECT_EQ(bits(kern.w_at(q)), bits(ref.w_at(q))) << "w_at q=" << q;
        EXPECT_EQ(bits(kern.dw_at(q)), bits(ref.dw_at(q))) << "dw_at q=" << q;
    }
    // The early return's reading of NaN was undefined; the select reads +0.0.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(bits(kern.w_at(nan)), bits(0.0));
    EXPECT_EQ(bits(kern.dw_at(nan)), bits(0.0));
}

INSTANTIATE_TEST_SUITE_P(BothKernels, KernelTypeTest,
                         ::testing::Values(KernelType::kCubicSpline,
                                           KernelType::kWendlandC2));

TEST(CubicSpline, KnownCentralValue)
{
    // W(0, h) = sigma / h^3 with sigma = 1/pi for the 3D cubic spline.
    EXPECT_NEAR(cubic_spline_w(0.0, 1.0), 1.0 / kPi, 1e-12);
}

TEST(WendlandC2, KnownCentralValue)
{
    EXPECT_NEAR(wendland_c2_w(0.0, 1.0), 21.0 / (16.0 * kPi), 1e-12);
}

TEST(DefaultKernel, IsCubicSplineSingleton)
{
    const KernelTable& a = default_kernel();
    const KernelTable& b = default_kernel();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.type(), KernelType::kCubicSpline);
}

} // namespace
} // namespace gsph::sph
