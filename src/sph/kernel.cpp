#include "sph/kernel.hpp"

#include <cmath>

namespace gsph::sph {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kCubicSigma = 1.0 / kPi;            ///< 3D cubic B-spline norm
constexpr double kWendlandSigma = 21.0 / (16.0 * kPi); ///< 3D Wendland C2 norm
} // namespace

double cubic_spline_w(double q, double h)
{
    if (q < 0.0 || q >= 2.0) return 0.0;
    const double norm = kCubicSigma / (h * h * h);
    if (q < 1.0) {
        return norm * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
    }
    const double t = 2.0 - q;
    return norm * 0.25 * t * t * t;
}

double cubic_spline_dw_dr(double q, double h)
{
    if (q <= 0.0 || q >= 2.0) return 0.0;
    const double norm = kCubicSigma / (h * h * h * h);
    if (q < 1.0) {
        return norm * (-3.0 * q + 2.25 * q * q);
    }
    const double t = 2.0 - q;
    return norm * (-0.75 * t * t);
}

double wendland_c2_w(double q, double h)
{
    if (q < 0.0 || q >= 2.0) return 0.0;
    const double norm = kWendlandSigma / (h * h * h);
    const double t = 1.0 - 0.5 * q;
    const double t2 = t * t;
    return norm * t2 * t2 * (2.0 * q + 1.0);
}

double wendland_c2_dw_dr(double q, double h)
{
    if (q <= 0.0 || q >= 2.0) return 0.0;
    const double norm = kWendlandSigma / (h * h * h * h);
    const double t = 1.0 - 0.5 * q;
    // d/dq [ t^4 (2q+1) ] = -2 t^3 (2q+1) + 2 t^4 = -5 q t^3
    return norm * (-5.0 * q * t * t * t);
}

KernelTable::KernelTable(KernelType type) : type_(type)
{
    for (std::size_t i = 0; i <= kSize; ++i) {
        const double q = kQMax * static_cast<double>(i) / static_cast<double>(kSize);
        // Tables store the h-independent part: h^3 W and h^4 dW/dr.
        if (type_ == KernelType::kCubicSpline) {
            w_table_[i] = cubic_spline_w(q, 1.0);
            dw_table_[i] = cubic_spline_dw_dr(q, 1.0);
        }
        else {
            w_table_[i] = wendland_c2_w(q, 1.0);
            dw_table_[i] = wendland_c2_dw_dr(q, 1.0);
        }
    }
    // Zero at q = kQMax; the padding entry past it stays zero.
    w_table_[kSize] = 0.0;
    dw_table_[kSize] = 0.0;
}

const KernelTable& default_kernel()
{
    static const KernelTable table(KernelType::kCubicSpline);
    return table;
}

} // namespace gsph::sph
