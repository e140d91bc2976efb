#pragma once
/// \file kernel.hpp
/// \brief Smoothing kernels (cubic B-spline, Wendland C2) with lookup
/// tables, following SPH-EXA's table-based kernel evaluation.
///
/// Conventions: support radius is 2h, q = r/h in [0, 2].  W integrates to 1
/// over R^3.  dW/dr = (1/h) * dW/dq evaluated via the derivative table.

#include <array>
#include <cmath>
#include <cstddef>

namespace gsph::sph {

enum class KernelType { kCubicSpline, kWendlandC2 };

/// Analytic cubic B-spline kernel value, normalized for 3D (sigma = 1/pi).
double cubic_spline_w(double q, double h);
/// Analytic cubic B-spline dW/dq / h^4 prefactored derivative: returns
/// dW/dr at separation r = q*h.
double cubic_spline_dw_dr(double q, double h);

/// Analytic Wendland C2 kernel (3D normalization 21/(16 pi), support 2h).
double wendland_c2_w(double q, double h);
double wendland_c2_dw_dr(double q, double h);

/// Tabulated kernel with linear interpolation; amortizes transcendental
/// costs the way the production code does.
class KernelTable {
public:
    static constexpr std::size_t kSize = 1024;
    static constexpr double kQMax = 2.0;

    explicit KernelTable(KernelType type = KernelType::kCubicSpline);

    KernelType type() const { return type_; }

    // The lookups are defined here so the pair loops inline them.

    /// W(r, h); zero outside the support radius 2h.
    double w(double r, double h) const
    {
        const double q = r / h;
        return w_at(q) / (h * h * h);
    }
    /// dW/dr (r, h); zero outside support (and at r = 0 by symmetry).
    double dw_dr(double r, double h) const
    {
        const double q = r / h;
        return dw_at(q) / (h * h * h * h);
    }
    /// dW/dh (r, h) for gradh correction terms:
    /// dW/dh = -(3 W + q dW/dq)/h for any 3D kernel of the form h^-3 f(q).
    double dw_dh(double r, double h) const
    {
        const double q = r / h;
        // W = h^-3 f(q), q = r/h  =>  dW/dh = -(3 W + q * dW/dq)/h, and
        // dW/dq = h * dW/dr.
        const double w_val = w(r, h);
        const double dw_dq = dw_at(q) / (h * h * h);
        return -(3.0 * w_val + q * dw_dq) / h;
    }

    /// The tables at q: h^3 W and h^4 dW/dr, +0.0 for q outside [0, kQMax)
    /// and for NaN.
    double w_at(double q) const { return lookup(w_table_, q); }
    double dw_at(double q) const { return lookup(dw_table_, q); }

private:
    /// One entry past the q = kQMax knot, so the clamped q reads two zeros.
    using Table = std::array<double, kSize + 2>;

    static double lookup(const Table& table, double q)
    {
        // No branch, so the pair loops' element-wise passes vectorize.  A
        // select clamps |q| to kQMax, where pos = kSize and frac = 0: |q| >=
        // kQMax and NaN read table[kSize] * 1 + table[kSize + 1] * 0 = +0.0.
        // A negative q is masked to +0.0 (v is never -0.0, so v * 1 + 0.0 is
        // v and v * 0 + 0.0 is +0.0); -0.0 reads what +0.0 does.  The index
        // is an int because SSE2 converts doubles to 32-bit integers in
        // vector lanes but not to 64-bit ones.
        const double a = std::fabs(q);
        const double qc = a < kQMax ? a : kQMax;
        const double pos = qc / kQMax * static_cast<double>(kSize);
        const int i = static_cast<int>(pos);
        const double frac = pos - static_cast<double>(i);
        const double v = table[static_cast<std::size_t>(i)] * (1.0 - frac) +
                         table[static_cast<std::size_t>(i) + 1] * frac;
        return v * static_cast<double>(q >= 0.0) + 0.0;
    }

    KernelType type_;
    Table w_table_{};  ///< h^3 * W at q; zero at and past kQMax
    Table dw_table_{}; ///< h^4 * dW/dr at q; zero at and past kQMax
};

/// Process-wide shared table for the default kernel (construction is cheap
/// but doing it once keeps hot loops clean).
const KernelTable& default_kernel();

} // namespace gsph::sph
