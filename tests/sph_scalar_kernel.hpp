#pragma once
/// \file sph_scalar_kernel.hpp
/// \brief KernelTable's lookups as they were defined out of line in
/// kernel.cpp, with a branch that returns 0 outside [0, kQMax), over tables
/// built the same way: the bit-for-bit reference of the kernel and pair-loop
/// tests.

#include "sph/kernel.hpp"

#include <array>
#include <cstddef>

namespace gsph::sph::test {

class ScalarKernel {
public:
    explicit ScalarKernel(KernelType type)
    {
        for (std::size_t i = 0; i <= kSize; ++i) {
            const double q = kQMax * static_cast<double>(i) / static_cast<double>(kSize);
            if (type == KernelType::kCubicSpline) {
                w_table_[i] = cubic_spline_w(q, 1.0);
                dw_table_[i] = cubic_spline_dw_dr(q, 1.0);
            }
            else {
                w_table_[i] = wendland_c2_w(q, 1.0);
                dw_table_[i] = wendland_c2_dw_dr(q, 1.0);
            }
        }
        w_table_[kSize] = 0.0;
        dw_table_[kSize] = 0.0;
    }

    double w(double r, double h) const
    {
        const double q = r / h;
        return lookup(w_table_, q) / (h * h * h);
    }
    double dw_dr(double r, double h) const
    {
        const double q = r / h;
        return lookup(dw_table_, q) / (h * h * h * h);
    }
    double dw_dh(double r, double h) const
    {
        const double q = r / h;
        const double w_val = w(r, h);
        const double dw_dq = lookup(dw_table_, q) / (h * h * h);
        return -(3.0 * w_val + q * dw_dq) / h;
    }
    /// The table reads at q; undefined for NaN.
    double w_at(double q) const { return lookup(w_table_, q); }
    double dw_at(double q) const { return lookup(dw_table_, q); }

private:
    static constexpr std::size_t kSize = KernelTable::kSize;
    static constexpr double kQMax = KernelTable::kQMax;

    static double lookup(const std::array<double, kSize + 1>& table, double q)
    {
        if (q < 0.0 || q >= kQMax) return 0.0;
        const double pos = q / kQMax * static_cast<double>(kSize);
        const std::size_t i = static_cast<std::size_t>(pos);
        const double frac = pos - static_cast<double>(i);
        return table[i] * (1.0 - frac) + table[i + 1] * frac;
    }

    std::array<double, kSize + 1> w_table_{};
    std::array<double, kSize + 1> dw_table_{};
};

} // namespace gsph::sph::test
