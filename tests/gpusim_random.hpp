#pragma once
/// \file gpusim_random.hpp
/// \brief Random kernel batches and the device catalog, shared by the
/// gpusim property tests.

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_work.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

namespace gsph::gpusim::test {

/// Every spec in the device catalog.
inline std::vector<GpuDeviceSpec> catalog_specs()
{
    return {a100_sxm4_80g(), a100_pcie_40g(), mi250x_gcd(), intel_max_1550()};
}

/// A kernel batch anywhere between compute- and memory-bound, under- or
/// fully occupied; about one in ten has zero flops, zero bytes or an unknown
/// thread count, and launches run from 0 to 500.
inline KernelWork random_kernel(util::Rng& rng)
{
    const auto log_uniform = [&rng](double lo, double hi) {
        return std::exp(rng.uniform(std::log(lo), std::log(hi)));
    };
    KernelWork w;
    w.flops = rng.uniform() < 0.1 ? 0.0 : log_uniform(1e6, 1e13);
    w.dram_bytes = rng.uniform() < 0.1 ? 0.0 : log_uniform(1e5, 1e12);
    w.gather_fraction = rng.uniform();
    w.flop_efficiency = rng.uniform(0.05, 1.0);
    w.launches = static_cast<std::int64_t>(rng.uniform_index(501));
    w.threads = rng.uniform() < 0.1 ? 0 : static_cast<std::int64_t>(log_uniform(1e3, 2e8));
    return w;
}

} // namespace gsph::gpusim::test
