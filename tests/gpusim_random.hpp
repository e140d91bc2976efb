#pragma once
/// \file gpusim_random.hpp
/// \brief Random kernel batches, the device catalog and the reference
/// power-cap walk, shared by the gpusim property tests.

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_work.hpp"
#include "gpusim/power_model.hpp"
#include "gpusim/roofline.hpp"
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

/// The descending walk GpuDevice::throttle_for_power made before it
/// bisected, kept as the reference: from the requested clock down the grid,
/// one probe per step, to the first clock whose busy power fits (or the
/// minimum clock).
inline double walk_reference(const GpuDeviceSpec& spec, const KernelWork& work,
                             double requested_mhz, double mem_scale, double limit_w,
                             bool governor_managed = false)
{
    const PowerModel pm(spec);
    double f = spec.quantize_clock(requested_mhz);
    while (f > spec.min_compute_mhz) {
        const KernelTiming t = price_kernel(spec, work, f, mem_scale);
        if (pm.busy_power(t, f, governor_managed).total_w <= limit_w) break;
        f = spec.quantize_clock(f - spec.clock_step_mhz);
    }
    return f;
}

} // namespace gsph::gpusim::test
