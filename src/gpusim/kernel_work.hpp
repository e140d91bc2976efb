#pragma once
/// \file kernel_work.hpp
/// \brief Description of the work a GPU kernel (or batch of kernels)
/// submits to a simulated device.
///
/// SPH functions report *measured* operation counts (derived from actual
/// loop trip counts and neighbour statistics of the running simulation) via
/// this struct; the device prices the work at its current clock.  This is
/// the coupling point between the real physics and the device model, see
/// DESIGN.md "Operation-count coupling".

#include <cstdint>
#include <type_traits>

namespace gsph::gpusim {

/// Plain numbers only: the replay loop copies one per rank-kernel
/// (gpusim::scaled), so it must stay trivially copyable.  Which function a
/// batch belongs to is the caller's record (sim::FunctionRecord::fn).
struct KernelWork {
    double flops = 0.0;      ///< floating-point operations (FP64-equivalent)
    double dram_bytes = 0.0; ///< bytes moved to/from device memory
    /// Fraction of the DRAM traffic that is scattered (gather/scatter through
    /// neighbour lists) rather than streaming; scattered traffic achieves a
    /// lower fraction of peak bandwidth, and by a larger margin on the AMD
    /// CDNA2 model (this is what makes MomentumEnergy 45.8% of GPU energy on
    /// LUMI-G vs 25.3% on CSCS-A100 in the paper's Fig. 5).
    double gather_fraction = 0.0;
    /// Fraction of peak FP throughput this kernel's instruction mix can
    /// reach (FMA density, divergence); typical SPH pair-interaction loops
    /// reach 0.4-0.6, bookkeeping kernels much less.
    double flop_efficiency = 0.5;

    std::int64_t launches = 1;  ///< number of kernel launches in this batch
    std::int64_t threads = 0;   ///< total threads (== particles for SPH maps)

    /// Merge another work item into this one (used to aggregate per-launch
    /// batches); efficiencies are combined weighted by their cost share.
    void merge(const KernelWork& other);
};

/// Scale all extensive quantities (flops, bytes, launches, threads) by `s`.
/// Used by the paper-scale extrapolation: per-particle work densities are
/// measured on a small real simulation and scaled to the paper's particle
/// counts.  Launches scale sub-linearly (they depend on grid size, not N).
KernelWork scaled(const KernelWork& work, double s);

static_assert(std::is_trivially_copyable_v<KernelWork>);

} // namespace gsph::gpusim
