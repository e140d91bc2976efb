#pragma once
/// \file device_spec.hpp
/// \brief Static description of a simulated GPU (or GPU complex die).
///
/// Specs are calibrated against public data sheets (peak throughput,
/// bandwidth, TDP, clock ranges) for the three devices used in the paper:
/// NVIDIA A100-SXM4-80GB (CSCS-A100 nodes), NVIDIA A100-PCIE-40GB (miniHPC)
/// and one GCD of an AMD MI250X (LUMI-G).  Where the paper depends on
/// microarchitectural behaviour that a spec sheet does not give (voltage
/// curve, gather efficiency), the values are calibration parameters chosen
/// so the paper's measured *shapes* reproduce; each such knob is documented
/// at its declaration.

#include <string>
#include <vector>

namespace gsph::gpusim {

enum class Vendor { kNvidia, kAmd, kIntel };

/// DVFS governor tuning block (see dvfs_governor.hpp for semantics).
struct GovernorSpec {
    double tick_s = 0.010;           ///< governor decision quantum (10 ms)
    double up_rate_mhz_per_s = 60000; ///< max clock ramp-up slew
    double down_rate_mhz_per_s = 20000; ///< max clock decay slew
    double boost_floor_mhz = 1230;   ///< instant floor applied on kernel launch
    double active_floor_mhz = 930;   ///< target floor while a kernel runs
    double idle_target_mhz = 600;    ///< decay target with no work
    double util_shape = 0.5;         ///< target = floor + util^shape * span
    /// Auto-boost voltage guard band: relative extra dynamic power the
    /// governor-managed P-states pay compared to locked application clocks
    /// at the same frequency.  This reproduces the paper's Fig. 7 finding
    /// that native DVFS costs *more* energy than the locked-1410 baseline.
    double voltage_guard = 0.08;
};

struct GpuDeviceSpec {
    std::string name;
    Vendor vendor = Vendor::kNvidia;

    // --- clocks (MHz, NVML convention) ---
    double max_compute_mhz = 1410;
    double min_compute_mhz = 210;
    /// Supported clocks are min_compute_mhz + k * clock_step_mhz, capped at
    /// max_compute_mhz (see clock_at); validate() accepts at most 65,536.
    double clock_step_mhz = 15;
    double default_app_clock_mhz = 1410; ///< Table I "GPU compute frequency"
    double memory_clock_mhz = 1593;

    // --- compute & memory throughput at max clock ---
    double peak_fp64_flops = 9.7e12;  ///< vector FP64 at max_compute_mhz
    double dram_bw_bytes = 2.039e12;  ///< peak DRAM bandwidth
    /// Achievable fraction of peak bandwidth for streaming accesses.
    double stream_bw_eff = 0.85;
    /// Achievable fraction of peak bandwidth for neighbour-list gathers.
    /// Calibration knob: NVIDIA ~0.55, AMD CDNA2 ~0.30 — the paper's Fig. 5
    /// cross-system MomentumEnergy gap pins the ratio.
    double gather_bw_eff = 0.55;
    /// L2-miss traffic amplification for scattered accesses: effective DRAM
    /// bytes grow by (1 + amplification * gather_fraction).  Zero on the
    /// A100 models (40 MB L2 holds the neighbourhood working set); large on
    /// the MI250X GCD model (8 MB L2), which is what blows MomentumEnergy up
    /// to ~46% of GPU energy on LUMI-G (paper Fig. 5).
    double gather_amplification = 0.0;
    /// Occupancy saturation: achievable bandwidth and compute throughput
    /// ramp as threads/(threads + n_sat) style factors; below this thread
    /// count the device is latency-limited and *insensitive to clock*,
    /// which is what shifts the EDP sweet spot down for small problems
    /// (paper Fig. 6, 200^3 case).
    double bw_saturation_threads = 32e6;
    double compute_saturation_threads = 4e6;

    // --- kernel launch ---
    double launch_overhead_s = 6e-6; ///< host-driven, clock-insensitive

    /// Fraction of min(t_compute, t_memory) hidden by overlap; 1 = perfect
    /// roofline max(), 0 = fully serialized.
    double overlap_efficiency = 0.85;

    // --- power model ---
    double idle_w = 55.0;        ///< P-state floor with clocks at idle
    double sm_dynamic_w = 240.0; ///< SM math pipes at full activity, max clock
    double issue_w = 50.0;       ///< fetch/issue/L2 base cost while busy
    double mem_dynamic_w = 70.0; ///< HBM + controller at full bandwidth
    /// Normalized voltage curve V(f)/V(fmax) = v0 + v_slope * (f/fmax);
    /// dynamic power scales as (f/fmax) * (V/Vmax)^2.  v0+v_slope must be 1.
    double v0 = 0.55;
    double v_slope = 0.45;
    /// Energy cost of one clock/voltage transition (PLL relock, load step).
    double transition_energy_j = 2e-3;

    GovernorSpec governor;

    // --- derived helpers ---
    double flops_per_cycle() const; ///< peak_fp64_flops / max clock (Hz)
    /// Quantize a clock request to the supported grid, clamped to range:
    /// clock_at(clock_index(mhz)).
    double quantize_clock(double mhz) const;
    /// Grid index of quantize_clock(mhz): its number of steps above the
    /// minimum clock.  Like quantize_clock, it needs a spec that passes
    /// validate() and a clock that is not NaN.
    int clock_index(double mhz) const;
    /// Grid clock `k` steps above the minimum, capped at the maximum clock.
    double clock_at(int k) const;
    /// Supported compute clocks, descending (NVML enumeration order): the
    /// grid clock_at(k) for k = clock_index(max_compute_mhz) down to 0, so
    /// quantize_clock returns each of them unchanged.
    std::vector<double> supported_clocks() const;
    /// Relative dynamic-power factor at clock f vs max clock: f̂ (V(f̂)/V(1))².
    double dynamic_power_factor(double mhz) const;

    /// Basic invariant checks; throws std::invalid_argument on violation.
    void validate() const;
};

/// Device catalog -------------------------------------------------------

/// NVIDIA A100-SXM4-80GB as in the CSCS-A100 system (Table I).
GpuDeviceSpec a100_sxm4_80g();
/// NVIDIA A100-PCIE-40GB as in miniHPC (Table I): lower TDP, same clocks.
GpuDeviceSpec a100_pcie_40g();
/// One GCD (half card) of an AMD MI250X as in LUMI-G (Table I).
GpuDeviceSpec mi250x_gcd();
/// Intel Data Center GPU Max 1550-class device (the paper's future-work
/// target; spec-sheet calibrated, no per-kernel tuning data yet).
GpuDeviceSpec intel_max_1550();

/// Lookup by name ("a100-sxm4-80g", "a100-pcie-40g", "mi250x-gcd");
/// throws std::invalid_argument for unknown names.
GpuDeviceSpec spec_by_name(const std::string& name);

} // namespace gsph::gpusim
