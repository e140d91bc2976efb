#include "gpusim/device_spec.hpp"

#include "util/strings.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsph::gpusim {

namespace {

/// Largest clock grid validate() accepts.
constexpr double kMaxClocks = 65536;

} // namespace

double GpuDeviceSpec::flops_per_cycle() const
{
    return peak_fp64_flops / units::mhz_to_hz(max_compute_mhz);
}

double GpuDeviceSpec::quantize_clock(double mhz) const
{
    return clock_at(clock_index(mhz));
}

int GpuDeviceSpec::clock_index(double mhz) const
{
    const double clamped = std::clamp(mhz, min_compute_mhz, max_compute_mhz);
    return static_cast<int>(std::round((clamped - min_compute_mhz) / clock_step_mhz));
}

double GpuDeviceSpec::clock_at(int k) const
{
    return std::min(max_compute_mhz, min_compute_mhz + k * clock_step_mhz);
}

std::vector<double> GpuDeviceSpec::supported_clocks() const
{
    std::vector<double> clocks;
    for (int k = clock_index(max_compute_mhz); k >= 0; --k) {
        clocks.push_back(clock_at(k));
    }
    return clocks;
}

double GpuDeviceSpec::dynamic_power_factor(double mhz) const
{
    const double fhat = std::clamp(mhz / max_compute_mhz, 0.0, 1.0);
    const double v = v0 + v_slope * fhat;
    return fhat * v * v;
}

void GpuDeviceSpec::validate() const
{
    auto fail = [this](const char* what) {
        throw std::invalid_argument("GpuDeviceSpec '" + name + "': " + what);
    };
    if (name.empty()) fail("empty name");
    if (min_compute_mhz <= 0 || max_compute_mhz <= min_compute_mhz) fail("bad clock range");
    if (clock_step_mhz <= 0) fail("bad clock step");
    // The grid has round((max - min) / step) + 1 clocks; NaN fails here too.
    if (!(std::round((max_compute_mhz - min_compute_mhz) / clock_step_mhz) < kMaxClocks))
        fail("clock grid has more than 65536 clocks");
    if (default_app_clock_mhz < min_compute_mhz || default_app_clock_mhz > max_compute_mhz)
        fail("default app clock outside range");
    if (peak_fp64_flops <= 0 || dram_bw_bytes <= 0) fail("bad throughput");
    if (stream_bw_eff <= 0 || stream_bw_eff > 1 || gather_bw_eff <= 0 || gather_bw_eff > 1)
        fail("bad bandwidth efficiency");
    if (gather_amplification < 0) fail("negative gather amplification");
    if (overlap_efficiency < 0 || overlap_efficiency > 1) fail("bad overlap efficiency");
    if (idle_w < 0 || sm_dynamic_w < 0 || issue_w < 0 || mem_dynamic_w < 0) fail("bad power");
    if (std::fabs(v0 + v_slope - 1.0) > 1e-9) fail("voltage curve must hit 1 at fmax");
    if (governor.tick_s <= 0) fail("bad governor tick");
}

GpuDeviceSpec a100_sxm4_80g()
{
    GpuDeviceSpec s;
    s.name = "a100-sxm4-80g";
    s.vendor = Vendor::kNvidia;
    s.max_compute_mhz = 1410;
    s.min_compute_mhz = 210;
    s.clock_step_mhz = 15;
    s.default_app_clock_mhz = 1410; // Table I: Nvidia GPU compute frequency 1410 MHz
    s.memory_clock_mhz = 1593;      // Table I: Nvidia GPU memory frequency 1593 MHz
    s.peak_fp64_flops = 9.7e12;     // A100 FP64 vector peak
    s.dram_bw_bytes = 2.039e12;     // 80 GB HBM2e
    s.stream_bw_eff = 0.85;
    s.gather_bw_eff = 0.55;
    s.bw_saturation_threads = 32e6;
    s.compute_saturation_threads = 4e6;
    s.launch_overhead_s = 6e-6;
    s.overlap_efficiency = 0.85;
    s.idle_w = 55.0; // measured idle of an SXM4 module
    s.sm_dynamic_w = 240.0;
    s.issue_w = 50.0;
    s.mem_dynamic_w = 70.0; // sums to ~415 W peak vs 400 W TDP with throttling headroom
    s.v0 = 0.55;
    s.v_slope = 0.45;
    return s;
}

GpuDeviceSpec a100_pcie_40g()
{
    GpuDeviceSpec s = a100_sxm4_80g();
    s.name = "a100-pcie-40g";
    s.dram_bw_bytes = 1.555e12; // 40 GB HBM2
    s.idle_w = 40.0;            // PCIe card, 250 W TDP
    s.sm_dynamic_w = 150.0;
    s.issue_w = 35.0;
    s.mem_dynamic_w = 55.0;
    return s;
}

GpuDeviceSpec mi250x_gcd()
{
    GpuDeviceSpec s;
    s.name = "mi250x-gcd";
    s.vendor = Vendor::kAmd;
    s.max_compute_mhz = 1700; // Table I: AMD GPU compute frequency 1700 MHz
    s.min_compute_mhz = 500;
    s.clock_step_mhz = 10;
    s.default_app_clock_mhz = 1700;
    s.memory_clock_mhz = 1600; // Table I: AMD GPU memory frequency 1600 MHz
    s.peak_fp64_flops = 23.9e12; // per GCD, vector FP64
    s.dram_bw_bytes = 1.6e12;    // per GCD share of 3.2 TB/s
    s.stream_bw_eff = 0.80;
    // Calibration: SPH-EXA's scattered neighbour gathers reach a much lower
    // fraction of peak on CDNA2 than on A100 — this single knob reproduces
    // the paper's Fig. 5 observation that MomentumEnergy takes 45.8% of GPU
    // energy on LUMI-G vs 25.3% on CSCS-A100.
    s.gather_bw_eff = 0.22;
    s.gather_amplification = 3.0; // 8 MB L2 per GCD: gathers spill to HBM
    s.bw_saturation_threads = 40e6;
    s.compute_saturation_threads = 6e6;
    s.launch_overhead_s = 8e-6;
    s.overlap_efficiency = 0.80;
    s.idle_w = 90.0; // per GCD share of a 560 W card
    s.sm_dynamic_w = 130.0;
    s.issue_w = 30.0;
    s.mem_dynamic_w = 55.0;
    s.v0 = 0.55;
    s.v_slope = 0.45;
    s.governor.boost_floor_mhz = 1400;
    s.governor.active_floor_mhz = 1000;
    s.governor.idle_target_mhz = 800;
    return s;
}

GpuDeviceSpec intel_max_1550()
{
    GpuDeviceSpec s;
    s.name = "intel-max-1550";
    s.vendor = Vendor::kIntel;
    s.max_compute_mhz = 1600;
    s.min_compute_mhz = 900;
    s.clock_step_mhz = 50; // PVC frequency steps
    s.default_app_clock_mhz = 1600;
    s.memory_clock_mhz = 3200;
    s.peak_fp64_flops = 22.9e12; // vector FP64, one OAM
    s.dram_bw_bytes = 3.2e12;    // 128 GB HBM2e
    s.stream_bw_eff = 0.80;
    s.gather_bw_eff = 0.40;
    s.gather_amplification = 0.8; // 408 MB L2, but two-stack locality effects
    s.bw_saturation_threads = 48e6;
    s.compute_saturation_threads = 8e6;
    s.launch_overhead_s = 9e-6;
    s.overlap_efficiency = 0.80;
    s.idle_w = 140.0; // one OAM of 600 W TDP
    s.sm_dynamic_w = 280.0;
    s.issue_w = 60.0;
    s.mem_dynamic_w = 120.0;
    s.v0 = 0.55;
    s.v_slope = 0.45;
    s.governor.boost_floor_mhz = 1400;
    s.governor.active_floor_mhz = 1000;
    s.governor.idle_target_mhz = 900;
    return s;
}

GpuDeviceSpec spec_by_name(const std::string& name)
{
    const std::string key = util::to_lower(name);
    if (key == "a100-sxm4-80g") return a100_sxm4_80g();
    if (key == "a100-pcie-40g") return a100_pcie_40g();
    if (key == "mi250x-gcd") return mi250x_gcd();
    if (key == "intel-max-1550") return intel_max_1550();
    throw std::invalid_argument("unknown GPU spec: " + name);
}

} // namespace gsph::gpusim
