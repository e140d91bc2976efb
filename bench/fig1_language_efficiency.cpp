/// Reproduces Fig. 1 (background, after Portegies Zwart 2020): programming-
/// language efficiency as energy vs time-to-solution for an N-body-style
/// production workload.  The original is a measurement across codes; here a
/// fixed FLOP budget is priced on the simulated devices with per-language
/// throughput efficiencies from the literature, which reproduces the
/// qualitative ranking the paper cites: CUDA on the GPU is roughly an order
/// of magnitude more energy-efficient than compiled CPU languages, which in
/// turn beat interpreted ones by orders of magnitude.

#include "common.hpp"

#include "cpusim/cpu.hpp"
#include "gpusim/device.hpp"

using namespace gsph;

int main()
{
    bench::print_header(
        "Fig. 1 - Language efficiency vs time-to-solution (background)",
        "Figure 1 (reproduced from Portegies Zwart, Nat. Astron. 2020)",
        "Expected shape: CUDA (GPU) in the best corner, compiled CPU\n"
        "languages clustered ~10x worse in energy, interpreted Python far\n"
        "off both axes.");

    // One production N-body run: 1e16 FP64-equivalent operations.
    constexpr double kFlops = 1e16;

    struct Language {
        const char* name;
        bool on_gpu;
        /// Fraction of the device's achievable FP64 throughput the typical
        /// implementation reaches (Portegies Zwart's measured spread).
        double efficiency;
    };
    const std::vector<Language> languages = {
        {"CUDA (A100)", true, 0.55},   {"C++", false, 0.40},  {"C", false, 0.45},
        {"Fortran", false, 0.38},      {"Java", false, 0.16}, {"Swift", false, 0.14},
        {"Numba/Python", false, 0.11}, {"Python", false, 0.003},
    };

    util::Table table({"Language", "Time-to-solution [s]", "Energy [kJ]",
                       "Energy vs CUDA", "Watts"});
    util::CsvWriter csv({"language", "time_s", "energy_j"});

    double cuda_energy = 0.0;
    for (const auto& lang : languages) {
        double time_s = 0.0, energy_j = 0.0;
        if (lang.on_gpu) {
            gpusim::GpuDevice gpu(gpusim::a100_sxm4_80g());
            gpusim::KernelWork work;
            work.flops = kFlops;
            work.dram_bytes = kFlops / 50.0; // compute-bound pair interactions
            work.flop_efficiency = lang.efficiency;
            work.threads = 100'000'000;
            const auto res = gpu.execute(work);
            time_s = res.end_s - res.start_s;
            energy_j = res.energy_j;
        }
        else {
            // 64-core host, AVX FP64 peak ~1.5 TFlop/s at full tilt.
            cpusim::CpuDevice cpu(cpusim::epyc_7113());
            const double peak = 1.5e12;
            time_s = kFlops / (peak * lang.efficiency);
            cpu.advance(time_s, 64.0, 1.0, 0.4);
            energy_j = cpu.energy_j();
        }
        if (lang.on_gpu) cuda_energy = energy_j;
        table.add_row({lang.name, util::format_fixed(time_s, 1),
                       util::format_fixed(energy_j / 1e3, 1),
                       cuda_energy > 0.0 ? bench::ratio(energy_j / cuda_energy)
                                         : std::string("1.000"),
                       util::format_fixed(energy_j / time_s, 0)});
        csv.add_row({lang.name, util::format_fixed(time_s, 2),
                     util::format_fixed(energy_j, 0)});
    }
    table.print(std::cout);

    bench::write_artifact(csv, "fig1_language_efficiency.csv");
    return 0;
}
