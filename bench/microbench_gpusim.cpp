/// google-benchmark microbenchmarks of the device-model substrate: kernel
/// pricing, locked/governed execution, governor stepping and the
/// instrumented-driver overhead per simulated function call.
/// Locked execution is timed under power caps of four depths.

#include "gpusim/device.hpp"
#include "gpusim/roofline.hpp"
#include "sim/driver.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace gsph;

gpusim::KernelWork sample_work()
{
    gpusim::KernelWork w;
    w.flops = 2e11;
    w.dram_bytes = 3e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.7;
    w.threads = 90'000'000;
    return w;
}

void BM_PriceKernel(benchmark::State& state)
{
    const auto spec = gpusim::a100_sxm4_80g();
    const auto work = sample_work();
    double f = 1005.0;
    for (auto _ : state) {
        const auto t = gpusim::price_kernel(spec, work, f);
        benchmark::DoNotOptimize(t.total_s);
        f = f >= 1410.0 ? 1005.0 : f + 15.0;
    }
}
BENCHMARK(BM_PriceKernel);

/// Locked-clock execution under a power cap of each depth: none, TDP (the
/// requested clock fits), 45% of TDP (the fleet benchmark's budget share)
/// and idle + 21 W (throttled to near the minimum clock).
void BM_ExecuteLockedCapped(benchmark::State& state)
{
    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    const double tdp = dev.default_power_limit_w();
    const double limits_w[] = {0.0, tdp, 0.45 * tdp, dev.spec().idle_w + 21.0};
    const char* labels[] = {"uncapped", "TDP", "45% TDP", "idle + 21 W"};
    dev.set_power_limit_w(limits_w[state.range(0)]);
    const auto work = sample_work();
    for (auto _ : state) {
        const auto r = dev.execute(work);
        benchmark::DoNotOptimize(r.energy_j);
    }
    state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_ExecuteLockedCapped)->DenseRange(0, 3);

void BM_ExecuteGoverned(benchmark::State& state)
{
    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    dev.set_clock_policy(gpusim::ClockPolicy::kNativeDvfs);
    const auto work = sample_work();
    for (auto _ : state) {
        const auto r = dev.execute(work);
        benchmark::DoNotOptimize(r.energy_j);
    }
}
BENCHMARK(BM_ExecuteGoverned);

void BM_GovernorStep(benchmark::State& state)
{
    const auto spec = gpusim::a100_sxm4_80g();
    gpusim::DvfsGovernor gov(spec);
    gov.on_kernel_launch();
    double util = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gov.step(spec.governor.tick_s, true, util));
        util += 0.01;
        if (util > 1.0) util = 0.0;
    }
}
BENCHMARK(BM_GovernorStep);

void BM_InstrumentedRun(benchmark::State& state)
{
    // Cost of a whole instrumented multi-rank run (trace recorded once).
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 91.125e6;
    spec.n_steps = 5;
    spec.real_nside = 8;
    const auto trace = sim::record_trace(spec);
    sim::RunConfig cfg;
    cfg.n_ranks = static_cast<int>(state.range(0));
    cfg.setup_s = 5.0;
    for (auto _ : state) {
        const auto r = sim::run_instrumented(sim::cscs_a100(), trace, cfg);
        benchmark::DoNotOptimize(r.gpu_energy_j);
    }
    state.SetItemsProcessed(state.iterations() * cfg.n_ranks * spec.n_steps);
}
BENCHMARK(BM_InstrumentedRun)->Arg(4)->Arg(16);

} // namespace

BENCHMARK_MAIN();
