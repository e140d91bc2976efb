/// google-benchmark microbenchmarks of the device-model substrate: kernel
/// pricing, locked/governed execution, governor stepping, the pm_counters
/// sampler and the instrumented-driver overhead per simulated function call.
/// Locked execution is timed under power caps of four depths, on one
/// repeated kernel and on a fleet node's sequence of kernels, and apart from
/// its pricing (BM_ExecutePriced).

#include "cpusim/cpu.hpp"
#include "gpusim/device.hpp"
#include "gpusim/roofline.hpp"
#include "pmcounters/pm_counters.hpp"
#include "sim/driver.hpp"
#include "util/rng.hpp"

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

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

/// A recorded turbulence trace (5 steps at 8^3, scaled to 91M particles per
/// GPU), recorded once.
const sim::WorkloadTrace& sample_trace()
{
    static const sim::WorkloadTrace trace = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 91.125e6;
        spec.n_steps = 5;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return trace;
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

constexpr std::array<const char*, 4> kCapLabels = {"uncapped", "TDP", "45% TDP",
                                                   "idle + 21 W"};

/// The power limit of cap depth 0-3: none, TDP (the requested clock fits),
/// 45% of TDP (the fleet benchmark's budget share) and idle + 21 W
/// (throttled to near the minimum clock).
double cap_limit_w(const gpusim::GpuDevice& dev, std::int64_t depth)
{
    const double tdp = dev.default_power_limit_w();
    const std::array<double, 4> limits_w = {0.0, tdp, 0.45 * tdp, dev.spec().idle_w + 21.0};
    return limits_w[static_cast<std::size_t>(depth)];
}

/// Locked-clock execution of one repeated kernel under each cap depth:
/// after the first execute, every capped search starts at its own answer.
void BM_ExecuteLockedCapped(benchmark::State& state)
{
    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    dev.set_power_limit_w(cap_limit_w(dev, state.range(0)));
    const auto work = sample_work();
    for (auto _ : state) {
        const auto r = dev.execute(work);
        benchmark::DoNotOptimize(r.energy_j);
    }
    state.SetLabel(kCapLabels[static_cast<std::size_t>(state.range(0))]);
}
BENCHMARK(BM_ExecuteLockedCapped)->DenseRange(0, 3);

/// What a fleet node executes in a round: the 12 SPH functions of a
/// recorded step in order, each on 4 GPUs with its work jittered by up to
/// 2%, so a search starts at the previous GPU's answer for the same
/// function, or at the previous function's.  Time per execute.
void BM_ExecuteLockedCappedStep(benchmark::State& state)
{
    constexpr std::size_t kGpus = 4;
    const sim::WorkloadTrace& trace = sample_trace();
    std::vector<std::unique_ptr<gpusim::GpuDevice>> gpus;
    for (std::size_t g = 0; g < kGpus; ++g) {
        gpus.push_back(std::make_unique<gpusim::GpuDevice>(gpusim::a100_sxm4_80g(),
                                                           static_cast<int>(g)));
        gpus.back()->set_power_limit_w(cap_limit_w(*gpus.back(), state.range(0)));
    }
    // 16 jittered rounds of the first step, (function, GPU) in order.
    util::Rng rng(0x51ee);
    std::vector<gpusim::KernelWork> works;
    for (int round = 0; round < 16; ++round) {
        for (const sim::FunctionRecord& fr : trace.steps.front().functions) {
            for (std::size_t g = 0; g < kGpus; ++g) {
                works.push_back(
                    gpusim::scaled(fr.work, trace.work_scale() * rng.uniform(0.98, 1.02)));
            }
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto r = gpus[i % kGpus]->execute(works[i]);
        benchmark::DoNotOptimize(r.energy_j);
        if (++i == works.size()) i = 0;
    }
    state.SetLabel(kCapLabels[static_cast<std::size_t>(state.range(0))]);
}
BENCHMARK(BM_ExecuteLockedCappedStep)->DenseRange(0, 3);

/// Locked execution of a batch priced once, as a fleet job's GPUs run a
/// function priced once per round: the accounting alone, under a cap at 45%
/// of TDP.
void BM_ExecutePriced(benchmark::State& state)
{
    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    dev.set_power_limit_w(cap_limit_w(dev, 2));
    const gpusim::LockedPrice price = dev.price_locked(sample_work());
    for (auto _ : state) {
        const auto r = dev.execute_priced(price);
        benchmark::DoNotOptimize(r.energy_j);
    }
    state.SetLabel(kCapLabels[2]);
}
BENCHMARK(BM_ExecutePriced);

/// One pm_counters sample_to on a four-GPU node at 10 Hz, `gap` ms of node
/// time after the previous one (the argument), so each call crosses
/// gap * 10 Hz ticks; node time grows from 0 through the run.
void BM_PmCountersSampleTo(benchmark::State& state)
{
    cpusim::CpuDevice cpu(cpusim::epyc_7113());
    std::vector<std::unique_ptr<gpusim::GpuDevice>> gpus;
    std::vector<gpusim::GpuDevice*> gpu_ptrs;
    for (int g = 0; g < 4; ++g) {
        gpus.push_back(std::make_unique<gpusim::GpuDevice>(gpusim::a100_sxm4_80g(), g));
        gpu_ptrs.push_back(gpus.back().get());
    }
    pmcounters::PmCounters counters({}, &cpu, gpu_ptrs);
    const double gap_s = static_cast<double>(state.range(0)) * 1e-3;
    double now = 0.0;
    for (auto _ : state) {
        now += gap_s;
        counters.sample_to(now);
        benchmark::DoNotOptimize(counters.freshness());
    }
    state.SetLabel("gap " + std::to_string(state.range(0)) + " ms");
}
BENCHMARK(BM_PmCountersSampleTo)->Arg(100)->Arg(20'000)->Arg(600'000);

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

/// Native DVFS under a cap at 45% of TDP: every governor tick asks for the
/// capped clock at the governor's clock.
void BM_ExecuteGovernedCapped(benchmark::State& state)
{
    gpusim::GpuDevice dev(gpusim::a100_sxm4_80g());
    dev.set_clock_policy(gpusim::ClockPolicy::kNativeDvfs);
    dev.set_power_limit_w(cap_limit_w(dev, 2));
    const auto work = sample_work();
    for (auto _ : state) {
        const auto r = dev.execute(work);
        benchmark::DoNotOptimize(r.energy_j);
    }
    state.SetLabel(kCapLabels[2]);
}
BENCHMARK(BM_ExecuteGovernedCapped);

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
    const sim::WorkloadTrace& trace = sample_trace();
    sim::RunConfig cfg;
    cfg.n_ranks = static_cast<int>(state.range(0));
    cfg.setup_s = 5.0;
    for (auto _ : state) {
        const auto r = sim::run_instrumented(sim::cscs_a100(), trace, cfg);
        benchmark::DoNotOptimize(r.gpu_energy_j);
    }
    state.SetItemsProcessed(state.iterations() * cfg.n_ranks *
                            static_cast<std::int64_t>(trace.steps.size()));
}
BENCHMARK(BM_InstrumentedRun)->Arg(4)->Arg(16);

} // namespace

BENCHMARK_MAIN();
