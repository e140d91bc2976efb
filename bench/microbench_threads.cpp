/// Host-side thread scaling of the driver's rank execution phase, the one
/// place the simulator runs a thread pool.
///
/// An instrumented run under the native-DVFS governor (the per-tick
/// governor work makes each rank's execute CPU-bound) at 8 and 256 ranks,
/// each at 1 thread (inline, no pool) and at hardware concurrency.  Results
/// are bit-identical at every thread count, so the only thing that changes
/// is wall-clock time.  At 8 ranks the pool costs more than it saves; at
/// 256 ranks it wins on a multi-core host.  On a single-core host the two
/// thread counts coincide.

#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "util/thread_pool.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace gsph;

const sim::WorkloadTrace& shared_trace()
{
    static const sim::WorkloadTrace trace = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = 4;
        spec.real_nside = 10;
        return sim::record_trace(spec);
    }();
    return trace;
}

/// Args: {ranks, threads}.
void BM_RunInstrumented(benchmark::State& state)
{
    const auto& trace = shared_trace();
    sim::RunConfig cfg;
    cfg.n_ranks = static_cast<int>(state.range(0));
    cfg.n_threads = static_cast<int>(state.range(1));
    cfg.setup_s = 0.0;
    cfg.teardown_s = 0.0;
    cfg.bind_nvml = false; // no NVML hooks; keeps concurrent runs legal
    // Native DVFS re-prices the governor every 10 ms tick: the dominant
    // host cost scales with simulated time, i.e. with rank count.
    cfg.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
    for (auto _ : state) {
        auto result = sim::run_instrumented(sim::mini_hpc(), trace, cfg);
        benchmark::DoNotOptimize(result);
    }
}

int max_threads()
{
    return util::ThreadPool::resolve_threads(0);
}

} // namespace

BENCHMARK(BM_RunInstrumented)
    ->Args({8, 1})
    ->Args({8, max_threads()})
    ->Args({256, 1})
    ->Args({256, max_threads()})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
