/// google-benchmark microbenchmarks of the SPH substrate itself: neighbour
/// search, kernel evaluations, octree construction, gravity traversal and a
/// full time-step.  These measure host throughput of the real physics (not
/// simulated device time).

#include "sim/workload.hpp"
#include "sph/functions.hpp"
#include "sph/ic.hpp"
#include "sph/kernel.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

namespace {

using namespace gsph;

sph::SphSimulation make_sim(int nside)
{
    sph::TurbulenceParams p;
    p.nside = nside;
    p.ng_target = 60;
    return sph::make_subsonic_turbulence(p);
}

void BM_KernelEvaluation(benchmark::State& state)
{
    const auto& kern = sph::default_kernel();
    double q = 0.0;
    double sum = 0.0;
    for (auto _ : state) {
        sum += kern.w(q, 1.0) + kern.dw_dr(q, 1.0);
        q += 1e-4;
        if (q > 2.0) q = 0.0;
    }
    benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_KernelEvaluation);

void BM_MortonKey(benchmark::State& state)
{
    const sph::Box box = sph::Box::cube(0.0, 1.0, true);
    double x = 0.1;
    std::uint64_t acc = 0;
    for (auto _ : state) {
        acc ^= sph::morton_key({x, 0.5, 0.25}, box);
        x += 1e-7;
        if (x > 1.0) x = 0.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_MortonKey);

void BM_NeighborSearch(benchmark::State& state)
{
    auto sim = make_sim(static_cast<int>(state.range(0)));
    sim.domain_decomp_and_sync();
    sph::NeighborList nl;
    for (auto _ : state) {
        const std::size_t pairs =
            sph::find_all_neighbors(sim.particles(), sim.box(), nl);
        benchmark::DoNotOptimize(pairs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(sim.particles().size()));
}
BENCHMARK(BM_NeighborSearch)->Arg(8)->Arg(12)->Arg(16);

/// A simulation as `sim::record_trace` builds it (default neighbour target
/// 100, default seed), after its first domain decomposition and, when
/// `through` is a pair loop, every function before it.
sph::SphSimulation make_recorded(sim::WorkloadKind kind, int nside,
                                 sph::SphFunction through = sph::SphFunction::kFindNeighbors)
{
    sim::WorkloadSpec spec;
    spec.kind = kind;
    spec.real_nside = nside;
    auto simulation = sim::make_simulation(spec);
    for (const sph::SphFunction fn : sph::function_order(simulation.config().gravity)) {
        if (fn == through) break;
        simulation.run_function(fn);
    }
    return simulation;
}

/// FindNeighbors at the record workload's shapes: turbulence 12^3 (a 4^3
/// grid of 27 particles per cell) and Evrard 10^3 (open box, dense core).
void BM_RecordNeighborSearch(benchmark::State& state, sim::WorkloadKind kind, int nside)
{
    auto simulation = make_recorded(kind, nside);
    sph::NeighborList nl;
    std::size_t pairs = 0;
    for (auto _ : state) {
        pairs = sph::find_all_neighbors(simulation.particles(), simulation.box(), nl);
        benchmark::DoNotOptimize(pairs);
    }
    state.counters["pairs"] = static_cast<double>(pairs);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(simulation.particles().size()));
}
BENCHMARK_CAPTURE(BM_RecordNeighborSearch, turbulence12,
                  sim::WorkloadKind::kSubsonicTurbulence, 12);
BENCHMARK_CAPTURE(BM_RecordNeighborSearch, evrard10, sim::WorkloadKind::kEvrardCollapse, 10);

/// The pair loops from `first` through `last` (in execution order) on a
/// recording's first-step state.  Each rewrites only its own outputs, so
/// repeats do the same work.
void BM_PairLoops(benchmark::State& state, sim::WorkloadKind kind, int nside,
                  sph::SphFunction first, sph::SphFunction last)
{
    auto simulation = make_recorded(kind, nside, first);
    const auto order = sph::function_order(simulation.config().gravity);
    const auto from = std::find(order.begin(), order.end(), first);
    const auto to = std::find(from, order.end(), last) + 1;
    for (auto _ : state) {
        for (auto fn = from; fn != to; ++fn) {
            const auto work = simulation.run_function(*fn);
            benchmark::DoNotOptimize(work.flops);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(simulation.neighbors().total_pairs()));
}

/// BM_PairLoops/<loop>/<shape> at the record workload's two shapes.
/// `Density` is XMass and NormalizationGradh, which share one pass over the
/// pairs.
const bool kPairLoopsRegistered = [] {
    using sph::SphFunction;
    struct Loop {
        const char* name;
        SphFunction first, last;
    };
    const Loop loops[] = {
        {"Density", SphFunction::kXMass, SphFunction::kNormalizationGradh},
        {"IADVelocityDivCurl", SphFunction::kIadVelocityDivCurl,
         SphFunction::kIadVelocityDivCurl},
        {"MomentumEnergy", SphFunction::kMomentumEnergy, SphFunction::kMomentumEnergy},
    };
    struct Shape {
        const char* name;
        sim::WorkloadKind kind;
        int nside;
    };
    const Shape shapes[] = {{"turbulence12", sim::WorkloadKind::kSubsonicTurbulence, 12},
                            {"evrard10", sim::WorkloadKind::kEvrardCollapse, 10}};
    for (const Shape& shape : shapes) {
        for (const Loop& loop : loops) {
            const std::string name =
                std::string("BM_PairLoops/") + loop.name + "/" + shape.name;
            benchmark::RegisterBenchmark(name.c_str(), [shape, loop](benchmark::State& st) {
                BM_PairLoops(st, shape.kind, shape.nside, loop.first, loop.last);
            });
        }
    }
    return true;
}();

void BM_OctreeBuild(benchmark::State& state)
{
    auto sim = make_sim(static_cast<int>(state.range(0)));
    sim.domain_decomp_and_sync(); // sort once
    sph::Octree tree;
    for (auto _ : state) {
        tree.build(sim.particles(), sim.box(), 16);
        benchmark::DoNotOptimize(tree.node_count());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(sim.particles().size()));
}
BENCHMARK(BM_OctreeBuild)->Arg(8)->Arg(16);

void BM_MomentumEnergy(benchmark::State& state)
{
    auto sim = make_sim(static_cast<int>(state.range(0)));
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.normalization_gradh();
    sim.equation_of_state();
    sim.iad_velocity_div_curl();
    sim.av_switches();
    for (auto _ : state) {
        const auto work = sim.momentum_energy();
        benchmark::DoNotOptimize(work.flops);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(sim.neighbors().total_pairs()));
}
BENCHMARK(BM_MomentumEnergy)->Arg(8)->Arg(12);

void BM_GravityBarnesHut(benchmark::State& state)
{
    sph::EvrardParams p;
    p.n_particles = static_cast<int>(state.range(0));
    auto sim = sph::make_evrard_collapse(p);
    sim.domain_decomp_and_sync();
    for (auto _ : state) {
        const auto work = sim.gravity();
        benchmark::DoNotOptimize(work.flops);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GravityBarnesHut)->Arg(1000)->Arg(4000);

void BM_FullTimeStep(benchmark::State& state)
{
    auto sim = make_sim(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        sim.step();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(sim.particles().size()));
}
BENCHMARK(BM_FullTimeStep)->Arg(8)->Arg(12);

} // namespace

BENCHMARK_MAIN();
