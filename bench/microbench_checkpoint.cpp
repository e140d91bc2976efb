/// Checkpoint subsystem cost: section serialization, a full commit
/// (data file + manifest, temp+fsync+rename), read-back validation, and
/// the end-to-end overhead checkpointing adds to an instrumented run.
///
/// The acceptance bar is checkpoint overhead < 2% of step time at
/// --checkpoint-every 10.  "Step time" is the *simulated* step duration
/// (the paper's SPH-EXA steps run for seconds of device time); the commit
/// cost is host time (fsync-dominated, ~1 ms).  BM_RunWithCheckpointing
/// reports the ratio directly as the pct_of_sim_step counter: per-commit
/// host seconds, amortized over the 10 steps between commits, against the
/// simulated step duration.  BM_CommitCheckpoint isolates the per-commit
/// write cost the checkpoint.write_seconds telemetry counter reports.
/// BM_CommitGrowingRun commits an observe-shaped run (8 ranks of ManDyn with
/// the span tracer, live sampler and ledger, rank 0's clock trace) at steps
/// 5 to 40 and reports the bytes of the first, second and last commit and
/// their mean: with records that only grow logged once, the last commit
/// costs what the second does.

#include "checkpoint/checkpoint.hpp"
#include "core/frequency_table.hpp"
#include "core/policy.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_tracer.hpp"
#include "telemetry/sampler.hpp"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace {

using namespace gsph;

const sim::WorkloadTrace& shared_trace()
{
    static const sim::WorkloadTrace trace = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 450.0 * 450.0 * 450.0;
        spec.n_steps = 20;
        spec.real_nside = 8;
        return sim::record_trace(spec);
    }();
    return trace;
}

std::string make_temp_dir()
{
    char pattern[] = "/tmp/gsph_bench_ckpt_XXXXXX";
    const char* dir = ::mkdtemp(pattern);
    return dir ? dir : "/tmp";
}

void remove_dir(const std::string& dir)
{
    const std::string cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
}

/// Representative section payload: an 8-rank run's worth of per-rank,
/// per-function aggregates plus device state.
std::vector<checkpoint::Section> sample_sections(int n_ranks)
{
    std::vector<checkpoint::Section> sections;
    checkpoint::StateWriter driver;
    driver.put_i64("step", 10);
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const std::string prefix = "fn." + std::to_string(f) + ".";
        driver.put_f64(prefix + "time_s", 1.25 * f);
        driver.put_f64(prefix + "energy_j", 980.0 * f);
        driver.put_i64(prefix + "calls", 40 + f);
    }
    sections.push_back({"driver", driver.str()});
    for (int r = 0; r < n_ranks; ++r) {
        checkpoint::StateWriter gpu;
        gpu.put_f64("busy_s", 12.5);
        gpu.put_f64("energy_j", 43210.0 + r);
        gpu.put_f64_vec("clock_history", std::vector<double>(64, 1410.0));
        sections.push_back({"gpu." + std::to_string(r), gpu.str()});
    }
    return sections;
}

void BM_SerializeSections(benchmark::State& state)
{
    const int n_ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto sections = sample_sections(n_ranks);
        benchmark::DoNotOptimize(sections);
    }
}

void BM_CommitCheckpoint(benchmark::State& state)
{
    const int n_ranks = static_cast<int>(state.range(0));
    const auto sections = sample_sections(n_ranks);
    const std::string dir = make_temp_dir();
    checkpoint::CheckpointWriter writer(dir, "benchhashbenchhash");
    int step = 0;
    std::size_t bytes = 0;
    for (const auto& s : sections) bytes += s.data.size();
    for (auto _ : state) {
        writer.write(step += 2, sections);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            static_cast<std::int64_t>(state.iterations()));
    remove_dir(dir);
}

void BM_ReadLatest(benchmark::State& state)
{
    const std::string dir = make_temp_dir();
    checkpoint::CheckpointWriter writer(dir, "benchhashbenchhash");
    writer.write(10, sample_sections(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        auto snap = checkpoint::read_latest(dir);
        benchmark::DoNotOptimize(snap);
    }
    remove_dir(dir);
}

sim::RunResult run_once(int checkpoint_every, const std::string& dir)
{
    auto policy = core::make_static_policy(1200.0);
    sim::RunConfig cfg;
    cfg.n_ranks = 4;
    cfg.n_threads = 1;
    cfg.setup_s = 0.0;
    cfg.teardown_s = 0.0;
    cfg.bind_nvml = false;
    cfg.checkpoint_every = checkpoint_every;
    cfg.checkpoint_dir = dir;
    cfg.config_hash = "benchhashbenchhash";
    return core::run_with_policy(sim::mini_hpc(), shared_trace(), cfg, *policy);
}

void BM_RunBaseline(benchmark::State& state)
{
    for (auto _ : state) {
        auto result = run_once(0, "");
        benchmark::DoNotOptimize(result);
    }
}

/// 20 steps, --checkpoint-every 10.  pct_of_sim_step is the acceptance
/// metric: per-commit host cost amortized over the 10 steps it covers,
/// as a percentage of one simulated step — must stay under 2.
void BM_RunWithCheckpointing(benchmark::State& state)
{
    const std::string dir = make_temp_dir();
    auto& registry = telemetry::MetricsRegistry::global();
    const double write_s0 = registry.value("checkpoint.write_seconds");
    const double writes0 = registry.value("checkpoint.writes");
    sim::RunResult last;
    for (auto _ : state) last = run_once(10, dir);
    const double commits = registry.value("checkpoint.writes") - writes0;
    if (commits > 0 && last.n_steps > 0) {
        const double per_commit_s =
            (registry.value("checkpoint.write_seconds") - write_s0) / commits;
        const double sim_step_s = last.makespan_s() / last.n_steps;
        state.counters["commit_ms"] = 1e3 * per_commit_s;
        state.counters["pct_of_sim_step"] =
            100.0 * (per_commit_s / 10.0) / sim_step_s;
    }
    remove_dir(dir);
}

/// One observe-shaped run of `n_steps` steps, checkpointed every 5; returns
/// the checkpoint.bytes counter at every step end and at the run's end.
std::vector<double> observed_run(int n_steps, const std::string& dir)
{
    constexpr int kRanks = 8;
    auto& metrics = telemetry::MetricsRegistry::global();
    telemetry::RunTracer tracer(kRanks);
    telemetry::LiveSampler sampler(kRanks);
    telemetry::AttributionLedger ledger(kRanks);
    auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
    sim::RunHooks hooks;
    tracer.attach(hooks);
    sampler.attach(hooks);
    ledger.attach(hooks);
    checkpoint::StateRegistry registry;
    const auto add = [&registry](const char* name, auto* component) {
        registry.add(
            name, [component](checkpoint::StateWriter& w) { component->save_state(w); },
            [component](const checkpoint::StateReader& r) { component->restore_state(r); });
    };
    add("policy", policy.get());
    add("runtracer", &tracer);
    add("sampler", &sampler);
    add("anomaly", &sampler.anomaly());
    add("ledger", &ledger);

    // A commit lands after its step's hooks: each reading covers the
    // commits before it.
    std::vector<double> written;
    hooks.append({.after_step = [&](int) {
        written.push_back(metrics.value("checkpoint.bytes"));
    }});
    sim::RunConfig cfg;
    cfg.n_ranks = kRanks;
    cfg.n_steps = n_steps;
    cfg.n_threads = 1;
    cfg.setup_s = 45.0;
    cfg.enable_rank0_trace = true;
    cfg.checkpoint_every = 5;
    cfg.checkpoint_dir = dir;
    cfg.config_hash = "benchhashbenchhash";
    cfg.checkpoint_participants = &registry;
    core::run_with_policy(sim::mini_hpc(), shared_trace(), cfg, *policy, hooks);
    written.push_back(metrics.value("checkpoint.bytes"));
    return written;
}

/// 41 steps, --checkpoint-every 5: commits at steps 5, 10, ..., 40.
void BM_CommitGrowingRun(benchmark::State& state)
{
    const std::string dir = make_temp_dir();
    auto& registry = telemetry::MetricsRegistry::global();
    const double write_s0 = registry.value("checkpoint.write_seconds");
    const double writes0 = registry.value("checkpoint.writes");
    std::vector<double> written;
    for (auto _ : state) {
        written = observed_run(41, dir);
        benchmark::DoNotOptimize(written);
    }
    std::vector<double> commits;
    for (std::size_t i = 1; i < written.size(); ++i) {
        if (written[i] != written[i - 1]) commits.push_back(written[i] - written[i - 1]);
    }
    if (commits.size() >= 2) {
        double total = 0.0;
        for (const double bytes : commits) total += bytes;
        state.counters["commits"] = static_cast<double>(commits.size());
        state.counters["bytes_per_commit"] = total / static_cast<double>(commits.size());
        state.counters["first_commit_bytes"] = commits.front();
        state.counters["second_commit_bytes"] = commits[1];
        state.counters["last_commit_bytes"] = commits.back();
        const double writes = registry.value("checkpoint.writes") - writes0;
        state.counters["commit_ms"] =
            1e3 * (registry.value("checkpoint.write_seconds") - write_s0) / writes;
    }
    remove_dir(dir);
}

} // namespace

BENCHMARK(BM_SerializeSections)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CommitCheckpoint)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReadLatest)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunBaseline)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RunWithCheckpointing)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CommitGrowingRun)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
