/// bench_e2e: host time of the greensph library, end to end and per layer.
///
/// The modeled results (simulated GPU energy, time, EDP) are gated by
/// greensph_report.  This harness measures the *host* time spent producing
/// them.  One invocation runs one workload in a closed loop (each caller
/// starts its next op when the previous one returned) for a fixed time:
///
///   bench_e2e --workload record|replay|observe|fleet --seed N
///             [--seconds S] [--trace FILE] [--tmp DIR]
///   bench_e2e --check [--benchmark BENCHMARK.json]
///
///   record   sim::record_trace of turbulence or Evrard (the physics
///            recorder; nothing is replayed)
///   replay   core::run_with_policy under baseline, ManDyn (sweep + run) or
///            online model ManDyn
///   observe  one baseline or ManDyn run with the run tracer, live sampler,
///            attribution ledger and checkpoints, then the Chrome trace,
///            ledger and run summary written out
///   fleet    fleet::run_fleet under a power budget, negotiated or
///            uniformly capped
///
/// Each workload has a cheap and an expensive class of op (see Samples);
/// ops cycle through them.  The seed is the only input: it picks
/// initial-condition seeds and the job mix.  Library calls run on one
/// thread (kThreads), and ops are kept short (see Sizes).  Set-up builds
/// the inputs and runs one untimed cycle of ops (none for record: real
/// recordings are always cold).  An untraced run sets up five times, once
/// before each fifth of the measuring time, and reports the median.
///
/// Every op's outputs are checked (each workload's verify()); an op whose
/// check fails counts as failed.  The last line on stdout is one JSON
/// object {"correct", "attempted", "failed", "metrics"}.  An untraced run
/// reports the end-to-end metrics: the median set-up, the fastest op of
/// each class (contention on the shared host only ever adds time, and every
/// op of a class repeats the same work) and the peak RSS.  --trace FILE
/// runs half the time untraced and half traced, writes the spans to FILE
/// as Chrome-trace JSON and reports the per-layer metrics (layer_metrics())
/// instead.  The exit status is 0 only when every check passed.
///
/// --check runs every workload at its smallest size, untraced and traced,
/// with all checks, in a few seconds; given BENCHMARK.json it also holds
/// the reported metric lists to the ones listed there.

#include "spans.hpp"

#include "checkpoint/checkpoint.hpp"
#include "core/online_tuner.hpp"
#include "core/policy.hpp"
#include "fleet/fleet.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
#include "sph/decomposition.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/run_tracer.hpp"
#include "telemetry/sampler.hpp"
#include "tuning/kernel_tuner.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

using namespace gsph;
using bench::HookTimer;
using bench::now_ns;
using bench::Scope;
using bench::SpanLog;

namespace {

namespace fs = std::filesystem;

SpanLog g_spans;

// --- small helpers ----------------------------------------------------------

struct CheckFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

void expect(bool ok, const std::string& what)
{
    if (!ok) throw CheckFailure(what);
}

bool close_rel(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolation quantile of unsorted samples.
double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median wall time of `reps` calls of `fn`, with span recording paused.
double median_time(int reps, const std::function<void()>& fn)
{
    const bool was = g_spans.enabled();
    g_spans.enable(false);
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const std::int64_t t0 = now_ns();
        fn();
        t.push_back(seconds_of(now_ns() - t0));
    }
    g_spans.enable(was);
    return median(t);
}

double cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set size (VmHWM) in MB.
double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

double counter(const std::string& name)
{
    return telemetry::MetricsRegistry::global().value(name);
}

std::string read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Byte-exact fingerprint of the numbers a result is made of.
class Fingerprint {
public:
    Fingerprint& add(double v)
    {
        bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
        return *this;
    }
    std::uint64_t value() const { return util::fnv1a64(bytes_); }

private:
    std::string bytes_;
};

std::uint64_t fingerprint(const sim::RunResult& r)
{
    Fingerprint f;
    f.add(r.loop_start_s).add(r.loop_end_s).add(r.total_wall_s);
    f.add(r.gpu_energy_j).add(r.cpu_energy_j).add(r.memory_energy_j);
    f.add(r.other_energy_j).add(r.node_energy_j).add(r.pmt_loop_energy_j);
    f.add(r.slurm.consumed_energy_j).add(r.slurm.elapsed_s);
    for (const auto& a : r.per_function) {
        f.add(a.time_s).add(a.gpu_energy_j).add(a.cpu_energy_j).add(a.other_energy_j);
        f.add(static_cast<double>(a.calls)).add(a.clock_time_product);
    }
    return f.value();
}

std::uint64_t fingerprint(const fleet::FleetResult& r)
{
    Fingerprint f;
    f.add(r.n_nodes).add(r.rounds).add(r.makespan_s).add(r.node_energy_j);
    f.add(r.gpu_energy_j).add(r.jobs_completed).add(r.deadline_misses);
    f.add(r.total_wait_s);
    for (const auto& j : r.jobs) {
        f.add(j.start_s).add(j.finish_s).add(j.gpu_energy_j);
        f.add(j.record.consumed_energy_j).add(j.missed_deadline ? 1.0 : 0.0);
    }
    return f.value();
}

/// Fresh directory for scratch files (checkpoints, stores, exports),
/// removed when the run ends.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& parent)
    {
        fs::create_directories(parent);
        std::string pattern = (fs::path(parent) / "bench_e2e-XXXXXX").string();
        if (::mkdtemp(pattern.data()) == nullptr) {
            throw std::runtime_error("cannot create a scratch directory under " + parent);
        }
        path_ = pattern;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    std::string file(const std::string& name) const { return (path_ / name).string(); }

private:
    fs::path path_;
};

sim::WorkloadSpec turbulence_spec(int nside, int steps, std::uint64_t seed)
{
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 450.0 * 450.0 * 450.0; // the CLI default
    spec.real_nside = nside;
    spec.n_steps = steps;
    spec.seed = seed;
    return spec;
}

// --- sizes --------------------------------------------------------------------

/// Sizes keep ops short (about 10-100 ms), so a run holds a hundred or more
/// ops of each class.  The host's cores share their caches and memory with
/// other tenants, whose traffic slows every op by up to 1.6x for seconds to
/// minutes at a time; with many short ops, the fastest of them still falls
/// in a quiet moment of most runs.
struct Sizes {
    // record: one op records one turbulence or one Evrard trace
    int record_turbulence_nside = 12; ///< 12^3 = 1728 particles
    int record_evrard_nside = 10;     ///< 10^3 = 1000 particles
    int record_steps = 2;
    // the trace replay, observe and fleet replay (sim::run_instrumented cycles it)
    int trace_nside = 10;
    int trace_steps = 10;
    int replay_ranks = 64;
    int replay_steps = 200;
    int observe_ranks = 8;
    int observe_steps = 25;
    int observe_checkpoint_every = 5;
    int fleet_nodes = 128;
    int fleet_jobs = 125;
};

Sizes smallest_sizes()
{
    Sizes s;
    s.record_turbulence_nside = 8;
    s.record_evrard_nside = 8;
    s.record_steps = 2;
    s.trace_nside = 6;
    s.trace_steps = 3;
    s.replay_ranks = 8;
    s.replay_steps = 12;
    s.observe_ranks = 4;
    s.observe_steps = 12;
    s.observe_checkpoint_every = 5;
    s.fleet_nodes = 16;
    s.fleet_jobs = 12;
    return s;
}

/// Span name of an SPH function: "sph.<Function>".
const std::string& function_span(sph::SphFunction fn)
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            v.push_back(std::string("sph.") +
                        sph::to_string(static_cast<sph::SphFunction>(f)));
        }
        return v;
    }();
    return names[static_cast<std::size_t>(fn)];
}

// --- per-layer metrics ----------------------------------------------------------

/// How a per-layer metric is derived from the traced run.
enum class From {
    kSelfShare,  ///< self time of spans named `source` / traced op wall time
    kBusyShare,  ///< duration of spans named `source` / traced op wall time
    kSetupShare, ///< duration of set-up spans named `source` / set-up wall
    kValue,      ///< a value the harness or the workload measured
};

struct LayerMetric {
    std::string name;
    const char* unit;
    From from;
    std::string source;
};

/// Every per-layer metric, reported by every traced run; a layer a workload
/// bypasses reads 0.  Layer times are shares of the traced op wall time
/// (trace.op_ms), so a bypassed layer is 0 without being a time.
const std::vector<LayerMetric>& layer_metrics()
{
    static const std::vector<LayerMetric> metrics = [] {
        std::vector<LayerMetric> m = {
            {"trace.op_ms", "ms", From::kValue, ""},
            {"trace.overhead", "ratio", From::kValue, ""},
            {"trace.self_coverage", "ratio", From::kValue, ""},
            {"proc.cpu_s", "s", From::kValue, ""},
            {"proc.cpu_per_wall", "ratio", From::kValue, ""},
            {"setup.record_trace.share", "ratio", From::kSetupShare, "sim.record_trace"},
            {"setup.trace_serialize.share", "ratio", From::kSetupShare, "sim.trace.serialize"},
            {"setup.trace_parse.share", "ratio", From::kSetupShare, "sim.trace.parse"},
            {"setup.warmup.share", "ratio", From::kSetupShare, "setup.warmup"},
            {"sim.trace.bytes", "B", From::kValue, ""},
            {"sim.record.ic.share", "ratio", From::kSelfShare, "sim.record.ic"},
            {"sim.record.sfc_analysis.share", "ratio", From::kSelfShare,
             "sim.record.sfc_analysis"},
        };
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            const std::string& span = function_span(static_cast<sph::SphFunction>(f));
            m.push_back({span + ".share", "ratio", From::kSelfShare, span});
        }
        const std::vector<LayerMetric> rest = {
            {"sph.neighbor_pairs", "count", From::kValue, ""},
            {"sph.FindNeighbors.pairs_per_us", "1/us", From::kValue, ""},
            {"sim.replay.baseline.busy_share", "ratio", From::kBusyShare, "sim.replay.baseline"},
            {"sim.replay.mandyn.busy_share", "ratio", From::kBusyShare, "sim.replay.mandyn"},
            {"sim.replay.online.busy_share", "ratio", From::kBusyShare, "sim.replay.online"},
            {"sim.run_instrumented.share", "ratio", From::kSelfShare, "sim.run_instrumented"},
            {"sim.hooks.calls", "count", From::kValue, ""},
            {"sim.replay.all_threads_x", "ratio", From::kValue, ""},
            {"core.mandyn.hook.share", "ratio", From::kSelfShare, "core.mandyn.hook"},
            {"core.online.hook.share", "ratio", From::kSelfShare, "core.online.hook"},
            {"core.clock_sets", "count", From::kValue, ""},
            {"core.clock_sets_skipped", "count", From::kValue, ""},
            {"tuning.sweep.share", "ratio", From::kSelfShare, "tuning.sweep_sph_functions"},
            {"tuning.sweep.launches", "count", From::kValue, ""},
            {"telemetry.run_tracer.hook.share", "ratio", From::kSelfShare,
             "telemetry.run_tracer.hook"},
            {"telemetry.sampler.hook.share", "ratio", From::kSelfShare,
             "telemetry.sampler.hook"},
            {"telemetry.ledger.hook.share", "ratio", From::kSelfShare, "telemetry.ledger.hook"},
            {"telemetry.trace_json.render.share", "ratio", From::kSelfShare,
             "telemetry.trace_json.render"},
            {"telemetry.trace_json.write.share", "ratio", From::kSelfShare,
             "telemetry.trace_json.write"},
            {"telemetry.ledger.write.share", "ratio", From::kSelfShare, "telemetry.ledger.write"},
            {"telemetry.summary.write.share", "ratio", From::kSelfShare,
             "telemetry.summary.write"},
            {"telemetry.trace_json.bytes", "B", From::kValue, ""},
            {"telemetry.trace_json.events", "count", From::kValue, ""},
            {"telemetry.ledger.bytes", "B", From::kValue, ""},
            {"telemetry.trace.x_replay", "ratio", From::kValue, ""},
            {"telemetry.ledger.x_replay", "ratio", From::kValue, ""},
            {"checkpoint.write.share", "ratio", From::kSelfShare, "checkpoint.write"},
            {"checkpoint.participants_save.share", "ratio", From::kSelfShare,
             "checkpoint.participants_save"},
            {"checkpoint.writes", "count", From::kValue, ""},
            {"checkpoint.bytes", "B", From::kValue, ""},
            {"fleet.rounds", "count", From::kValue, ""},
            {"fleet.node_steps", "count", From::kValue, ""},
            {"fleet.jobs_completed", "count", From::kValue, ""},
            {"fleet.deadline_misses", "count", From::kValue, ""},
            {"fleet.rounds_per_s", "1/s", From::kValue, ""},
            {"fleet.all_threads_x", "ratio", From::kValue, ""},
        };
        m.insert(m.end(), rest.begin(), rest.end());
        return m;
    }();
    return metrics;
}

/// Sums over the traced run's spans, by span name.
struct LayerStats {
    std::map<std::string, double> self_s; ///< ops: sum of self time
    std::map<std::string, double> busy_s; ///< ops: sum of duration
    std::map<std::string, double> calls;  ///< ops: sum of calls
    std::map<std::string, double> setup_busy_s;
    double op_wall_s = 0.0;    ///< sum of traced op wall times
    double setup_wall_s = 0.0; ///< sum of traced set-up wall times
    double covered_s = 0.0;    ///< sum over ops of non-negative self times

    static double get(const std::map<std::string, double>& m, const std::string& name)
    {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    }
    double of_ops(const std::map<std::string, double>& m, const std::string& name) const
    {
        return op_wall_s > 0.0 ? get(m, name) / op_wall_s : 0.0;
    }
};

// --- workloads ------------------------------------------------------------------

/// Every workload has two classes of op, a cheap one and an expensive one
/// (record: Evrard and turbulence; replay and observe: baseline and ManDyn;
/// fleet: negotiated and uniform cap).
struct Samples {
    std::vector<double> fast_s; ///< successful ops of the cheap class
    std::vector<double> slow_s; ///< successful ops of the expensive class
    std::vector<long> traced_ops; ///< span op ids of the traced ops
    long attempted = 0;
    long failed = 0;

    void append(const Samples& o)
    {
        fast_s.insert(fast_s.end(), o.fast_s.begin(), o.fast_s.end());
        slow_s.insert(slow_s.end(), o.slow_s.begin(), o.slow_s.end());
        traced_ops.insert(traced_ops.end(), o.traced_ops.begin(), o.traced_ops.end());
        attempted += o.attempted;
        failed += o.failed;
    }

    /// The fastest op of each class, summed: one op of each at the host's
    /// quietest.  (The classes differ in cost, so a median over both
    /// lands between them.)
    double quietest_pair_s() const { return quantile(fast_s, 0.0) + quantile(slow_s, 0.0); }
};

/// Values a workload measured for kValue per-layer metrics.
using Values = std::map<std::string, double>;

/// Thread count of every measured library call.  The host shares a few
/// cores with other tenants: an op spread over all of them is slowed by
/// whichever core is busiest, so one thread measures the code rather than
/// the neighbours.  (Replay and fleet run no slower on one thread; the
/// traced run reports the hardware-concurrency ratio as *.all_threads_x.)
constexpr int kThreads = 1;

class Workload {
public:
    Workload(const Sizes& sizes, std::uint64_t seed, ScratchDir& scratch)
        : sizes_(sizes), seed_(seed), scratch_(scratch)
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /// Build every input from the seed, discarding any earlier set-up.
    virtual void setup() = 0;

    /// Closed loop, one caller, until `seconds` elapsed and `min_ops` ran.
    virtual Samples measure(double seconds, long min_ops)
    {
        Samples s;
        const std::int64_t start = now_ns();
        while (s.attempted < min_ops || seconds_of(now_ns() - start) < seconds) {
            ++s.attempted;
            const long op = g_spans.begin_op();
            try {
                const std::int64_t t0 = now_ns();
                {
                    Scope root(g_spans, root_span());
                    run(kThreads);
                }
                const double dt = seconds_of(now_ns() - t0);
                g_spans.end_op();
                verify(g_spans.enabled());
                (slow() ? s.slow_s : s.fast_s).push_back(dt);
                if (op != 0) s.traced_ops.push_back(op);
            }
            catch (const std::exception& e) {
                g_spans.end_op();
                ++s.failed;
                std::cerr << "op " << s.attempted << " failed: " << e.what() << "\n";
            }
        }
        return s;
    }

    /// After the traced half: fill the workload's kValue metrics.  May run
    /// extra untraced ops (single-thread passes, in-process probes).
    virtual void layer_values(const Samples& untraced, const Samples& traced,
                              const LayerStats& stats, Values& out) = 0;

protected:
    virtual const char* root_span() const = 0;
    /// One op with the library's thread count `n_threads`; keeps what
    /// verify() checks.
    virtual void run(int n_threads) = 0;
    /// Check the outputs of the last run(); throws CheckFailure.
    virtual void verify(bool traced) = 0;
    /// Whether the last run() belongs to the workload's expensive class.
    virtual bool slow() const = 0;
    /// Ops in one cycle through the workload's distinct ops.
    virtual int cycle() const { return 2; }

    /// Wall time of one cycle of untraced, checked ops at `n_threads`.
    double time_cycle(int n_threads)
    {
        double t = 0.0;
        for (int i = 0; i < cycle(); ++i) {
            t += median_time(1, [&] { run(n_threads); });
            verify(false);
        }
        return t;
    }

    /// One untimed cycle, so caches fill and lazy set-up finishes.
    void warm_up()
    {
        Scope s(g_spans, "setup.warmup");
        for (int i = 0; i < cycle(); ++i) {
            run(kThreads);
            verify(false);
        }
    }

    Sizes sizes_;
    std::uint64_t seed_;
    ScratchDir& scratch_;
};

/// Record, serialize and parse back a trace, as `run --trace-in` consumes
/// one recorded earlier.
sim::WorkloadTrace recorded_trace(const sim::WorkloadSpec& spec, double* bytes)
{
    sim::WorkloadTrace recorded;
    {
        Scope s(g_spans, "sim.record_trace");
        recorded = sim::record_trace(spec);
    }
    std::string text;
    {
        Scope s(g_spans, "sim.trace.serialize");
        text = recorded.serialize();
    }
    *bytes = static_cast<double>(text.size());
    Scope s(g_spans, "sim.trace.parse");
    return sim::WorkloadTrace::parse(text);
}

// --- record -----------------------------------------------------------------------

class RecordWorkload final : public Workload {
public:
    using Workload::Workload;

    void setup() override
    {
        // Two initial-condition variants of each kind; ops cycle through the
        // four (turbulence, Evrard, turbulence, Evrard) so each one repeats
        // within a run.  Set-up computes every spec's total energy after its
        // first step: the base of the drift check.
        util::Rng rng(seed_);
        cases_.clear();
        for (int v = 0; v < 2; ++v) {
            sim::WorkloadSpec turbulence = turbulence_spec(sizes_.record_turbulence_nside,
                                                           sizes_.record_steps, rng.next());
            sim::WorkloadSpec evrard = turbulence;
            evrard.kind = sim::WorkloadKind::kEvrardCollapse;
            evrard.real_nside = sizes_.record_evrard_nside;
            evrard.particles_per_gpu = 80e6;
            for (const auto& spec : {turbulence, evrard}) {
                Scope s(g_spans, "setup.reference_step");
                sph::SphSimulation simulation = sim::make_simulation(spec);
                simulation.step();
                Case c;
                c.spec = spec;
                c.e0 = simulation.diagnostics().e_total;
                cases_.push_back(std::move(c));
            }
        }
        next_case_ = 0;
        neighbor_pairs_ = 0.0;
    }

    void layer_values(const Samples&, const Samples& traced, const LayerStats& stats,
                      Values& out) override
    {
        const double ops = static_cast<double>(traced.traced_ops.size());
        out["sph.neighbor_pairs"] = neighbor_pairs_ / ops;
        const double find_us = LayerStats::get(stats.self_s, "sph.FindNeighbors") * 1e6;
        out["sph.FindNeighbors.pairs_per_us"] = find_us > 0.0 ? neighbor_pairs_ / find_us : 0.0;
    }

protected:
    const char* root_span() const override { return "record.op"; }

    void run(int /*n_threads: the recorder is serial*/) override
    {
        last_ = next_case_;
        next_case_ = (next_case_ + 1) % cases_.size();
        Case& c = cases_[last_];
        if (g_spans.enabled()) {
            c.trace = record_traced(c.spec, c.diag);
        }
        else {
            Scope s(g_spans, "sim.record_trace");
            c.trace = sim::record_trace(c.spec, &c.diag);
        }
    }

    void verify(bool traced) override
    {
        Case& c = cases_[last_];
        const std::string what = sim::to_string(c.spec.kind);
        const std::string text = c.trace.serialize();
        expect(sim::WorkloadTrace::parse(text).serialize() == text,
               what + ": parse(serialize(trace)) does not round-trip");
        const std::uint64_t hash = util::fnv1a64(text);
        if (traced && !c.reference_untraced) {
            c.reference = util::fnv1a64(sim::record_trace(c.spec).serialize());
            c.reference_untraced = true;
        }
        if (!c.reference) {
            c.reference = hash;
            c.reference_untraced = !traced;
        }
        expect(hash == *c.reference,
               what + (traced ? ": traced record loop differs from sim::record_trace"
                              : ": same-seed recordings differ"));
        // The conservation tolerance of the SPH function tests.
        expect(close_rel(c.diag.e_total, c.e0, 0.02),
               what + ": total energy drifted by more than 2%");
    }

    /// The turbulence recording (twice the particles of Evrard's).
    bool slow() const override
    {
        return cases_[last_].spec.kind == sim::WorkloadKind::kSubsonicTurbulence;
    }
    int cycle() const override { return static_cast<int>(cases_.size()); }

private:
    struct Case {
        sim::WorkloadSpec spec;
        double e0 = 0.0;
        sim::WorkloadTrace trace;
        sph::StepDiagnostics diag;
        std::optional<std::uint64_t> reference; ///< fnv1a64 of serialize()
        bool reference_untraced = false;
    };

    /// sim::record_trace with a span around each public call it makes
    /// (make_simulation, every SPH function, the SFC analysis); verify()
    /// holds it to record_trace's output byte for byte.
    sim::WorkloadTrace record_traced(const sim::WorkloadSpec& spec, sph::StepDiagnostics& diag)
    {
        std::optional<sph::SphSimulation> simulation;
        {
            Scope s(g_spans, "sim.record.ic");
            simulation.emplace(sim::make_simulation(spec));
        }
        sim::WorkloadTrace trace;
        trace.workload_name = sim::to_string(spec.kind);
        trace.kind = spec.kind;
        trace.n_particles_real = static_cast<double>(simulation->particles().size());
        trace.particles_per_gpu = spec.particles_per_gpu;
        const auto order = sph::function_order(simulation->config().gravity);
        for (int step = 0; step < spec.n_steps; ++step) {
            sim::StepRecord record;
            for (const sph::SphFunction fn : order) {
                gpusim::KernelWork work;
                {
                    Scope s(g_spans, function_span(fn));
                    work = simulation->run_function(fn);
                }
                if (fn == sph::SphFunction::kFindNeighbors) {
                    neighbor_pairs_ +=
                        static_cast<double>(simulation->neighbors().total_pairs());
                }
                record.functions.push_back({fn, work});
            }
            trace.steps.push_back(std::move(record));
        }
        {
            Scope s(g_spans, "sim.record.sfc_analysis");
            trace.halo_surface_prefactor =
                sph::analyze_sfc_decomposition(*simulation, 8).surface_prefactor;
        }
        diag = simulation->diagnostics();
        return trace;
    }

    std::vector<Case> cases_; ///< per variant: turbulence, Evrard
    std::size_t next_case_ = 0;
    std::size_t last_ = 0;
    double neighbor_pairs_ = 0.0; ///< traced ops
};

// --- replay and observe ------------------------------------------------------------

/// Run `policy` as core::run_with_policy does.  When tracing, the same
/// three steps run here instead (configure, attach over `hooks`,
/// run_instrumented) so the policy's hook chain can be timed; `observers`
/// are the timers already wrapped around `hooks`, outermost first, and
/// `extra` adds aggregates under the run span.
sim::RunResult run_policy(const sim::SystemSpec& system, const sim::WorkloadTrace& trace,
                          sim::RunConfig cfg, core::FrequencyPolicy& policy,
                          sim::RunHooks hooks, const std::string& hook_name,
                          const std::vector<HookTimer*>& observers = {},
                          const std::function<void(int)>& extra = {})
{
    if (!g_spans.enabled()) {
        return core::run_with_policy(system, trace, std::move(cfg), policy,
                                     std::move(hooks));
    }
    policy.configure(cfg);
    policy.attach(hooks, cfg.n_ranks);
    HookTimer timer{hook_name};
    timer.wrap(hooks);
    Scope run(g_spans, "sim.run_instrumented");
    sim::RunResult result = sim::run_instrumented(system, trace, cfg, hooks);
    std::vector<HookTimer*> chain{&timer};
    chain.insert(chain.end(), observers.begin(), observers.end());
    bench::add_hook_spans(g_spans, run.id(), chain);
    if (extra) extra(run.id());
    return result;
}

/// ManDyn as `run --policy mandyn` builds it: sweep, then table + audit.
std::unique_ptr<core::FrequencyPolicy> mandyn_policy(const sim::SystemSpec& system,
                                                     const sim::WorkloadTrace& trace,
                                                     int n_threads)
{
    tuning::SweepOptions options;
    options.n_threads = n_threads;
    std::vector<tuning::FunctionSweepEntry> sweep;
    {
        Scope s(g_spans, "tuning.sweep_sph_functions");
        sweep = tuning::sweep_sph_functions(trace, system.gpu, options);
    }
    return core::make_mandyn_policy(
        tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz),
        tuning::audit_info_from_sweep(sweep), system.gpu.vendor);
}

/// Shared by replay and observe: the replayed trace and the library
/// counters read per traced op.
class ReplayBase : public Workload {
public:
    using Workload::Workload;

    void setup() override
    {
        system_ = sim::mini_hpc();
        util::Rng rng(seed_);
        trace_ = recorded_trace(
            turbulence_spec(sizes_.trace_nside, sizes_.trace_steps, rng.next()),
            &trace_bytes_);
        prepare();
        warm_up();
    }

    Samples measure(double seconds, long min_ops) override
    {
        const auto before = library_counters();
        Samples s = Workload::measure(seconds, min_ops);
        if (g_spans.enabled()) {
            const auto after = library_counters();
            for (std::size_t i = 0; i < after.size(); ++i) {
                traced_counters_[i] = after[i] - before[i];
            }
        }
        return s;
    }

protected:
    static constexpr std::array<const char*, 5> kCounters = {
        "controller.apply.calls", "controller.skipped.calls", "tuner.sweep.launches",
        "checkpoint.writes", "checkpoint.bytes"};

    static std::array<double, 5> library_counters()
    {
        std::array<double, 5> v{};
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = counter(kCounters[i]);
        return v;
    }

    /// Common kValue metrics: per traced op.
    void replay_values(const Samples& traced, const LayerStats& stats, Values& out) const
    {
        const double ops = static_cast<double>(traced.traced_ops.size());
        out["sim.trace.bytes"] = trace_bytes_;
        out["core.clock_sets"] = traced_counters_[0] / ops;
        out["core.clock_sets_skipped"] = traced_counters_[1] / ops;
        out["tuning.sweep.launches"] = traced_counters_[2] / ops;
        out["checkpoint.writes"] = traced_counters_[3] / ops;
        out["checkpoint.bytes"] = traced_counters_[4] / ops;
        double calls = 0.0;
        for (const char* hook : {"core.baseline.hook", "core.mandyn.hook", "core.online.hook"}) {
            calls += LayerStats::get(stats.calls, hook);
        }
        out["sim.hooks.calls"] = calls / ops;
    }

    /// Reset per-set-up state before the warm-up ops.
    virtual void prepare() = 0;

    sim::SystemSpec system_;
    sim::WorkloadTrace trace_;
    double trace_bytes_ = 0.0;
    std::array<double, 5> traced_counters_{};
};

class ReplayWorkload final : public ReplayBase {
public:
    using ReplayBase::ReplayBase;

    void layer_values(const Samples&, const Samples& traced, const LayerStats& stats,
                      Values& out) override
    {
        replay_values(traced, stats, out);
        out["sim.replay.all_threads_x"] = time_cycle(0) / time_cycle(kThreads);
    }

protected:
    const char* root_span() const override { return "replay.op"; }

    void prepare() override
    {
        reference_.clear();
        next_ = 0;
    }
    int cycle() const override { return static_cast<int>(results_.size()); }

    /// One replay per op, cycling baseline → ManDyn → online.
    void run(int n_threads) override
    {
        last_ = next_;
        next_ = (next_ + 1) % results_.size();
        sim::RunConfig cfg;
        cfg.n_ranks = sizes_.replay_ranks;
        cfg.n_steps = sizes_.replay_steps;
        cfg.setup_s = 45.0;
        cfg.n_threads = n_threads;
        if (last_ == 0) {
            Scope s(g_spans, "sim.replay.baseline");
            auto policy = core::make_baseline_policy();
            results_[0] = run_policy(system_, trace_, cfg, *policy, {}, "core.baseline.hook");
        }
        else if (last_ == 1) {
            Scope s(g_spans, "sim.replay.mandyn");
            auto policy = mandyn_policy(system_, trace_, n_threads);
            results_[1] = run_policy(system_, trace_, cfg, *policy, {}, "core.mandyn.hook");
        }
        else {
            // `run --policy online --tune-strategy model`
            Scope s(g_spans, "sim.replay.online");
            core::OnlineTunerConfig online;
            online.candidate_clocks = tuning::paper_frequency_band(system_.gpu);
            online.strategy = core::TuneStrategy::kModel;
            auto policy = core::make_online_mandyn_policy(online, system_.gpu.vendor);
            results_[2] = run_policy(system_, trace_, cfg, *policy, {}, "core.online.hook");
        }
    }

    void verify(bool /*traced*/) override
    {
        static const char* names[] = {"baseline", "mandyn", "online"};
        const sim::RunResult& r = results_[last_];
        const std::uint64_t hash = fingerprint(r);
        const auto [it, inserted] = reference_.emplace(last_, hash);
        expect(inserted || it->second == hash,
               std::string(names[last_]) + ": repeated replay is not bit-identical");
        double sum = 0.0;
        for (const auto& f : r.per_function) sum += f.gpu_energy_j;
        // run_instrumented charges no function for the end-of-step catch-up
        // idle, so the functions account for the total to within 0.1%.
        expect(sum <= r.gpu_energy_j * (1.0 + 1e-12) && sum >= r.gpu_energy_j * 0.999,
               std::string(names[last_]) +
                   ": per-function GPU energy does not add up to the run total");
        // Baseline always runs first after prepare().
        if (last_ == 1) {
            expect(results_[1].edp() < results_[0].edp(),
                   "ManDyn node EDP is not below baseline");
        }
    }

    /// ManDyn (sweep + run) and online: the policy-driven replays.
    bool slow() const override { return last_ != 0; }

private:
    std::array<sim::RunResult, 3> results_;
    std::map<std::size_t, std::uint64_t> reference_;
    std::size_t next_ = 0;
    std::size_t last_ = 0;
};

class ObserveWorkload final : public ReplayBase {
public:
    using ReplayBase::ReplayBase;

    void layer_values(const Samples&, const Samples& traced, const LayerStats& stats,
                      Values& out) override
    {
        replay_values(traced, stats, out);
        // Observer cost against host replay time.  Base: the same runs
        // without observers (ManDyn's sweep included), the mean of one
        // baseline and one ManDyn run, timed here untraced.
        const double base_s = median_time(5, [&] {
            plain_run(0);
            plain_run(1);
        }) / 2.0;
        std::cerr << "observe: replay base (mean of baseline and ManDyn without observers) "
                  << base_s * 1e3 << " ms\n";
        const double ops = static_cast<double>(traced.traced_ops.size());
        auto x_replay = [&](std::initializer_list<const char*> spans) {
            double s = 0.0;
            for (const char* name : spans) s += LayerStats::get(stats.self_s, name);
            return s / ops / base_s;
        };
        out["telemetry.trace.x_replay"] = x_replay(
            {"telemetry.run_tracer.hook", "telemetry.trace_json.render",
             "telemetry.trace_json.write"});
        out["telemetry.ledger.x_replay"] =
            x_replay({"telemetry.ledger.hook", "telemetry.ledger.write"});
        out["telemetry.trace_json.bytes"] = mean(trace_json_bytes_);
        out["telemetry.trace_json.events"] = mean(trace_json_events_);
        out["telemetry.ledger.bytes"] = mean(ledger_bytes_);
    }

protected:
    const char* root_span() const override { return "observe.op"; }

    void prepare() override
    {
        reference_ = {};
        next_ = 0;
        checked_files_ = false;
        Scope s(g_spans, "setup.plain_run");
        for (std::size_t p = 0; p < plain_.size(); ++p) plain_[p] = fingerprint(plain_run(p));
    }

    /// Ops alternate baseline (0) and ManDyn (1, sweep included).
    std::unique_ptr<core::FrequencyPolicy> make_policy(std::size_t which, int n_threads) const
    {
        if (which == 0) return core::make_baseline_policy();
        return mandyn_policy(system_, trace_, n_threads);
    }

    bool slow() const override { return last_ == 1; }

    sim::RunConfig base_config() const
    {
        sim::RunConfig cfg;
        cfg.n_ranks = sizes_.observe_ranks;
        cfg.n_steps = sizes_.observe_steps;
        cfg.setup_s = 45.0;
        cfg.n_threads = kThreads;
        return cfg;
    }

    /// The same run without observers: the result they must not perturb.
    sim::RunResult plain_run(std::size_t which)
    {
        auto policy = make_policy(which, kThreads);
        return core::run_with_policy(system_, trace_, base_config(), *policy);
    }

    /// `greensph run --policy baseline|mandyn --trace-json --sample-every
    /// --ledger --summary-json --checkpoint-every`, composed as cmd_run
    /// composes it: tracer, sampler, ledger, then the policy over them.
    void run(int n_threads) override
    {
        last_ = next_;
        next_ ^= 1;
        const int n = sizes_.observe_ranks;
        sim::RunConfig cfg = base_config();
        cfg.n_threads = n_threads;
        cfg.checkpoint_every = sizes_.observe_checkpoint_every;
        cfg.checkpoint_dir = scratch_.file("checkpoints");
        cfg.config_hash = "bench_e2e-observe";
        cfg.enable_rank0_trace = true;

        auto policy = make_policy(last_, n_threads);
        const bool traced = g_spans.enabled();
        sim::RunHooks hooks;
        telemetry::RunTracer tracer(n);
        HookTimer tracer_timer{"telemetry.run_tracer.hook"};
        tracer.attach(hooks);
        if (traced) tracer_timer.wrap(hooks);
        telemetry::LiveSampler sampler(n);
        HookTimer sampler_timer{"telemetry.sampler.hook"};
        sampler.attach(hooks);
        if (traced) sampler_timer.wrap(hooks);
        ledger_ = std::make_unique<telemetry::AttributionLedger>(n);
        HookTimer ledger_timer{"telemetry.ledger.hook"};
        ledger_->attach(hooks);
        if (traced) ledger_timer.wrap(hooks);

        checkpoint::StateRegistry registry;
        HookTimer save_timer{"checkpoint.participants_save"};
        auto participant = [&](const char* name, checkpoint::StateRegistry::SaveFn save,
                               checkpoint::StateRegistry::RestoreFn restore) {
            if (!traced) {
                registry.add(name, std::move(save), std::move(restore), /*optional=*/true);
                return;
            }
            registry.add(
                name,
                [&save_timer, save](checkpoint::StateWriter& w) {
                    const std::int64_t t0 = now_ns();
                    save(w);
                    save_timer.ns += now_ns() - t0;
                    ++save_timer.calls;
                },
                std::move(restore), /*optional=*/true);
        };
        core::FrequencyPolicy* p = policy.get();
        telemetry::AttributionLedger* led = ledger_.get();
        participant(
            "policy", [p](checkpoint::StateWriter& w) { p->save_state(w); },
            [p](const checkpoint::StateReader& r) { p->restore_state(r); });
        participant(
            "runtracer", [&tracer](checkpoint::StateWriter& w) { tracer.save_state(w); },
            [&tracer](const checkpoint::StateReader& r) { tracer.restore_state(r); });
        participant(
            "sampler", [&sampler](checkpoint::StateWriter& w) { sampler.save_state(w); },
            [&sampler](const checkpoint::StateReader& r) { sampler.restore_state(r); });
        participant(
            "anomaly",
            [&sampler](checkpoint::StateWriter& w) { sampler.anomaly().save_state(w); },
            [&sampler](const checkpoint::StateReader& r) {
                sampler.anomaly().restore_state(r);
            });
        participant(
            "ledger", [led](checkpoint::StateWriter& w) { led->save_state(w); },
            [led](const checkpoint::StateReader& r) { led->restore_state(r); });
        cfg.checkpoint_participants = &registry;

        // checkpoint.write_seconds covers CheckpointWriter::write (encode +
        // durable write); the participants' save calls run before it.
        const double write_s0 = counter("checkpoint.write_seconds");
        const double writes0 = counter("checkpoint.writes");
        result_ = run_policy(system_, trace_, cfg, *policy, hooks,
                             last_ == 0 ? "core.baseline.hook" : "core.mandyn.hook",
                             {&ledger_timer, &sampler_timer, &tracer_timer},
                             [&](int run_span) {
                                 g_spans.aggregate("checkpoint.participants_save", run_span,
                                                   save_timer.ns, save_timer.calls);
                                 const double w = counter("checkpoint.write_seconds") - write_s0;
                                 g_spans.aggregate(
                                     "checkpoint.write", run_span,
                                     static_cast<std::int64_t>(w * 1e9),
                                     static_cast<long>(counter("checkpoint.writes") - writes0));
                             });

        if (!result_.rank0_clock_trace.empty()) {
            tracer.add_counter_series(0, "governor_clock_mhz", result_.rank0_clock_trace);
        }
        const std::string trace_path = scratch_.file("trace.json");
        if (traced) {
            // SpanTracer::write_file is exactly render + atomic write.
            std::string json;
            {
                Scope s(g_spans, "telemetry.trace_json.render");
                json = tracer.tracer().to_chrome_json();
            }
            Scope s(g_spans, "telemetry.trace_json.write");
            expect(util::atomic_write_file(trace_path, json + "\n"), "cannot write the trace");
        }
        else {
            expect(tracer.write_chrome_json(trace_path), "cannot write the trace");
        }
        trace_json_events_[last_] = static_cast<double>(tracer.tracer().event_count());
        {
            Scope s(g_spans, "telemetry.ledger.write");
            telemetry::Json header = telemetry::Json::object();
            header["system"] = system_.name;
            header["policy"] = policy->name();
            header["ranks"] = n;
            header["steps"] = cfg.n_steps;
            expect(ledger_->write_jsonl(scratch_.file("ledger.jsonl"), header),
                   "cannot write the ledger");
        }
        {
            Scope s(g_spans, "telemetry.summary.write");
            telemetry::RunSummaryContext ctx;
            ctx.policy = policy->name();
            ctx.checkpoints_written = result_.checkpoints_written;
            ctx.alerts = sampler.anomaly().alerts_json();
            expect(telemetry::write_run_summary(scratch_.file("summary.json"), result_, ctx),
                   "cannot write the run summary");
        }
    }

    void verify(bool /*traced*/) override
    {
        const std::uint64_t hash = fingerprint(result_);
        std::optional<std::uint64_t>& reference = reference_[last_];
        if (!reference) reference = hash;
        expect(hash == *reference, "repeated observed run is not bit-identical");
        expect(hash == plain_[last_], "observers changed the run's result");
        expect(close_rel(ledger_->attributed_energy_j(), result_.gpu_energy_j, 1e-9),
               "ledger buckets do not sum to the run's GPU energy");
        const int every = sizes_.observe_checkpoint_every;
        expect(result_.checkpoints_written == (sizes_.observe_steps - 1) / every,
               "unexpected checkpoint count");
        trace_json_bytes_[last_] =
            static_cast<double>(fs::file_size(scratch_.file("trace.json")));
        ledger_bytes_[last_] = static_cast<double>(fs::file_size(scratch_.file("ledger.jsonl")));
        if (!checked_files_) {
            checked_files_ = true;
            const auto trace = telemetry::Json::parse(read_file(scratch_.file("trace.json")));
            expect(trace.is_array() && trace.size() > 0, "Chrome trace is not an event array");
            const auto summary = telemetry::Json::parse(read_file(scratch_.file("summary.json")));
            expect(summary.at("schema").as_string() == "greensph.run_summary/v1",
                   "run summary has the wrong schema");
            std::istringstream ledger(read_file(scratch_.file("ledger.jsonl")));
            std::string header;
            std::getline(ledger, header);
            expect(telemetry::Json::parse(header).at("schema").as_string() ==
                       telemetry::kLedgerSchema,
                   "ledger header has the wrong schema");
        }
        std::error_code ec;
        fs::remove_all(scratch_.file("checkpoints"), ec);
    }

private:
    static double mean(const std::array<double, 2>& v) { return (v[0] + v[1]) / 2.0; }

    sim::RunResult result_;
    std::unique_ptr<telemetry::AttributionLedger> ledger_;
    // Per policy (baseline, ManDyn):
    std::array<std::optional<std::uint64_t>, 2> reference_;
    std::array<std::uint64_t, 2> plain_{};
    std::array<double, 2> trace_json_bytes_{};
    std::array<double, 2> trace_json_events_{};
    std::array<double, 2> ledger_bytes_{};
    std::size_t next_ = 0;
    std::size_t last_ = 0;
    bool checked_files_ = false;
};

// --- fleet ---------------------------------------------------------------------------

class FleetWorkload final : public Workload {
public:
    using Workload::Workload;

    void setup() override
    {
        // bench_fleet's system and budget; the CLI fleet command's job mix.
        util::Rng rng(seed_);
        cfg_ = fleet::FleetConfig{};
        cfg_.system = sim::cscs_a100();
        cfg_.trace = recorded_trace(
            turbulence_spec(sizes_.trace_nside, sizes_.trace_steps, rng.next()),
            &trace_bytes_);
        cfg_.n_nodes = sizes_.fleet_nodes;
        fleet::JobMixConfig mix;
        mix.n_jobs = sizes_.fleet_jobs;
        mix.max_nodes_per_job = 4;
        mix.min_steps = 2;
        mix.max_steps = 6;
        {
            Scope s(g_spans, "fleet.estimate_step_s");
            mix.est_step_s = fleet::estimate_step_s(cfg_.system, cfg_.trace);
        }
        mix.mean_interarrival_s = 4.0 * mix.est_step_s;
        mix.deadline_slack = 3.0;
        mix.overhead_s = cfg_.setup_s + cfg_.teardown_s;
        mix.seed = rng.next();
        cfg_.jobs = fleet::generate_jobs(mix);
        node_steps_ = 0.0;
        for (const auto& job : cfg_.jobs) node_steps_ += job.n_nodes * job.n_steps;
        const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0, cfg_.system,
                                            cfg_.n_nodes);
        cfg_.budget_w = 0.45 * cfg_.n_nodes * probe.node_tdp_w();
        reference_ = {};
        next_ = 0;
        warm_up();
    }

    void layer_values(const Samples& untraced, const Samples&, const LayerStats&,
                      Values& out) override
    {
        // Per op: the mean of one op of each policy.
        const double rounds = (results_[0].rounds + results_[1].rounds) / 2.0;
        out["sim.trace.bytes"] = trace_bytes_;
        out["fleet.rounds"] = rounds;
        out["fleet.node_steps"] = node_steps_;
        out["fleet.jobs_completed"] = (results_[0].jobs_completed + results_[1].jobs_completed) / 2.0;
        out["fleet.deadline_misses"] =
            (results_[0].deadline_misses + results_[1].deadline_misses) / 2.0;
        out["fleet.rounds_per_s"] = 2.0 * rounds / untraced.quietest_pair_s();
        out["fleet.all_threads_x"] = time_cycle(0) / time_cycle(kThreads);
    }

protected:
    const char* root_span() const override { return "fleet.op"; }

    /// Ops alternate the negotiated policy (which also plans ManDyn
    /// per-kernel clocks on every node) and the uniform cap, which throttles
    /// every node alike, so its jobs take several times the rounds.
    static constexpr std::array<fleet::FleetPolicy, 2> kPolicies = {
        fleet::FleetPolicy::kNegotiated, fleet::FleetPolicy::kUniformCap};

    void run(int n_threads) override
    {
        last_ = next_;
        next_ ^= 1;
        fleet::FleetConfig cfg = cfg_;
        cfg.n_threads = n_threads;
        cfg.policy = kPolicies[last_];
        Scope s(g_spans, "fleet.run_fleet");
        results_[last_] = fleet::run_fleet(cfg);
    }

    void verify(bool /*traced*/) override
    {
        const fleet::FleetResult& result = results_[last_];
        expect(result.jobs_completed == static_cast<int>(cfg_.jobs.size()),
               "not every job completed");
        const std::uint64_t hash = fingerprint(result);
        std::optional<std::uint64_t>& reference = reference_[last_];
        if (!reference) reference = hash;
        expect(hash == *reference, "repeated fleet run is not bit-identical");
    }

    bool slow() const override { return last_ == 1; }

private:
    fleet::FleetConfig cfg_;
    double trace_bytes_ = 0.0;
    double node_steps_ = 0.0;
    // Per policy (negotiated, uniform cap):
    std::array<fleet::FleetResult, 2> results_;
    std::array<std::optional<std::uint64_t>, 2> reference_;
    std::size_t next_ = 0;
    std::size_t last_ = 0;
};

// --- main --------------------------------------------------------------------------

const std::vector<std::string> kWorkloads = {"record", "replay", "observe", "fleet"};

std::unique_ptr<Workload> make_workload(const std::string& name, const Sizes& sizes,
                                        std::uint64_t seed, ScratchDir& scratch)
{
    if (name == "record") return std::make_unique<RecordWorkload>(sizes, seed, scratch);
    if (name == "replay") return std::make_unique<ReplayWorkload>(sizes, seed, scratch);
    if (name == "observe") return std::make_unique<ObserveWorkload>(sizes, seed, scratch);
    if (name == "fleet") return std::make_unique<FleetWorkload>(sizes, seed, scratch);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Report {
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics;

    std::string json() const
    {
        telemetry::Json j = telemetry::Json::object();
        j["correct"] = correct;
        j["attempted"] = attempted;
        j["failed"] = failed;
        telemetry::Json m = telemetry::Json::object();
        for (const auto& [name, value, unit] : metrics) {
            telemetry::Json v = telemetry::Json::object();
            v["value"] = value;
            v["unit"] = unit;
            m[name] = std::move(v);
        }
        j["metrics"] = std::move(m);
        return j.dump();
    }
};

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_path; ///< empty: untraced
    int setups = 5;         ///< --check sets up once
    std::string tmp = ".";
    long min_ops = 1;
};

/// Sum span statistics: the measured traced ops' spans, and set-up spans
/// (everything else, such as the warm-up ops).  An op's wall time
/// is its root span's duration; its spans' self times must cover it, which
/// fails when a child outlasts its parent (a mis-nested decomposition).
LayerStats layer_stats(const std::vector<SpanLog::Span>& spans, const Samples& traced,
                       double setup_wall_s, Report& report)
{
    LayerStats st;
    st.setup_wall_s = setup_wall_s;
    const std::vector<std::int64_t> self = bench::self_times(spans);
    std::map<long, std::pair<double, double>> ops; ///< op -> (root wall, covered)
    for (const long op : traced.traced_ops) ops[op] = {0.0, 0.0};
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        const auto op = ops.find(s.op);
        if (op == ops.end()) {
            st.setup_busy_s[s.name] += seconds_of(s.dur_ns);
            continue;
        }
        const double self_s = seconds_of(self[i]);
        st.self_s[s.name] += self_s;
        st.busy_s[s.name] += seconds_of(s.dur_ns);
        st.calls[s.name] += static_cast<double>(s.calls);
        if (s.parent < 0) op->second.first += seconds_of(s.dur_ns);
        op->second.second += std::max(0.0, self_s);
    }
    for (const auto& [op, wall_covered] : ops) {
        const auto [wall, covered] = wall_covered;
        st.op_wall_s += wall;
        st.covered_s += covered;
        if (std::fabs(covered - wall) > 0.01 * wall) {
            std::cerr << "op " << op << ": span self times cover " << covered << " s of "
                      << wall << " s wall time\n";
            report.correct = false;
        }
    }
    return st;
}

Report run_workload(const RunOptions& opt, const Sizes& sizes)
{
    ScratchDir scratch(opt.tmp);
    const auto workload = make_workload(opt.workload, sizes, opt.seed, scratch);
    const bool traced = !opt.trace_path.empty();
    Report report;

    g_spans.reset();
    g_spans.enable(traced);
    std::vector<double> setup_s;
    auto set_up = [&] {
        const std::int64_t t0 = now_ns();
        {
            Scope s(g_spans, "setup");
            workload->setup();
        }
        setup_s.push_back(seconds_of(now_ns() - t0));
    };

    auto account = [&](const Samples& s) {
        report.attempted += s.attempted;
        report.failed += s.failed;
        if (s.failed > 0 || s.fast_s.empty() || s.slow_s.empty()) report.correct = false;
    };
    auto add = [&](const std::string& name, double value, const std::string& unit) {
        report.metrics.emplace_back(name, value, unit);
    };

    if (!traced) {
        // One set-up before each equal segment of the measuring time, so the
        // set-ups sample the host across the whole run, as the ops do.
        Samples s;
        for (int i = 0; i < opt.setups; ++i) {
            set_up();
            s.append(workload->measure(opt.seconds / opt.setups, opt.min_ops));
        }
        account(s);
        add("setup_s", median(setup_s), "s");
        add("fast_op_min_ms", quantile(s.fast_s, 0.0) * 1e3, "ms");
        add("slow_op_min_ms", quantile(s.slow_s, 0.0) * 1e3, "ms");
        add("peak_rss_mb", peak_rss_mb(), "MB");
        std::cerr << opt.workload << ": " << s.fast_s.size() << " fast ops, " << s.slow_s.size()
                  << " slow";
        for (const auto& [name, v] : {std::pair{"fast", &s.fast_s}, std::pair{"slow", &s.slow_s}}) {
            std::cerr << "; " << name << " op ms";
            for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
                std::cerr << " p" << q * 100 << " " << quantile(*v, q) * 1e3;
            }
        }
        std::cerr << "; set-ups s";
        for (const double t : setup_s) std::cerr << " " << t;
        std::cerr << "\n";
        return report;
    }

    for (int i = 0; i < opt.setups; ++i) set_up();
    const double setup_wall_s = std::accumulate(setup_s.begin(), setup_s.end(), 0.0);

    g_spans.enable(false);
    const double cpu0 = cpu_seconds();
    const std::int64_t wall0 = now_ns();
    const Samples untraced = workload->measure(opt.seconds / 2, opt.min_ops);
    g_spans.enable(true);
    const Samples traced_samples = workload->measure(opt.seconds / 2, opt.min_ops);
    g_spans.enable(false);
    const double cpu_per_wall = (cpu_seconds() - cpu0) / seconds_of(now_ns() - wall0);
    account(untraced);
    account(traced_samples);

    const std::vector<SpanLog::Span> spans = g_spans.spans();
    const LayerStats stats = layer_stats(spans, traced_samples, setup_wall_s, report);
    Values values;
    values["trace.op_ms"] =
        stats.op_wall_s / static_cast<double>(traced_samples.traced_ops.size()) * 1e3;
    values["trace.overhead"] = traced_samples.quietest_pair_s() / untraced.quietest_pair_s() - 1.0;
    values["trace.self_coverage"] = stats.op_wall_s > 0.0 ? stats.covered_s / stats.op_wall_s
                                                          : 0.0;
    values["proc.cpu_per_wall"] = cpu_per_wall;
    try {
        workload->layer_values(untraced, traced_samples, stats, values);
    }
    catch (const std::exception& e) {
        std::cerr << "traced extras failed: " << e.what() << "\n";
        report.correct = false;
        ++report.failed;
    }
    values["proc.cpu_s"] = cpu_seconds();

    for (const LayerMetric& m : layer_metrics()) {
        double v = 0.0;
        switch (m.from) {
            case From::kSelfShare: v = stats.of_ops(stats.self_s, m.source); break;
            case From::kBusyShare: v = stats.of_ops(stats.busy_s, m.source); break;
            case From::kSetupShare:
                v = setup_wall_s > 0.0
                        ? LayerStats::get(stats.setup_busy_s, m.source) / setup_wall_s
                        : 0.0;
                break;
            case From::kValue: v = LayerStats::get(values, m.name); break;
        }
        add(m.name, v, m.unit);
    }

    const std::string trace_json =
        bench::chrome_trace(spans, "bench_e2e " + opt.workload).dump() + "\n";
    if (!util::atomic_write_file(opt.trace_path, trace_json)) {
        std::cerr << "cannot write " << opt.trace_path << "\n";
        report.correct = false;
    }
    else {
        std::cerr << "trace (" << spans.size() << " spans) written to " << opt.trace_path
                  << "\n";
    }
    return report;
}

/// True when `report` lists exactly the metrics (names and units, in
/// order) of `listed`, a BENCHMARK.json metric array.
bool lists_match(const Report& report, const telemetry::Json& listed, const std::string& what)
{
    bool same = report.metrics.size() == listed.size();
    for (std::size_t i = 0; same && i < listed.size(); ++i) {
        const auto& [name, value, unit] = report.metrics[i];
        same = listed.at(i).at("name").as_string() == name &&
               listed.at(i).at("unit").as_string() == unit;
    }
    if (!same) std::cerr << what << ": metrics differ from BENCHMARK.json\n";
    return same;
}

/// Every workload at its smallest size, untraced and traced, with all
/// checks.  Given a BENCHMARK.json, each run must report exactly the
/// metrics it lists, and no end-to-end metric may read 0.
int run_check(const std::string& benchmark_path)
{
    std::optional<telemetry::Json> benchmark;
    if (!benchmark_path.empty()) benchmark = telemetry::Json::parse(read_file(benchmark_path));
    const ScratchDir traces(".");
    int status = 0;
    for (const std::string& name : kWorkloads) {
        const std::int64_t t0 = now_ns();
        bool ok = true;
        long ops = 0;
        for (const bool traced : {false, true}) {
            RunOptions opt;
            opt.workload = name;
            opt.seed = 7;
            opt.seconds = 0.0;
            opt.setups = 1;
            opt.min_ops = 5; // record cycles four recordings: a repeat needs 5
            if (traced) opt.trace_path = traces.file(name + ".json");
            const Report r = run_workload(opt, smallest_sizes());
            ops += r.attempted;
            ok = ok && r.correct && r.failed == 0 && r.attempted > 0;
            for (const auto& [metric, value, unit] : r.metrics) {
                if (!traced && !(value > 0.0)) {
                    std::cerr << name << ": " << metric << " reads " << value << "\n";
                    ok = false;
                }
            }
            if (benchmark) {
                ok = lists_match(r, benchmark->at(traced ? "per_layer" : "end_to_end"),
                                 name + (traced ? " traced" : "")) &&
                     ok;
            }
        }
        try {
            const auto events = telemetry::Json::parse(read_file(traces.file(name + ".json")));
            ok = ok && events.is_array() && events.size() > 0;
        }
        catch (const std::exception& e) {
            std::cerr << name << ": trace is not valid JSON: " << e.what() << "\n";
            ok = false;
        }
        std::cout << (ok ? "ok   " : "FAIL ") << name << " (" << ops << " ops, "
                  << seconds_of(now_ns() - t0) << " s)\n";
        if (!ok) status = 1;
    }
    return status;
}

[[noreturn]] void usage(const std::string& error)
{
    std::cerr << "error: " << error << "\n"
              << "usage: bench_e2e --workload record|replay|observe|fleet --seed N\n"
              << "                 [--seconds S] [--trace FILE] [--tmp DIR]\n"
              << "       bench_e2e --check [--benchmark BENCHMARK.json]\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    RunOptions opt;
    bool check = false;
    std::string benchmark;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--check") check = true;
            else if (arg == "--workload") opt.workload = next();
            else if (arg == "--seed") opt.seed = std::stoull(next());
            else if (arg == "--seconds") opt.seconds = std::stod(next());
            else if (arg == "--trace") opt.trace_path = next();
            else if (arg == "--tmp") opt.tmp = next();
            else if (arg == "--benchmark") benchmark = next();
            else usage("unknown option " + arg);
        }
        catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    try {
        if (check) return run_check(benchmark);
        if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) == kWorkloads.end()) {
            usage("--workload must be one of record, replay, observe, fleet");
        }
        if (opt.seconds < 0.0) usage("--seconds must be >= 0");
        const Report report = run_workload(opt, Sizes{});
        std::cout << report.json() << std::endl;
        return report.correct && report.failed == 0 ? 0 : 1;
    }
    catch (const std::exception& e) {
        std::cerr << "bench_e2e: " << e.what() << "\n";
        return 1;
    }
}
