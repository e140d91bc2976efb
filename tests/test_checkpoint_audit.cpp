/// Mutation audit of the checkpoint.  A checkpoint is committed only between
/// steps (or fleet rounds), so it should hold only state that crosses that
/// boundary.  This test takes the checkpoint at every boundary of a few
/// representative runs and one contended fleet, moves every instance of one
/// (section, key) shape at a time up and then down, resumes, and compares
/// every output with the unmoved resume of the same checkpoint.  The keys of
/// the log records a section holds are audited as its text's are.
///
/// A shape is *rejected* at a boundary when every move makes the resume
/// throw, *changes* when some move changes an output, and is *unchanged*
/// otherwise.  A shape that is unchanged at every boundary of every
/// configuration that writes it fails the test, unless allow_list() states why
/// it stays; an allow-list entry fails the test when its shape is no longer
/// unchanged everywhere or is no longer written, so the list cannot go stale.

#include "checkpoint/checkpoint.hpp"
#include "core/frequency_table.hpp"
#include "core/online_tuner.hpp"
#include "core/policy.hpp"
#include "core/profiler.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/fleet.hpp"
#include "gpusim/device.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_tracer.hpp"
#include "telemetry/sampler.hpp"
#include "tuning/kernel_tuner.hpp"
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

namespace gsph {
namespace {

constexpr int kRanks = 4;

/// Shapes that no move changes, and why each stays.
const std::map<std::string, std::string>& allow_list()
{
    static const std::string sensor =
        "sensor surface: the next tick's powers are deltas against the published "
        "values, and no output reads a sensor before that tick publishes";
    static const std::string alerts =
        "decides future anomaly alerts, and no audited run fires the alert a move "
        "would tip (AnomalyDetector.SaveRestoreRoundTripsBitExactly covers it)";
    static const std::string window =
        "a window grows past one sample only once its series passes 512 samples; "
        "the audited series stay shorter";
    static const std::map<std::string, std::string> list = {
        {"anomaly:edp.abs_dev", alerts},
        {"anomaly:last_clock_change_step", alerts},
        {"anomaly:power.abs_dev", alerts},
        {"anomaly:steps_observed", alerts},
        {"sampler:rank.N.last_applied_clock_mhz", alerts},
        {"cpu.N:last_power_w", sensor},
        {"pmcounters.N:published.accel_j", sensor},
        {"pmcounters.N:published.cpu_j", sensor},
        {"pmcounters.N:published.cpu_w", sensor},
        {"pmcounters.N:published.freshness", sensor},
        {"pmcounters.N:published.mem_j", sensor},
        {"pmcounters.N:published.mem_w", sensor},
        {"pmcounters.N:published.node_w", sensor},
        {"pmcounters.N:published.time", sensor},
        {"sampler:rank.N.clock.total", window},
        {"sampler:rank.N.power.total", window},
        {"sampler:rank.N.utilization.total", window},
        {"runtracer:open",
         "the span tracer's generic save: no span is open at a step boundary, and "
         "RunTracer.CheckpointKeepsSpanArgs saves an open one"},
        {"policy:fn.N.active_candidate",
         "a converged function keeps its last candidate, which the measurement-"
         "integrity check reads when the function's clock set fails "
         "(FailureInjection.OnlineTunerConvergesToSameTableUnderFaults counts the "
         "discards); no audited clock set fails after convergence"},
        {"policy:fn.N.await_since",
         "a function stops waiting for its seed anchor after max_seed_wait_calls "
         "(16) calls, more than a 6-step run makes"},
    };
    return list;
}

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_audit_XXXXXX";
        const char* dir = ::mkdtemp(pattern);
        if (!dir) throw std::runtime_error("mkdtemp failed");
        path_ = dir;
    }
    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        (void)std::system(cmd.c_str());
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// The recorded turbulence trace test_checkpoint_resume.cpp replays.
const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 50e6;
        spec.n_steps = 6;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

// ---- moving a value ----------------------------------------------------------

/// `token` moved as moved() says, or nullopt when it is not a number.
std::optional<std::string> moved_number(std::string_view token, bool up)
{
    if (token.size() == 17 && token[0] == 'x') {
        double v = 0.0;
        try {
            v = checkpoint::decode_f64(token);
        }
        catch (const checkpoint::CheckpointError&) {
            return std::nullopt;
        }
        if (!std::isfinite(v)) return checkpoint::encode_f64(up ? 1.0 : -1.0);
        const double step = std::max(std::fabs(v) / 4.0, 1.0);
        return checkpoint::encode_f64(up ? v + step : v - step);
    }
    const bool negative = !token.empty() && token[0] == '-';
    const std::string_view digits = negative ? token.substr(1) : token;
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(),
                     [](char c) { return std::isdigit(static_cast<unsigned char>(c)); })) {
        return std::nullopt;
    }
    if (negative) {
        std::int64_t v = 0;
        std::from_chars(token.data(), token.data() + token.size(), v);
        return std::to_string(up ? v + 1 : v - 1);
    }
    std::uint64_t v = 0;
    std::from_chars(token.data(), token.data() + token.size(), v);
    if (!up && v == 0) return std::string("-1");
    return std::to_string(up ? v + 1 : v - 1);
}

/// `value` (a StateWriter encoding) moved up or down: every number in it by
/// a quarter of its magnitude and at least 1, integers by 1; a string gains
/// a character at its end (up) or start (down).  An empty value gains three
/// items, integers going up and doubles going down, so that whichever the
/// key holds parses.
std::string moved(std::string_view value, bool up)
{
    if (value.empty()) {
        const std::string zero = up ? "0" : checkpoint::encode_f64(0.0);
        return zero + " " + zero + " " + zero;
    }
    std::string out;
    std::size_t begin = 0;
    while (begin <= value.size()) {
        std::size_t end = value.find(' ', begin);
        if (end == std::string_view::npos) end = value.size();
        const auto number = moved_number(value.substr(begin, end - begin), up);
        if (!number) return up ? std::string(value) + "~" : "~" + std::string(value);
        if (!out.empty()) out += ' ';
        out += *number;
        begin = end + 1;
    }
    return out;
}

/// `name` with every all-digit dotted component replaced by N.
std::string shape_of(std::string_view name)
{
    std::string out;
    std::size_t begin = 0;
    while (true) {
        std::size_t end = name.find('.', begin);
        if (end == std::string_view::npos) end = name.size();
        const std::string_view part = name.substr(begin, end - begin);
        const bool index = !part.empty() &&
                           std::all_of(part.begin(), part.end(), [](char c) {
                               return std::isdigit(static_cast<unsigned char>(c));
                           });
        out += index ? std::string_view("N") : part;
        if (end == name.size()) break;
        out += '.';
        begin = end + 1;
    }
    return out;
}

struct Line {
    std::string key;
    std::string value;
};

/// A snapshot taken apart into lines, with every shape's instances.  Each
/// section's lines are its log records, then its text.
struct ParsedSnapshot {
    std::vector<std::vector<Line>> sections;
    std::vector<std::size_t> log_lines; ///< per section: lines from the log
    /// "section shape:key shape" -> (section, line) of every instance.
    std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> shapes;
};

ParsedSnapshot parse(const checkpoint::Snapshot& snap)
{
    ParsedSnapshot parsed;
    for (std::size_t s = 0; s < snap.sections.size(); ++s) {
        const checkpoint::Section& section = snap.sections[s];
        std::vector<Line>& lines = parsed.sections.emplace_back();
        for (const std::string* text : {&section.log, &section.data}) {
            std::size_t begin = 0;
            while (begin < text->size()) {
                const std::size_t end = text->find('\n', begin);
                const std::string_view line = std::string_view(*text).substr(begin, end - begin);
                const std::size_t eq = line.find('=');
                lines.push_back({std::string(line.substr(0, eq)),
                                 std::string(line.substr(eq + 1))});
                parsed.shapes[shape_of(section.name) + ":" + shape_of(lines.back().key)]
                    .emplace_back(s, lines.size() - 1);
                begin = end + 1;
            }
            if (text == &section.log) parsed.log_lines.push_back(lines.size());
        }
    }
    return parsed;
}

/// Lines [from, to) as key=value text.
std::string join(const std::vector<Line>& lines, std::size_t from, std::size_t to)
{
    std::string data;
    for (std::size_t i = from; i < to; ++i) data += lines[i].key + "=" + lines[i].value + "\n";
    return data;
}

/// Section `s` of `parsed` put back together into `section`.
void join(const ParsedSnapshot& parsed, std::size_t s, checkpoint::Section& section)
{
    const std::vector<Line>& lines = parsed.sections[s];
    section.log = join(lines, 0, parsed.log_lines[s]);
    section.data = join(lines, parsed.log_lines[s], lines.size());
}

// ---- outputs -------------------------------------------------------------------

/// Named output texts; equal outputs mean bit-equal results.
using Outputs = std::vector<std::pair<std::string, std::string>>;

void put(std::string& out, double v)
{
    out += checkpoint::encode_f64(v);
    out += ' ';
}

void put(std::string& out, const slurmsim::JobRecord& r)
{
    out += r.job_id + "|" + r.job_name + "|" + std::to_string(r.n_nodes) +
           (r.completed ? "|completed " : "|running ");
    put(out, r.elapsed_s);
    put(out, r.consumed_energy_j);
}

std::string encode(const sim::RunResult& r)
{
    std::string out = r.system_name + "|" + r.workload_name + "|" +
                      std::to_string(r.n_ranks) + "|" + std::to_string(r.n_steps) + "|" +
                      std::to_string(r.checkpoints_written) + "|";
    for (const double v : {r.loop_start_s, r.loop_end_s, r.total_wall_s, r.gpu_energy_j,
                           r.cpu_energy_j, r.memory_energy_j, r.other_energy_j,
                           r.node_energy_j, r.pmt_loop_energy_j}) {
        put(out, v);
    }
    put(out, r.slurm);
    for (const sim::FunctionAggregate& a : r.per_function) {
        for (const double v : {a.time_s, a.gpu_energy_j, a.cpu_energy_j, a.other_energy_j,
                               a.clock_time_product}) {
            put(out, v);
        }
        out += std::to_string(a.calls) + " ";
    }
    out += "|steps ";
    for (const double t : r.step_start_times) put(out, t);
    out += "|clock ";
    for (const util::Sample& s : r.rank0_clock_trace.samples()) {
        put(out, s.time);
        put(out, s.value);
    }
    return out;
}

std::string encode(const fleet::FleetResult& r)
{
    std::string out = std::to_string(r.n_nodes) + "|" + std::to_string(r.n_gpus) + "|" +
                      std::to_string(r.rounds) + "|" + std::to_string(r.paused) + "|" +
                      std::to_string(r.jobs_completed) + "|" +
                      std::to_string(r.deadline_misses) + "|";
    for (const double v : {r.makespan_s, r.node_energy_j, r.gpu_energy_j, r.total_wait_s}) {
        put(out, v);
    }
    for (const fleet::FleetJobOutcome& o : r.jobs) {
        out += "|job ";
        put(out, o.record);
        for (const double v : {o.arrival_s, o.start_s, o.finish_s, o.deadline_s,
                               o.gpu_energy_j}) {
            put(out, v);
        }
        out += o.missed_deadline ? "missed" : "met";
    }
    return out;
}

/// The global registry as --metrics-json writes it, minus the checkpoint
/// writer's own counters and minus instruments left at zero: a resume in
/// this process also sees the instruments earlier runs created.
std::string registry_json()
{
    telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::global().snapshot();
    std::erase_if(snap.counters, [](const auto& c) {
        return c.first.rfind("checkpoint.", 0) == 0 || c.second == 0.0;
    });
    std::erase_if(snap.gauges, [](const auto& g) { return g.second == 0.0; });
    std::erase_if(snap.histograms, [](const auto& h) { return h.second.n == 0; });
    std::erase_if(snap.digests, [](const auto& d) { return d.second.count == 0; });
    telemetry::MetricsRegistry registry;
    registry.restore(snap);
    return registry.to_json().dump();
}

/// Records each device's clock-facing state at every hook, so that state a
/// later hook would read (a latched clock, the last power sample) shows up
/// when it moves.
class DeviceRecorder {
public:
    void attach(sim::RunHooks& hooks)
    {
        hooks.append({
            .before_function = [this](int rank, gpusim::GpuDevice& dev,
                                      sph::SphFunction) { record(rank, dev); },
            .after_function = [this](int rank, gpusim::GpuDevice& dev, sph::SphFunction,
                                     const gpusim::KernelResult&) { record(rank, dev); },
            .after_step =
                [this](int) {
                    for (std::size_t r = 0; r < devices_.size(); ++r) {
                        if (devices_[r]) record(static_cast<int>(r), *devices_[r]);
                    }
                },
        });
    }
    const std::string& text() const { return text_; }

private:
    void record(int rank, const gpusim::GpuDevice& dev)
    {
        const auto r = static_cast<std::size_t>(rank);
        if (devices_.size() <= r) devices_.resize(r + 1, nullptr);
        devices_[r] = &dev;
        text_ += std::to_string(rank) + ":";
        for (const double v : {dev.now(), dev.energy_j(), dev.power_w(),
                               dev.current_clock_mhz(), dev.application_clock_mhz()}) {
            put(text_, v);
        }
    }

    std::vector<const gpusim::GpuDevice*> devices_;
    std::string text_;
};

template <typename Component>
void add_participant(checkpoint::StateRegistry& registry, const char* section,
                     Component* component, bool optional = false)
{
    registry.add(
        section, [component](checkpoint::StateWriter& w) { component->save_state(w); },
        [component](const checkpoint::StateReader& r) { component->restore_state(r); },
        optional);
}

// ---- run configurations --------------------------------------------------------

struct RunCase {
    std::string name;
    std::function<std::unique_ptr<core::FrequencyPolicy>()> make_policy;
    /// Run the policy's hooks under the firmware governor.
    bool native_dvfs = false;
    std::string faults; ///< fault spec; empty: no injector
};

std::unique_ptr<core::FrequencyPolicy> online_policy(core::TuneStrategy strategy)
{
    core::OnlineTunerConfig cfg;
    cfg.candidate_clocks = tuning::paper_frequency_band(sim::mini_hpc().gpu);
    cfg.strategy = strategy;
    return core::make_online_mandyn_policy(cfg);
}

telemetry::SamplerConfig sampler_config()
{
    telemetry::SamplerConfig config;
    config.period_s = 0.5;
    // The stall alert times management calls on the host clock: keep host
    // load out of the compared outputs.
    config.anomaly.stall_threshold_s = std::numeric_limits<double>::infinity();
    return config;
}

/// One run with every observer `greensph run` attaches, attached and
/// registered in its order, plus a DeviceRecorder.
class AuditedRun {
public:
    explicit AuditedRun(const RunCase& c)
        : policy_(c.make_policy()), native_dvfs_(c.native_dvfs)
    {
        if (!c.faults.empty()) {
            faults_ = std::make_unique<faults::ScopedFaultInjection>(
                faults::FaultSpec::parse(c.faults), 7);
        }
        add_participant(registry_, "policy", policy_.get());
        if (faults_) add_participant(registry_, "faults", &faults_->injector());
        add_participant(registry_, "metrics", &telemetry::MetricsRegistry::global());
        profiler_.attach(hooks_);
        add_participant(registry_, "profiler", &profiler_, true);
        tracer_.attach(hooks_);
        add_participant(registry_, "runtracer", &tracer_, true);
        sampler_.attach(hooks_);
        add_participant(registry_, "sampler", &sampler_, true);
        add_participant(registry_, "anomaly", &sampler_.anomaly(), true);
        ledger_.attach(hooks_);
        add_participant(registry_, "ledger", &ledger_, true);
        // What /summary.json serves from the resume until the sampler next
        // samples: the restored windows.
        hooks_.append({.before_function = [this](int, gpusim::GpuDevice&,
                                                 sph::SphFunction) {
            if (summary_first_.empty()) {
                summary_first_ = sampler_.live_summary_json().dump();
            }
        }});
        recorder_.attach(hooks_);
    }

    /// Runs with `config`, firing `after_step` after every observer.
    Outputs run(sim::RunConfig config, std::function<void(int)> after_step = {})
    {
        config.n_ranks = kRanks;
        config.n_threads = 1;
        config.setup_s = 2.0;
        config.enable_rank0_trace = true;
        config.checkpoint_participants = &registry_;
        policy_->configure(config);
        if (native_dvfs_) config.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
        sim::RunHooks hooks = hooks_;
        hooks.append({.after_step = std::move(after_step)});
        policy_->attach(hooks, kRanks);
        const sim::RunResult result =
            sim::run_instrumented(sim::mini_hpc(), trace(), config, hooks);

        std::ostringstream csv;
        profiler_.report_csv().write(csv);
        std::string totals;
        for (const core::FunctionEnergy& e : profiler_.totals()) {
            put(totals, e.time_s);
            put(totals, e.gpu_energy_j);
            totals += std::to_string(e.calls) + " ";
        }
        return {{"RunResult", encode(result)},
                {"chrome trace", tracer_.tracer().to_chrome_json()},
                {"ledger jsonl", ledger_.jsonl()},
                {"attribution", ledger_.attribution_json().dump()},
                {"live summary", sampler_.live_summary_json().dump()},
                {"alerts", sampler_.anomaly().alerts_json().dump()},
                {"profiler totals", totals},
                {"profiler csv", csv.str()},
                {"metrics", registry_json()},
                {"devices", recorder_.text()},
                {"live summary at the first hook", summary_first_}};
    }

private:
    std::unique_ptr<faults::ScopedFaultInjection> faults_;
    std::unique_ptr<core::FrequencyPolicy> policy_;
    bool native_dvfs_;
    core::EnergyProfiler profiler_{kRanks};
    telemetry::RunTracer tracer_{kRanks};
    telemetry::LiveSampler sampler_{kRanks, sampler_config()};
    telemetry::AttributionLedger ledger_{kRanks};
    DeviceRecorder recorder_;
    std::string summary_first_;
    checkpoint::StateRegistry registry_;
    sim::RunHooks hooks_;
};

// ---- the audit -------------------------------------------------------------------

enum class Verdict { kRejected, kChanges, kUnchanged };

struct Audit {
    /// Shape -> its verdicts, one per audited boundary that wrote it, up to
    /// the first that is not kUnchanged: after that the shape passes, and
    /// an allow-list entry for it is stale.
    std::map<std::string, std::vector<Verdict>> verdicts;

    bool settled(const std::string& shape) const
    {
        const auto it = verdicts.find(shape);
        return it != verdicts.end() && it->second.back() != Verdict::kUnchanged;
    }
};

/// Classifies every shape of `snap` that `audit` has not yet settled.
/// `resume` runs a fresh resume from a snapshot and returns its outputs,
/// throwing when the resume is rejected.  Allow-listed shapes are expected to
/// change nothing, so they are first moved all together; only when that is
/// not unchanged is each moved on its own.
void audit_snapshot(const checkpoint::Snapshot& snap,
                    const std::function<Outputs(const checkpoint::Snapshot&)>& resume,
                    Audit& audit)
{
    const Outputs reference = resume(snap);
    ParsedSnapshot parsed = parse(snap);
    for (std::size_t s = 0; s < snap.sections.size(); ++s) {
        checkpoint::Section joined;
        join(parsed, s, joined);
        ASSERT_EQ(joined.log, snap.sections[s].log) << snap.sections[s].name;
        ASSERT_EQ(joined.data, snap.sections[s].data) << snap.sections[s].name;
    }
    checkpoint::Snapshot work = snap;
    // Whether moving every instance of `shapes` changes an output; nullopt
    // when the resume is rejected.
    const auto move = [&](const std::vector<std::string>& shapes,
                          bool up) -> std::optional<bool> {
        std::vector<std::pair<std::size_t, std::size_t>> instances;
        for (const std::string& shape : shapes) {
            const auto& of_shape = parsed.shapes.at(shape);
            instances.insert(instances.end(), of_shape.begin(), of_shape.end());
        }
        std::set<std::size_t> touched;
        std::vector<std::string> originals;
        for (const auto& [section, line] : instances) {
            touched.insert(section);
            std::string& value = parsed.sections[section][line].value;
            originals.push_back(value);
            value = moved(originals.back(), up);
        }
        for (const std::size_t s : touched) join(parsed, s, work.sections[s]);
        std::optional<bool> changes;
        try {
            changes = resume(work) != reference;
        }
        catch (const std::exception&) {
        }
        for (std::size_t i = 0; i < instances.size(); ++i) {
            parsed.sections[instances[i].first][instances[i].second].value =
                std::move(originals[i]);
        }
        for (const std::size_t s : touched) work.sections[s] = snap.sections[s];
        return changes;
    };
    const auto verdict = [&](const std::vector<std::string>& shapes) {
        bool accepted = false;
        for (const bool up : {true, false}) {
            const std::optional<bool> changes = move(shapes, up);
            if (changes && *changes) return Verdict::kChanges;
            accepted = accepted || changes.has_value();
        }
        return accepted ? Verdict::kUnchanged : Verdict::kRejected;
    };

    std::vector<std::string> listed;
    std::vector<std::string> rest;
    for (const auto& [shape, instances] : parsed.shapes) {
        if (audit.settled(shape)) continue;
        (allow_list().count(shape) != 0 ? listed : rest).push_back(shape);
    }
    if (!listed.empty() && verdict(listed) == Verdict::kUnchanged) {
        for (const std::string& shape : listed) {
            audit.verdicts[shape].push_back(Verdict::kUnchanged);
        }
    }
    else {
        rest.insert(rest.end(), listed.begin(), listed.end());
    }
    for (const std::string& shape : rest) audit.verdicts[shape].push_back(verdict({shape}));
}

constexpr double kPowerCapW = 150.0;

const std::vector<RunCase>& run_cases()
{
    static const std::vector<RunCase> cases = {
        {"dvfs under a power cap", [] { return core::make_power_cap_policy(kPowerCapW); },
         true, "transient-set:p=0.3;stuck:at=2,count=2;slow:p=0.2,ms=0"},
        {"mandyn",
         [] { return core::make_mandyn_policy(core::reference_a100_turbulence_table()); },
         false, ""},
        {"online model", [] { return online_policy(core::TuneStrategy::kModel); }, false,
         "transient-set:p=0.2;energy-wrap:p=0.01;stuck:at=40,count=4"},
        // Clock writes start failing with step 4: a rank's permission
        // failures and degraded latch then cross boundaries.  (A permission
        // loss in the model run would keep its confirmation clocks from
        // landing, and the fit keys would read unchanged.)
        {"online exhaustive", [] { return online_policy(core::TuneStrategy::kExhaustive); },
         false, "perm-loss:after=16"},
    };
    return cases;
}

/// Audits the checkpoint at every step boundary of a 6-step run of `c`.
void audit_run(const RunCase& c, Audit& audit)
{
    TempDir dir;
    std::vector<checkpoint::Snapshot> snapshots;
    telemetry::MetricsRegistry::global().reset();
    {
        AuditedRun run(c);
        sim::RunConfig config;
        config.checkpoint_every = 1;
        config.checkpoint_dir = dir.path();
        config.config_hash = "audit";
        // The checkpoint of boundary `step` is the newest one while the
        // observers of step `step` run.
        run.run(config, [&](int step) {
            if (step > 0) snapshots.push_back(checkpoint::read_latest(dir.path()));
        });
    }
    ASSERT_EQ(snapshots.size(), 5u);
    const auto resume = [&c](const checkpoint::Snapshot& snap) {
        telemetry::MetricsRegistry::global().reset(); // a fresh process
        AuditedRun run(c);
        sim::RunConfig config;
        config.resume = &snap;
        return run.run(config);
    };
    // Latest first: those resumes are the shortest.
    for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
        audit_snapshot(*it, resume, audit);
    }
}

fleet::FleetConfig audit_fleet_config()
{
    fleet::FleetConfig cfg;
    cfg.system = sim::cscs_a100();
    cfg.trace = trace();
    cfg.n_nodes = 8;
    cfg.policy = fleet::FleetPolicy::kNegotiated;
    fleet::JobMixConfig mix;
    mix.n_jobs = 14;
    mix.max_nodes_per_job = 4;
    mix.min_steps = 2;
    mix.max_steps = 5;
    mix.est_step_s = fleet::estimate_step_s(cfg.system, cfg.trace);
    mix.mean_interarrival_s = 0.5 * mix.est_step_s;
    cfg.jobs = fleet::generate_jobs(mix);
    const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0, cfg.system,
                                        cfg.n_nodes);
    cfg.budget_w = 0.5 * cfg.n_nodes * probe.node_tdp_w();
    return cfg;
}

Outputs fleet_outputs(fleet::FleetConfig cfg)
{
    checkpoint::StateRegistry registry;
    add_participant(registry, "metrics", &telemetry::MetricsRegistry::global());
    cfg.checkpoint_participants = &registry;
    const fleet::FleetResult result = fleet::run_fleet(cfg);
    return {{"FleetResult", encode(result)},
            {"sacct", fleet::format_fleet_sacct(result)},
            {"metrics", registry_json()}};
}

/// Audits the checkpoint of a contended, power-capped fleet at several
/// round boundaries.
void audit_fleet(Audit& audit)
{
    const fleet::FleetConfig cfg = audit_fleet_config();
    const double tdp_w = gpusim::GpuDevice(cfg.system.gpu).default_power_limit_w();
    for (const int round : {6, 4, 2}) {
        SCOPED_TRACE("fleet round " + std::to_string(round));
        TempDir dir;
        telemetry::MetricsRegistry::global().reset();
        fleet::FleetConfig paused = cfg;
        paused.checkpoint_every = 1;
        paused.checkpoint_dir = dir.path();
        paused.stop_after_rounds = round;
        fleet_outputs(paused);
        const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
        ASSERT_EQ(snap.step, round);
        // Jobs wait and the budget binds, so scheduling and caps are live.
        ASSERT_FALSE(snap.reader("fleet").get_u64_vec("queue").empty());
        bool capped = false;
        for (const checkpoint::Section& section : snap.sections) {
            if (section.name.rfind("gpu.", 0) != 0) continue;
            const double limit_w = snap.reader(section.name).get_f64("power_limit_w");
            capped = capped || (limit_w > 0.0 && limit_w < tdp_w);
        }
        ASSERT_TRUE(capped);
        audit_snapshot(
            snap,
            [&cfg](const checkpoint::Snapshot& s) {
                telemetry::MetricsRegistry::global().reset();
                fleet::FleetConfig resumed = cfg;
                resumed.resume = &s;
                return fleet_outputs(resumed);
            },
            audit);
    }
}

const char* to_string(Verdict v)
{
    switch (v) {
    case Verdict::kRejected: return "rejected";
    case Verdict::kChanges: return "changes";
    case Verdict::kUnchanged: return "unchanged";
    }
    return "?";
}

TEST(CheckpointAudit, EveryKeyChangesAnOutputOrIsAllowListed)
{
    // Moved values trip anomaly alerts, each logged as a warning.
    struct QuietLog {
        util::LogLevel level = util::Logger::instance().level();
        QuietLog() { util::Logger::instance().set_level(util::LogLevel::kError); }
        ~QuietLog() { util::Logger::instance().set_level(level); }
    } quiet;
    Audit audit;
    for (const RunCase& c : run_cases()) {
        SCOPED_TRACE(c.name);
        audit_run(c, audit);
    }
    // Last: the registry keeps every instrument a run creates, and a fleet's
    // gauges would otherwise sit in every later run's metrics section.
    audit_fleet(audit);

    for (const auto& [shape, verdicts] : audit.verdicts) {
        const bool unchanged = std::all_of(verdicts.begin(), verdicts.end(), [](Verdict v) {
            return v == Verdict::kUnchanged;
        });
        const bool allowed = allow_list().count(shape) != 0;
        if (unchanged && !allowed) {
            ADD_FAILURE() << shape << " changes no output at any of its "
                          << verdicts.size()
                          << " boundaries: delete it, or say in allow_list() why it stays";
        }
        if (!unchanged && allowed) {
            std::string seen;
            for (const Verdict v : verdicts) seen += std::string(" ") + to_string(v);
            ADD_FAILURE() << "allow_list() entry " << shape << " is stale:" << seen;
        }
    }
    for (const auto& [shape, reason] : allow_list()) {
        EXPECT_TRUE(audit.verdicts.count(shape) != 0)
            << "allow_list() entry " << shape << " is no longer written";
    }
}

} // namespace
} // namespace gsph
