/// greensph — command-line front end to the reproduction library.
///
///   greensph systems
///       List the modelled systems (paper Table I).
///   greensph tune   [options]
///       Run the KernelTuner sweep and print the best-EDP clock table
///       (paper Fig. 2).
///   greensph run    [options]
///       Record (or load) a workload trace and run it under a clock policy,
///       printing the device/function energy reports.
///   greensph tuned  [options]
///       Long-lived tuning service: accepts greensph.tune_request/v1 JSON
///       over loopback HTTP (POST /tune), prices sweeps across --threads
///       workers, and caches greensph.policy/v1 artifacts in a durable
///       --store directory keyed by the canonical request hash.  Identical
///       re-requests are served from the store without re-sweeping; GET
///       /policy/<key>, /metrics and /healthz are also served.  Shuts down
///       cleanly on SIGTERM/SIGINT.
///   greensph fleet  [options]
///       Simulate a whole cluster: --fleet-nodes nodes, a generated queue of
///       --jobs jobs (FCFS + conservative backfill), one cluster-wide
///       --budget-w power budget apportioned per --fleet-policy
///       uncapped|uniform|negotiated, Slurm-style per-job energy accounting
///       and an sacct table at the end.  Supports --metrics-port (fleet.*
///       gauges), --checkpoint-every/--checkpoint-dir/--resume (round
///       granularity) and --fault-spec kill-at-step:step=N (a fleet round
///       counts as one step).
///
/// Options (with defaults):
///   --system cscs|lumi|minihpc        (minihpc)
///   --workload turbulence|evrard|sedov      (turbulence)
///   --policy baseline|static:<mhz>|dvfs|mandyn|online   (baseline)
///   --ranks N                         (1)
///   --steps N                         (10)
///   --threads N        run: threads executing ranks; tuned: request
///                      workers; 0 = hardware concurrency, 1 = inline;
///                      output is identical either way; tune and fleet
///                      ignore it                             (0)
///   --nside N          real-physics resolution           (10)
///   --particles-per-gpu X             (91125000 = 450^3)
///   --objective time|energy|edp|ed2p  tuning objective   (edp)
///   --trace-in FILE    load a recorded trace instead of running physics
///   --trace-out FILE   save the recorded trace
///   --port N           tuned: listen port (0 = ephemeral, echoed on stdout)
///   --store DIR        tuned: durable policy-artifact directory
///   --submit URL       tune: POST the sweep to a running tuning service
///                      instead of sweeping locally
///   --policy-from SRC  run --policy mandyn: apply a stored policy artifact
///                      (SRC is a store directory or a tuning-service URL)
///                      instead of tuning inline; the artifact must match
///                      this run's canonical request hash or the run is
///                      refused with a field-by-field reason
///   --csv FILE         write the per-function report as CSV
///   --trace-json FILE  write a Chrome-trace/Perfetto span timeline
///   --metrics-json FILE  dump the telemetry metrics registry as JSON
///   --summary-json FILE  write the machine-readable run summary
///   --ledger FILE      write the attribution ledger as JSONL: per
///                      (rank, function, phase, applied-clock) energy/time
///                      buckets plus the audited policy decision trail with
///                      predicted and realized EDP (greensph_report reads it)
///   --metrics-port N   serve live /metrics, /healthz, /summary.json and
///                      /attribution.json over HTTP on 127.0.0.1:N while the
///                      run executes (0 binds an ephemeral port, echoed on
///                      stdout); also enables the live sampler, anomaly
///                      alerts and the attribution ledger
///   --sample-every S   live-sampler period in simulated seconds (0.25);
///                      enables the sampler (and alerts) even without
///                      --metrics-port
///   --linger-s S       keep the exporter serving S wall-seconds after the
///                      run so short runs can still be scraped (0)
///   --log-level LEVEL  debug|info|warn|error|off          (warn)
///   --log-filter STR   only log components containing STR
///   --log-tids         prefix log lines with a compact per-thread id
///   --fault-spec SPEC  inject management-library faults; SPEC is
///                      class:key=value[,key=value][;class:...] with classes
///                      transient-set:p=P, perm-loss:after=N,
///                      stuck:at=N[,count=M], energy-wrap:p=P,
///                      slow:p=P[,ms=T], kill-at-step:step=N
///                      (see faults/fault_injector.hpp)
///   --fault-seed N     RNG seed for fault draws               (42)
///   --checkpoint-every N   commit a crash-consistent checkpoint after every
///                      N completed steps (needs --checkpoint-dir)
///   --checkpoint-dir D     directory for checkpoint files
///   --resume D         resume the run checkpointed in D; the original
///                      run-defining options (system, workload, policy,
///                      ranks, steps, ...) are restored from the checkpoint
///                      and the completed steps are not re-executed — the
///                      resumed run is bit-identical to an uninterrupted one

#include "checkpoint/checkpoint.hpp"
#include "core/online_tuner.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/fleet.hpp"
#include "core/pareto.hpp"
#include "core/policy.hpp"
#include "core/profiler.hpp"
#include "core/report.hpp"
#include "service/daemon.hpp"
#include "service/tuning_service.hpp"
#include "sim/driver.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/http.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/run_tracer.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracectx.hpp"
#include "telemetry/tracer.hpp"
#include "tuning/kernel_tuner.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

using namespace gsph;

namespace {

struct Options {
    std::string command;
    std::string system = "minihpc";
    std::string workload = "turbulence";
    std::string policy = "baseline";
    std::string objective = "edp";
    std::string tune_strategy = "exhaustive"; ///< online policy: exhaustive|model
    int ranks = 1;
    int steps = 10;
    int threads = 0; ///< 0: hardware concurrency, 1: serial
    int nside = 10;
    double particles_per_gpu = 450.0 * 450.0 * 450.0;
    std::string trace_in;
    std::string trace_out;
    int port = 0;            ///< tuned: listen port (0: ephemeral)
    std::string store_dir;   ///< tuned: durable policy store directory
    double store_ttl_s = 0.0;            ///< tuned: artifact TTL (0: keep)
    std::uint64_t store_max_artifacts = 0; ///< tuned: disk cap (0: unbounded)
    std::string access_log;  ///< tuned: JSONL access log path
    std::string submit_url;  ///< tune: POST to a running service
    double timeout_s = 30.0; ///< HTTP client read/total deadline (seconds)
    std::string policy_from; ///< run: store dir or service URL for mandyn
    std::string csv_out;
    std::string trace_json;
    std::string metrics_json;
    std::string summary_json;
    std::string ledger_out;
    int metrics_port = -1;     ///< -1: no exporter; 0: ephemeral port
    double sample_every = 0.0; ///< > 0: live sampler period (sim seconds)
    double linger_s = 0.0;     ///< keep serving after the run (wall seconds)
    std::string log_level;
    std::string log_filter;
    bool log_tids = false;
    std::string fault_spec;
    std::uint64_t fault_seed = 42;
    int checkpoint_every = 0;
    std::string checkpoint_dir;
    std::string resume_dir;
    // fleet command
    int fleet_nodes = 16;
    int jobs = 12;
    double budget_w = 0.0;
    std::string fleet_policy = "uncapped";
    std::uint64_t seed = 42;
};

void usage()
{
    std::cout << "usage: greensph <systems|tune|tuned|run|fleet> [options]\n"
              << "  --system cscs|lumi|minihpc   --workload turbulence|evrard|sedov\n"
              << "  --policy baseline|static:<mhz>|dvfs|mandyn|online\n"
              << "  --tune-strategy exhaustive|model   (online policy exploration)\n"
              << "  --ranks N --steps N --threads N --nside N --particles-per-gpu X\n"
              << "  --objective time|energy|edp|ed2p\n"
              << "  --trace-in FILE --trace-out FILE --csv FILE\n"
              << "  tuned: --port N --store DIR --store-ttl S --store-max-artifacts N\n"
              << "         --access-log FILE   (JSONL greensph.access/v1)\n"
              << "  tune:  --submit URL --timeout-s S  (--trace-json: merged\n"
              << "         client+daemon Perfetto trace of the request)\n"
              << "  run:   --policy-from DIR|URL  (mandyn from a stored artifact)\n"
              << "  --trace-json FILE --metrics-json FILE --summary-json FILE\n"
              << "  --ledger FILE --metrics-port N --sample-every S --linger-s S\n"
              << "  --log-level debug|info|warn|error|off --log-filter STR --log-tids\n"
              << "  --fault-spec 'class:key=value[;class:...]' --fault-seed N\n"
              << "    fault classes: transient-set:p=P  perm-loss:after=N\n"
              << "                   stuck:at=N[,count=M]  energy-wrap:p=P\n"
              << "                   slow:p=P[,ms=T]  kill-at-step:step=N\n"
              << "  --checkpoint-every N --checkpoint-dir DIR --resume DIR\n"
              << "  fleet: --fleet-nodes N --jobs N --budget-w W --seed N\n"
              << "         --fleet-policy uncapped|uniform|negotiated\n";
}

/// The commands whose run an option defines, as bits: their checkpoint
/// stores it and their --resume restores it.
enum RunCommand : unsigned { kRun = 1u << 0, kFleet = 1u << 1 };

/// Whether a defining option enters its commands' config hash.
enum class Hash {
    kNo,         ///< an input source: stored for --resume, not hashed
    kYes,
    kWithFaults, ///< hashed only when a durable fault spec is set, so a
                 ///< kill-only spec hashes like no faults
};

/// One flag and the Options field it sets; a bool field is a switch that
/// takes no value.
struct OptionRow {
    const char* flag;
    std::variant<std::string Options::*, int Options::*, double Options::*,
                 std::uint64_t Options::*, bool Options::*>
        field;
    unsigned defines = 0; ///< RunCommand bits
    Hash hash = Hash::kNo;
};

/// Every flag, once.  Parsing, both config echoes and hashes, both
/// checkpoint `cli` sections and --resume all read this table.  A command's
/// config echo holds its hashed rows in table order, so a hashed row keeps
/// its place here.  Output destinations, checkpoint flags and --threads
/// (which changes no output byte) define nothing: they come from the
/// invoking command line, resumed or not.
const OptionRow kOptionTable[] = {
    {"--system", &Options::system, kRun | kFleet, Hash::kYes},
    {"--workload", &Options::workload, kRun | kFleet, Hash::kYes},
    {"--policy", &Options::policy, kRun, Hash::kYes},
    {"--ranks", &Options::ranks, kRun, Hash::kYes},
    {"--steps", &Options::steps, kRun | kFleet, Hash::kYes},
    {"--nside", &Options::nside, kRun | kFleet, Hash::kYes},
    {"--particles-per-gpu", &Options::particles_per_gpu, kRun | kFleet, Hash::kYes},
    {"--fleet-nodes", &Options::fleet_nodes, kFleet, Hash::kYes},
    {"--jobs", &Options::jobs, kFleet, Hash::kYes},
    {"--budget-w", &Options::budget_w, kFleet, Hash::kYes},
    {"--fleet-policy", &Options::fleet_policy, kFleet, Hash::kYes},
    {"--seed", &Options::seed, kFleet, Hash::kYes},
    {"--fault-spec", &Options::fault_spec, kRun | kFleet, Hash::kWithFaults},
    {"--fault-seed", &Options::fault_seed, kRun | kFleet, Hash::kWithFaults},
    {"--tune-strategy", &Options::tune_strategy, kRun, Hash::kYes},
    {"--trace-in", &Options::trace_in, kRun | kFleet},
    // A policy-from run and an inline-tuned run apply the same clock plan,
    // so they share a config hash.
    {"--policy-from", &Options::policy_from, kRun},
    {"--objective", &Options::objective},
    {"--threads", &Options::threads},
    {"--trace-out", &Options::trace_out},
    {"--port", &Options::port},
    {"--store", &Options::store_dir},
    {"--store-ttl", &Options::store_ttl_s},
    {"--store-max-artifacts", &Options::store_max_artifacts},
    {"--access-log", &Options::access_log},
    {"--submit", &Options::submit_url},
    {"--timeout-s", &Options::timeout_s},
    {"--csv", &Options::csv_out},
    {"--trace-json", &Options::trace_json},
    {"--metrics-json", &Options::metrics_json},
    {"--summary-json", &Options::summary_json},
    {"--ledger", &Options::ledger_out},
    {"--metrics-port", &Options::metrics_port},
    {"--sample-every", &Options::sample_every},
    {"--linger-s", &Options::linger_s},
    {"--log-level", &Options::log_level},
    {"--log-filter", &Options::log_filter},
    {"--log-tids", &Options::log_tids},
    {"--checkpoint-every", &Options::checkpoint_every},
    {"--checkpoint-dir", &Options::checkpoint_dir},
    {"--resume", &Options::resume_dir},
};

/// The echo and checkpoint key of a row: its flag without dashes.
std::string key_of(const OptionRow& row)
{
    std::string key = row.flag + 2;
    std::replace(key.begin(), key.end(), '-', '_');
    return key;
}

/// Set a row's field from its flag's value ("1" for a given switch).  A
/// number must consume the whole value: "1e2" or "2.9" for an integer,
/// "3x", "-1" for an unsigned, "0x10", a leading "+" or whitespace are all
/// refused, naming the flag.
void set_option(Options& opt, const OptionRow& row, const std::string& text)
{
    std::visit(
        [&](auto field) {
            using T = std::remove_cvref_t<decltype(opt.*field)>;
            if constexpr (std::is_same_v<T, bool>) {
                opt.*field = text == "1";
            }
            else if constexpr (std::is_same_v<T, std::string>) {
                opt.*field = text;
            }
            else {
                T value{};
                const char* end = text.data() + text.size();
                const auto [ptr, ec] = std::from_chars(text.data(), end, value);
                if (ec != std::errc() || ptr != end) {
                    throw std::invalid_argument(std::string("bad value for ") +
                                                row.flag + ": '" + text + "'");
                }
                opt.*field = value;
            }
        },
        row.field);
}

/// A row's value as set_option takes it back; numbers print in the
/// shortest form that parses to the same value, so doubles round-trip
/// bit-exactly.
std::string option_text(const Options& opt, const OptionRow& row)
{
    return std::visit(
        [&](auto field) -> std::string {
            using T = std::remove_cvref_t<decltype(opt.*field)>;
            if constexpr (std::is_same_v<T, bool>) {
                return opt.*field ? "1" : "0";
            }
            else if constexpr (std::is_same_v<T, std::string>) {
                return opt.*field;
            }
            else {
                char buf[32];
                const auto result = std::to_chars(buf, buf + sizeof(buf), opt.*field);
                return std::string(buf, result.ptr);
            }
        },
        row.field);
}

bool parse_args(int argc, char** argv, Options& opt)
{
    if (argc < 2) return false;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--help" || key == "-h") return false;
        const auto row = std::find_if(std::begin(kOptionTable), std::end(kOptionTable),
                                      [&](const OptionRow& r) { return key == r.flag; });
        if (row == std::end(kOptionTable)) {
            throw std::invalid_argument("unknown option: " + key);
        }
        const bool is_switch = std::holds_alternative<bool Options::*>(row->field);
        if (!is_switch && i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + key);
        }
        set_option(opt, *row, is_switch ? "1" : argv[++i]);
    }
    opt.tune_strategy = util::to_lower(opt.tune_strategy);
    if (opt.tune_strategy != "exhaustive" && opt.tune_strategy != "model") {
        throw std::invalid_argument("bad --tune-strategy: " + opt.tune_strategy);
    }
    opt.fleet_policy = util::to_lower(opt.fleet_policy);
    return true;
}

void configure_logging(const Options& opt)
{
    if (!opt.log_level.empty()) {
        util::LogLevel level;
        if (!util::Logger::parse_level(opt.log_level, level)) {
            throw std::invalid_argument("bad --log-level: " + opt.log_level);
        }
        util::Logger::instance().set_level(level);
    }
    if (!opt.log_filter.empty()) {
        util::Logger::instance().set_component_filter(opt.log_filter);
    }
    if (opt.log_tids) {
        util::Logger::instance().set_thread_ids(true);
    }
}

/// The live plane (sampler + anomaly detector) runs when either flag asks
/// for it; --metrics-port alone uses the default sampling period.
bool live_plane_enabled(const Options& opt)
{
    return opt.metrics_port >= 0 || opt.sample_every > 0.0;
}

/// --metrics-json: dump the metrics registry.  False, after reporting the
/// error, when the write failed.
bool write_metrics_json(const Options& opt)
{
    if (opt.metrics_json.empty()) return true;
    if (!util::atomic_write_file(
            opt.metrics_json,
            telemetry::MetricsRegistry::global().to_json().dump(2) + "\n")) {
        std::cerr << "error: failed to write " << opt.metrics_json << "\n";
        return false;
    }
    std::cout << "Metrics written to " << opt.metrics_json << "\n";
    return true;
}

/// After a run: let scrapers catch its final state for --linger-s wall
/// seconds, then stop the exporter.
void linger_and_stop(telemetry::MetricsExporter* exporter, const Options& opt)
{
    if (!exporter) return;
    if (opt.linger_s > 0.0) {
        std::cout << "Exporter lingering for " << util::format_fixed(opt.linger_s, 1)
                  << " s...\n";
        std::this_thread::sleep_for(std::chrono::duration<double>(opt.linger_s));
    }
    exporter->stop();
    std::cout << "Metrics exporter stopped cleanly after " << exporter->requests_served()
              << " request(s)\n";
}

/// The options as a run's identity sees them, so the echo, the config hash
/// and the stored `cli` section are the same across kill -> resume and for
/// the uninterrupted reference run: the fault spec as it survives a kill,
/// the one-shot kill-at-step clause disarmed (FaultSpec::durable()) and
/// canonically rendered.  Empty when nothing recoverable remains — a
/// kill-only spec draws no RNG, so the run is indistinguishable from an
/// un-faulted one and must hash identically.
Options durable_options(const Options& opt)
{
    Options durable = opt;
    if (!opt.fault_spec.empty()) {
        const auto spec = faults::FaultSpec::parse(opt.fault_spec).durable();
        durable.fault_spec = spec.any() ? spec.describe() : std::string();
    }
    return durable;
}

/// Canonical config echo: `command`'s hashed rows in table order, after a
/// `"command":"fleet"` member for the fleet.
telemetry::Json config_echo(const Options& opt, RunCommand command)
{
    const Options durable = durable_options(opt);
    telemetry::Json config = telemetry::Json::object();
    if (command == kFleet) config["command"] = "fleet";
    for (const OptionRow& row : kOptionTable) {
        if ((row.defines & command) == 0 || row.hash == Hash::kNo) continue;
        if (row.hash == Hash::kWithFaults && durable.fault_spec.empty()) continue;
        config[key_of(row)] =
            std::visit([&](auto field) { return telemetry::Json(durable.*field); },
                       row.field);
    }
    return config;
}

/// hex64 FNV-1a over the compact canonical config echo: the identity a
/// checkpoint records and a resume verifies.
std::string config_hash_of(const Options& opt, RunCommand command)
{
    return util::hex64(util::fnv1a64(config_echo(opt, command).dump()));
}

const char* cli_section(RunCommand command)
{
    return command == kFleet ? "fleet.cli" : "cli";
}

/// The checkpoint's `cli` section: every row that defines `command`, as the
/// text its flag would take.
void save_defining_options(checkpoint::StateWriter& w, const Options& opt,
                           RunCommand command)
{
    const Options durable = durable_options(opt);
    for (const OptionRow& row : kOptionTable) {
        if (row.defines & command) w.put_str(key_of(row), option_text(durable, row));
    }
}

/// --resume: load and validate the latest checkpoint in --resume's
/// directory, restore `command`'s defining options from its `cli` section,
/// and refuse it unless their config hash is the one it was written under.
/// A fleet round counts as one step.
checkpoint::Snapshot resume_snapshot(Options& opt, RunCommand command)
{
    checkpoint::Snapshot snapshot = checkpoint::read_latest(opt.resume_dir);
    const checkpoint::StateReader r = snapshot.reader(cli_section(command));
    for (const OptionRow& row : kOptionTable) {
        if (row.defines & command) set_option(opt, row, r.get_str(key_of(row)));
    }
    const std::string current_hash = config_hash_of(opt, command);
    if (snapshot.config_hash != current_hash) {
        throw std::runtime_error(
            "--resume: config hash mismatch (checkpoint " + snapshot.config_hash +
            ", current " + current_hash +
            "): the checkpoint was written by a run with a different configuration");
    }
    std::cout << "Resuming from " << opt.resume_dir << " at step " << snapshot.step << "\n";
    return snapshot;
}

/// Install the --fault-spec injector for the duration of a command (the
/// returned guard must outlive the run).  Nullptr when injection is off.
std::unique_ptr<faults::ScopedFaultInjection> install_faults(const Options& opt)
{
    if (opt.fault_spec.empty()) return nullptr;
    const auto spec = faults::FaultSpec::parse(opt.fault_spec);
    std::cout << "Fault injection: " << spec.describe() << " (seed " << opt.fault_seed
              << ")\n";
    return std::make_unique<faults::ScopedFaultInjection>(spec, opt.fault_seed);
}

/// Register `component`'s save_state/restore_state as checkpoint section
/// `section` (skipped when null).
template <typename Component>
void add_participant(checkpoint::StateRegistry& registry, const char* section,
                     Component* component, bool optional = false)
{
    if (!component) return;
    registry.add(
        section, [component](checkpoint::StateWriter& w) { component->save_state(w); },
        [component](const checkpoint::StateReader& r) { component->restore_state(r); },
        optional);
}

/// The checkpoint participants `command` shares with the other: its `cli`
/// section (read back by resume_snapshot before anything is built, so its
/// restore does nothing), the fault injector's RNG and the metrics registry.
void add_command_participants(checkpoint::StateRegistry& registry, const Options& opt,
                              RunCommand command)
{
    registry.add(
        cli_section(command),
        [opt, command](checkpoint::StateWriter& w) {
            save_defining_options(w, opt, command);
        },
        [](const checkpoint::StateReader&) {});
    add_participant(registry, "faults", faults::active());
    add_participant(registry, "metrics", &telemetry::MetricsRegistry::global());
}

sim::WorkloadTrace load_or_record(const Options& opt)
{
    if (!opt.trace_in.empty()) {
        std::ifstream in(opt.trace_in);
        if (!in) throw std::runtime_error("cannot open trace: " + opt.trace_in);
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::cout << "Loaded trace from " << opt.trace_in << "\n";
        return sim::WorkloadTrace::parse(buffer.str());
    }
    sim::WorkloadSpec spec;
    const std::string w = util::to_lower(opt.workload);
    spec.kind = w == "evrard"  ? sim::WorkloadKind::kEvrardCollapse
                : w == "sedov" ? sim::WorkloadKind::kSedovBlast
                               : sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = opt.particles_per_gpu;
    spec.n_steps = opt.steps;
    spec.real_nside = opt.nside;
    std::cout << "Recording " << spec.n_steps << " steps of " << sim::to_string(spec.kind)
              << " physics at " << opt.nside << "^3...\n";
    auto trace = sim::record_trace(spec);
    if (!opt.trace_out.empty()) {
        std::ofstream out(opt.trace_out);
        out << trace.serialize();
        std::cout << "Trace saved to " << opt.trace_out << "\n";
    }
    return trace;
}

std::unique_ptr<core::FrequencyPolicy> make_policy(const Options& opt,
                                                   const sim::SystemSpec& system)
{
    const std::string p = util::to_lower(opt.policy);
    if (p == "baseline") return core::make_baseline_policy();
    if (p == "dvfs") return core::make_native_dvfs_policy();
    if (util::starts_with(p, "static:")) {
        return core::make_static_policy(std::stod(p.substr(7)));
    }
    if (p == "mandyn") {
        return nullptr; // handled by caller (needs the trace / an artifact)
    }
    if (p == "online") {
        core::OnlineTunerConfig cfg;
        cfg.candidate_clocks = tuning::paper_frequency_band(system.gpu);
        cfg.strategy = opt.tune_strategy == "model"
                           ? core::TuneStrategy::kModel
                           : core::TuneStrategy::kExhaustive;
        return core::make_online_mandyn_policy(cfg, system.gpu.vendor);
    }
    throw std::invalid_argument("unknown policy: " + opt.policy);
}

int cmd_systems()
{
    util::Table table({"System", "CPU", "GPUs/node", "Device", "Clock range [MHz]"});
    for (const auto& system : {sim::lumi_g(), sim::cscs_a100(), sim::mini_hpc()}) {
        table.add_row({system.name, system.cpu.name, std::to_string(system.gpus_per_node),
                       system.gpu.name,
                       util::format_fixed(system.gpu.min_compute_mhz, 0) + "-" +
                           util::format_fixed(system.gpu.max_compute_mhz, 0)});
    }
    table.print(std::cout);
    return 0;
}

tuning::Objective objective_from(const std::string& name)
{
    const std::string key = util::to_lower(name);
    if (key == "time") return tuning::Objective::kTime;
    if (key == "energy") return tuning::Objective::kEnergy;
    if (key == "ed2p") return tuning::Objective::kEd2p;
    if (key == "edp") return tuning::Objective::kEdp;
    throw std::invalid_argument("unknown objective: " + name);
}

/// The canonical tune request this invocation stands for — the same
/// construction on the submit side (`tune --submit`) and the consume side
/// (`run --policy-from`), so both compute the same artifact key.
service::TuneRequest make_tune_request(const Options& opt,
                                       const sim::SystemSpec& system,
                                       const sim::WorkloadTrace& trace)
{
    service::TuneRequest request;
    request.device = system.gpu;
    request.strategy = tuning::sweep_strategy_from_string(opt.tune_strategy);
    request.trace = trace;
    return request;
}

/// Fetch a policy artifact for `key` from a store directory or a running
/// tuning service ("http://host:port").  Throws with an actionable message.
std::string fetch_policy_artifact(const std::string& source, const std::string& key,
                                  const telemetry::HttpClientOptions& options = {})
{
    std::string host;
    std::uint16_t port = 0;
    if (telemetry::parse_http_url(source, host, port)) {
        telemetry::HttpClientResponse response;
        if (!telemetry::http_request(host, port, "GET", "/policy/" + key, "",
                                     response, options)) {
            throw std::runtime_error(
                "--policy-from: cannot reach tuning service at " + source +
                (response.error.empty() ? "" : " (" + response.error + ")"));
        }
        if (response.status == 404) {
            throw std::runtime_error(
                "--policy-from: service has no artifact for key " + key +
                "; submit one first (greensph tune --submit " + source + ")");
        }
        if (response.status != 200) {
            throw std::runtime_error("--policy-from: service error " +
                                     std::to_string(response.status) + ": " +
                                     response.body);
        }
        return response.body;
    }
    const std::string path =
        (std::filesystem::path(source) / ("policy-" + key + ".json")).string();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("--policy-from: no artifact at " + path +
                                 " (expected canonical key " + key + ")");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Verify an artifact against the local request, refusing with one line per
/// mismatched field — never silently apply clocks tuned for something else.
service::PolicyArtifact checked_artifact(const std::string& text,
                                         const service::RequestIdentity& local,
                                         const std::string& source)
{
    const auto artifact = service::PolicyArtifact::parse(text);
    const auto mismatches = service::artifact_mismatches(artifact, local);
    if (!mismatches.empty()) {
        std::string message = "--policy-from: artifact " + artifact.key + " from " +
                              source + " does not match this run's configuration:";
        for (const auto& line : mismatches) message += "\n  - " + line;
        throw std::runtime_error(message);
    }
    return artifact;
}

/// Merge a daemon-side Chrome-trace array (GET /trace/<id>) into the
/// client's tracer output so one Perfetto document shows client -> daemon ->
/// worker causality.  Daemon timestamps count from *its* ServiceClock epoch;
/// shifting them so the earliest daemon event lands at the client's POST
/// begin nests the handler spans inside the client HTTP span.
telemetry::Json merge_request_trace(const telemetry::SpanTracer& client,
                                    const std::string& daemon_json,
                                    double client_post_begin_us)
{
    telemetry::Json merged = telemetry::Json::parse(client.to_chrome_json());
    const telemetry::Json daemon = telemetry::Json::parse(daemon_json);
    double daemon_min_us = 0.0;
    bool seen = false;
    for (const telemetry::Json& event : daemon.items()) {
        if (!event.contains("ts") || event.at("ph").as_string() == "M") continue;
        const double ts = event.at("ts").as_number();
        if (!seen || ts < daemon_min_us) daemon_min_us = ts;
        seen = true;
    }
    const double offset_us = seen ? client_post_begin_us - daemon_min_us : 0.0;
    for (const telemetry::Json& event : daemon.items()) {
        telemetry::Json shifted = telemetry::Json::object();
        for (const auto& [k, v] : event.members()) {
            if (k == "ts" && event.at("ph").as_string() != "M") {
                shifted[k] = v.as_number() + offset_us;
            }
            else {
                shifted[k] = v;
            }
        }
        merged.push_back(std::move(shifted));
    }
    return merged;
}

/// `tune --submit URL`: thin client — ship the request (originating the
/// distributed trace context), print the table the service (or its cache)
/// answered with, and with --trace-json fetch the daemon's spans for this
/// request and write one merged Perfetto file.
int tune_submit(const Options& opt, const sim::SystemSpec& system,
                const sim::WorkloadTrace& trace)
{
    const service::TuneRequest request = make_tune_request(opt, system, trace);
    std::string host;
    std::uint16_t port = 0;
    if (!telemetry::parse_http_url(opt.submit_url, host, port)) {
        throw std::invalid_argument("bad --submit URL (expected http://host:port): " +
                                    opt.submit_url);
    }
    const std::string key = service::request_key(request);
    // The trace context originates here, derived from the request key so a
    // resubmission of the same request carries the same trace id.
    const telemetry::TraceContext ctx = telemetry::TraceContext::origin("tune|" + key);
    std::cout << "Submitting tune request " << key << " to " << opt.submit_url
              << " (trace " << ctx.trace_id() << ")...\n";

    telemetry::SpanTracer tracer;
    tracer.set_process_name(0, "greensph tune (client)");
    tracer.set_thread_name(0, 0, "client");
    const auto epoch = std::chrono::steady_clock::now();
    auto now_s = [&epoch] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             epoch)
            .count();
    };
    tracer.begin(0, 0, "tune.submit", now_s(), "client",
                 {{"trace_id", ctx.trace_id()},
                  {"span_id", ctx.span_id()},
                  {"key", key}});
    const telemetry::TraceContext post_ctx = ctx.child("http.client POST /tune");
    const double post_begin_s = now_s();
    tracer.begin(0, 0, "http.client POST /tune", post_begin_s, "client",
                 {{"trace_id", post_ctx.trace_id()},
                  {"span_id", post_ctx.span_id()}});
    telemetry::HttpClientOptions options;
    options.timeout_s = opt.timeout_s;
    options.traceparent = post_ctx.traceparent();
    telemetry::HttpClientResponse response;
    const bool reached = telemetry::http_request(
        host, port, "POST", "/tune", request.to_json().dump(), response, options);
    tracer.end(0, 0, now_s());
    if (!reached) {
        throw std::runtime_error("cannot reach tuning service at " +
                                 opt.submit_url +
                                 (response.error.empty() ? "" :
                                  " (" + response.error + ")"));
    }
    if (response.status != 200) {
        throw std::runtime_error("tuning service error " +
                                 std::to_string(response.status) + ": " +
                                 response.body);
    }
    const auto artifact = service::PolicyArtifact::parse(response.body);

    util::Table table({"Function", "Chosen clock [MHz]"});
    for (const auto& entry : artifact.functions) {
        table.add_row(
            {sph::to_string(entry.fn), util::format_fixed(entry.best_edp_mhz, 0)});
    }
    table.print(std::cout);
    std::cout << "Policy artifact " << artifact.key << " ("
              << artifact.sample_launches << " kernel launches; producer: "
              << artifact.producer << ")\n";
    if (!artifact.trace_id.empty()) {
        std::cout << "Produced by trace " << artifact.trace_id
                  << (artifact.trace_id == ctx.trace_id() ? " (this request)"
                                                          : " (cache hit)")
                  << "\n";
    }
    if (!opt.csv_out.empty()) {
        std::ofstream out(opt.csv_out);
        out << service::table_from_artifact(artifact).serialize();
        std::cout << "Frequency table saved to " << opt.csv_out << "\n";
    }
    if (!opt.trace_json.empty()) {
        telemetry::HttpClientResponse trace_response;
        std::string daemon_spans = "[]";
        if (telemetry::http_request(host, port, "GET",
                                    "/trace/" + ctx.trace_id(), "",
                                    trace_response, options) &&
            trace_response.status == 200) {
            daemon_spans = trace_response.body;
        }
        else {
            std::cerr << "warning: no daemon spans for trace " << ctx.trace_id()
                      << "; writing client spans only\n";
        }
        tracer.end(0, 0, now_s()); // tune.submit
        const telemetry::Json merged =
            merge_request_trace(tracer, daemon_spans, post_begin_s * 1e6);
        if (!util::atomic_write_file(opt.trace_json, merged.dump() + "\n")) {
            std::cerr << "error: failed to write " << opt.trace_json << "\n";
            return 1;
        }
        std::cout << "Request trace written to " << opt.trace_json
                  << " (open in ui.perfetto.dev)\n";
    }
    return 0;
}

int cmd_tune(const Options& opt)
{
    telemetry::MetricsRegistry::global().reset();
    const auto faults_guard = install_faults(opt);
    const auto system = sim::system_by_name(opt.system);
    const auto trace = load_or_record(opt);
    if (!opt.submit_url.empty()) return tune_submit(opt, system, trace);

    tuning::SweepOptions sweep_options;
    sweep_options.strategy = tuning::sweep_strategy_from_string(opt.tune_strategy);
    const auto sweep = tuning::sweep_sph_functions(trace, system.gpu, sweep_options);
    const auto objective = objective_from(opt.objective);

    util::Table table({"Function", "Chosen clock [MHz]"});
    core::FrequencyTable freq_table(system.gpu.default_app_clock_mhz);
    for (const auto& entry : sweep) {
        const double clock = objective == tuning::Objective::kEdp
                                 ? entry.result.chosen_or_best(objective).params.at(
                                       "core_freq_mhz")
                                 : entry.result.best(objective).params.at(
                                       "core_freq_mhz");
        freq_table.set(entry.fn, clock);
        table.add_row({sph::to_string(entry.fn), util::format_fixed(clock, 0)});
    }
    table.print(std::cout);
    if (!opt.csv_out.empty()) {
        std::ofstream out(opt.csv_out);
        out << freq_table.serialize();
        std::cout << "Frequency table saved to " << opt.csv_out << "\n";
    }
    if (!write_metrics_json(opt)) return 1;
    return 0;
}

volatile std::sig_atomic_t g_shutdown_requested = 0;
void handle_shutdown_signal(int) { g_shutdown_requested = 1; }

/// `greensph tuned`: run the tuning service until SIGTERM/SIGINT.
int cmd_tuned(const Options& opt)
{
    telemetry::MetricsRegistry::global().reset();
    service::DaemonConfig cfg;
    cfg.port = static_cast<std::uint16_t>(opt.port);
    cfg.access_log_path = opt.access_log;
    cfg.service.n_threads = opt.threads;
    cfg.service.store_dir = opt.store_dir;
    cfg.service.store_ttl_s = opt.store_ttl_s;
    cfg.service.store_max_artifacts = opt.store_max_artifacts;
    cfg.service.producer = "greensph tuned";
    service::TuningDaemon daemon(cfg);
    daemon.start();
    // std::endl, not '\n': scripts parse this line from a pipe while the
    // daemon is still running, so it must not sit in a stdio buffer.
    std::cout << "Tuning service listening on 127.0.0.1:" << daemon.port()
              << std::endl;
    std::cout << "Policy store: "
              << (opt.store_dir.empty() ? std::string("<memory only>")
                                        : opt.store_dir)
              << std::endl;

    g_shutdown_requested = 0;
    std::signal(SIGTERM, handle_shutdown_signal);
    std::signal(SIGINT, handle_shutdown_signal);
    while (g_shutdown_requested == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    daemon.stop();
    std::cout << "Tuning service stopped cleanly ("
              << daemon.service().sweeps_run() << " sweep(s) run)\n";
    return 0;
}

int cmd_run(Options opt, const std::vector<std::string>& argv)
{
    telemetry::MetricsRegistry::global().reset();

    checkpoint::Snapshot snapshot;
    const bool resuming = !opt.resume_dir.empty();
    if (resuming) snapshot = resume_snapshot(opt, kRun);

    const std::string config_hash = config_hash_of(opt, kRun);
    const auto faults_guard = install_faults(opt);
    const auto system = sim::system_by_name(opt.system);
    const auto trace = load_or_record(opt);

    // Deterministic run trace identity: derived from the config hash, so it
    // is identical for any --threads and across kill -> resume.  Only runs
    // that opt into tracing (--policy-from or --trace-json) attach it to
    // audit records and summary provenance; default runs keep their exact
    // pre-tracing artifacts.
    const bool traced_run = !opt.policy_from.empty() || !opt.trace_json.empty();
    const telemetry::TraceContext run_ctx =
        telemetry::TraceContext::origin("run|" + config_hash);
    if (traced_run) {
        std::cout << "Run trace id " << run_ctx.trace_id() << "\n";
    }

    if (!opt.policy_from.empty() && util::to_lower(opt.policy) != "mandyn") {
        throw std::invalid_argument("--policy-from requires --policy mandyn");
    }
    auto policy = make_policy(opt, system);
    if (!policy) { // "mandyn": tune first (inline sweep or stored artifact)
        if (!opt.policy_from.empty()) {
            const service::RequestIdentity local =
                service::request_identity(make_tune_request(opt, system, trace));
            const std::string& key = local.key;
            telemetry::HttpClientOptions fetch_options;
            fetch_options.timeout_s = opt.timeout_s;
            fetch_options.traceparent =
                run_ctx.child("policy.fetch " + key).traceparent();
            const auto artifact = checked_artifact(
                fetch_policy_artifact(opt.policy_from, key, fetch_options), local,
                opt.policy_from);
            std::cout << "Applying policy artifact " << artifact.key << " from "
                      << opt.policy_from << " (no inline sweep)\n";
            core::ControllerAuditInfo audit =
                service::audit_info_from_artifact(artifact);
            audit.trace_id = run_ctx.trace_id();
            policy = core::make_mandyn_policy(service::table_from_artifact(artifact),
                                              std::move(audit), system.gpu.vendor);
        }
        else {
            std::cout << "Tuning per-function clocks for " << system.gpu.name
                      << "...\n";
            tuning::SweepOptions sweep_options;
            sweep_options.strategy =
                tuning::sweep_strategy_from_string(opt.tune_strategy);
            const auto sweep =
                tuning::sweep_sph_functions(trace, system.gpu, sweep_options);
            core::ControllerAuditInfo audit = tuning::audit_info_from_sweep(sweep);
            if (traced_run) audit.trace_id = run_ctx.trace_id();
            policy = core::make_mandyn_policy(
                tuning::table_from_sweep(sweep, system.gpu.default_app_clock_mhz),
                std::move(audit), system.gpu.vendor);
        }
    }

    sim::RunConfig cfg;
    cfg.n_ranks = opt.ranks;
    cfg.setup_s = 45.0;
    cfg.n_steps = opt.steps;
    cfg.n_threads = opt.threads;
    cfg.checkpoint_every = opt.checkpoint_every;
    cfg.checkpoint_dir = opt.checkpoint_dir;
    cfg.config_hash = config_hash;
    if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty()) {
        throw std::invalid_argument("--checkpoint-every needs --checkpoint-dir");
    }
    if (resuming) cfg.resume = &snapshot;

    // Checkpoint participants beyond the driver's own simulated state, saved
    // at every checkpoint boundary and restored in this order by the driver
    // before the first resumed step, after the attach() calls that create
    // the state being restored.  Each observer registers where it attaches.
    // Observers exist only when their flags are given, and a resume may add
    // or drop flags, so their sections are optional: absent from the
    // snapshot means "start fresh".  When present on both sides of a kill,
    // traces, rings, alert records and ledgers resume bit-identically.
    checkpoint::StateRegistry registry;
    add_participant(registry, "policy", policy.get());
    add_command_participants(registry, opt, kRun);
    cfg.checkpoint_participants = &registry;

    sim::RunHooks hooks;
    std::unique_ptr<core::EnergyProfiler> profiler;
    if (!opt.metrics_json.empty()) {
        // PMT probes around every function fill the fn.energy_j histograms.
        profiler = std::make_unique<core::EnergyProfiler>(opt.ranks);
        profiler->attach(hooks);
        add_participant(registry, "profiler", profiler.get(), /*optional=*/true);
    }
    std::unique_ptr<telemetry::RunTracer> tracer;
    if (!opt.trace_json.empty()) {
        cfg.enable_rank0_trace = true; // replayed as a counter track below
        tracer = std::make_unique<telemetry::RunTracer>(opt.ranks);
        tracer->attach(hooks);
        add_participant(registry, "runtracer", tracer.get(), /*optional=*/true);
    }
    // Live observability plane: deterministic sampler (+ anomaly detector)
    // driven by the run hooks, and optionally an HTTP exporter serving the
    // registry and live summary to scrapers.  Off by default; when off, not
    // even the latency-observer timing reads execute (see telemetry/live.hpp).
    std::unique_ptr<telemetry::LiveSampler> sampler;
    std::unique_ptr<telemetry::MetricsExporter> exporter;
    if (live_plane_enabled(opt)) {
        telemetry::SamplerConfig sampler_cfg;
        if (opt.sample_every > 0.0) sampler_cfg.period_s = opt.sample_every;
        sampler = std::make_unique<telemetry::LiveSampler>(opt.ranks, sampler_cfg);
        sampler->attach(hooks);
        add_participant(registry, "sampler", sampler.get(), /*optional=*/true);
        add_participant(registry, "anomaly", &sampler->anomaly(), /*optional=*/true);
    }
    // Attribution ledger: every joule/second bucketed by (rank, function,
    // phase, applied clock) plus the audited decision trail.  Enabled by
    // --ledger (post-run JSONL) or the exporter (live /attribution.json).
    std::unique_ptr<telemetry::AttributionLedger> ledger;
    if (!opt.ledger_out.empty() || opt.metrics_port >= 0) {
        ledger = std::make_unique<telemetry::AttributionLedger>(opt.ranks);
        ledger->attach(hooks);
        add_participant(registry, "ledger", ledger.get(), /*optional=*/true);
    }
    if (opt.metrics_port >= 0) {
        telemetry::ExporterConfig exp_cfg;
        exp_cfg.port = static_cast<std::uint16_t>(opt.metrics_port);
        exporter = std::make_unique<telemetry::MetricsExporter>(
            exp_cfg, sampler.get(), ledger.get());
        exporter->start();
        // Echoed on stdout so scripts (and the CI smoke job) can discover an
        // ephemeral port without racing for a fixed one.
        // std::endl, not '\n': scripts parse this line from a pipe while the
        // run is still executing, so it must not sit in a stdio buffer.
        std::cout << "Metrics exporter listening on 127.0.0.1:" << exporter->port()
                  << std::endl;
    }

    std::cout << "Running " << trace.workload_name << " on " << system.name << " with "
              << opt.ranks << " rank(s) under " << policy->name() << "...\n\n";
    const auto result = core::run_with_policy(system, trace, cfg, *policy, hooks);

    linger_and_stop(exporter.get(), opt);
    if (sampler && !sampler->anomaly().alerts().empty()) {
        std::cout << "Anomaly alerts: " << sampler->anomaly().alerts().size() << "\n";
    }

    std::cout << "Loop time " << util::format_fixed(result.makespan_s(), 2) << " s, GPU "
              << util::format_si(result.gpu_energy_j, "J", 3) << ", node "
              << util::format_si(result.node_energy_j, "J", 3) << " (Slurm whole-job "
              << util::format_si(result.slurm.consumed_energy_j, "J", 3) << ")\n\n";
    std::cout << "Energy by device:\n";
    core::device_breakdown_table(result).print(std::cout);
    std::cout << "\nBy function:\n";
    core::function_breakdown_table(result).print(std::cout);

    if (!opt.csv_out.empty()) {
        util::CsvWriter csv({"function", "calls", "time_s", "gpu_energy_j",
                             "cpu_energy_j", "mean_clock_mhz"});
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            const auto& a = result.per_function[static_cast<std::size_t>(f)];
            if (a.calls == 0) continue;
            csv.add_row({sph::to_string(static_cast<sph::SphFunction>(f)),
                         std::to_string(a.calls), util::format_fixed(a.time_s, 6),
                         util::format_fixed(a.gpu_energy_j, 3),
                         util::format_fixed(a.cpu_energy_j, 3),
                         util::format_fixed(a.mean_clock_mhz(), 1)});
        }
        if (csv.write_file(opt.csv_out)) {
            std::cout << "\nReport written to " << opt.csv_out << "\n";
        }
    }

    if (tracer) {
        if (!result.rank0_clock_trace.empty()) {
            tracer->add_counter_series(0, "governor_clock_mhz",
                                       result.rank0_clock_trace);
        }
        if (!tracer->write_chrome_json(opt.trace_json)) {
            std::cerr << "error: failed to write " << opt.trace_json << "\n";
            return 1;
        }
        std::cout << "Chrome trace written to " << opt.trace_json
                  << " (open in ui.perfetto.dev)\n";
    }
    if (!write_metrics_json(opt)) return 1;
    if (ledger && !opt.ledger_out.empty()) {
        // Header deliberately excludes thread count, argv and hashes over
        // them: ledgers must be byte-identical across --threads and across
        // kill -> resume.
        telemetry::Json header = telemetry::Json::object();
        header["system"] = opt.system;
        header["workload"] = opt.workload;
        header["policy"] = policy->name();
        header["ranks"] = opt.ranks;
        header["steps"] = opt.steps;
        if (!ledger->write_jsonl(opt.ledger_out, header)) {
            std::cerr << "error: failed to write " << opt.ledger_out << "\n";
            return 1;
        }
        std::cout << "Attribution ledger written to " << opt.ledger_out << "\n";
    }
    if (!opt.summary_json.empty()) {
        telemetry::RunSummaryContext ctx;
        ctx.policy = policy->name();
        ctx.config = config_echo(opt, kRun);
        ctx.argv = argv;
        ctx.config_hash = config_hash;
        if (resuming) ctx.resumed_from = opt.resume_dir;
        ctx.checkpoints_written = result.checkpoints_written;
        if (sampler) ctx.alerts = sampler->anomaly().alerts_json();
        if (traced_run) ctx.trace_id = run_ctx.trace_id();
        if (!telemetry::write_run_summary(opt.summary_json, result, ctx)) {
            std::cerr << "error: failed to write " << opt.summary_json << "\n";
            return 1;
        }
        std::cout << "Run summary written to " << opt.summary_json << "\n";
    }
    return 0;
}

/// Fleet summary document.  Deliberately carries the same energy_j / edp /
/// makespan_s keys as greensph.run_summary/v1 so greensph_report
/// --baseline can gate fleet benches; everything outside "provenance" is a
/// pure function of the simulated fleet (byte-identical across --threads
/// and across kill -> resume).
telemetry::Json fleet_summary_json(const fleet::FleetResult& result,
                                   const Options& opt,
                                   const std::vector<std::string>& argv,
                                   const std::string& config_hash,
                                   const std::string& resumed_from)
{
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = "greensph.fleet_summary/v1";
    j["system"] = opt.system;
    j["workload"] = opt.workload;
    j["policy"] = "fleet-" + opt.fleet_policy;
    j["n_ranks"] = result.n_gpus;
    j["n_steps"] = result.rounds;
    j["makespan_s"] = result.makespan_s;
    telemetry::Json energy = telemetry::Json::object();
    energy["gpu"] = result.gpu_energy_j;
    energy["node"] = result.node_energy_j;
    j["energy_j"] = std::move(energy);
    telemetry::Json edp = telemetry::Json::object();
    edp["gpu"] = result.gpu_edp();
    edp["node"] = result.node_edp();
    j["edp"] = std::move(edp);
    j["per_function"] = telemetry::Json::array();

    telemetry::Json f = telemetry::Json::object();
    f["n_nodes"] = result.n_nodes;
    f["n_gpus"] = result.n_gpus;
    f["rounds"] = result.rounds;
    f["budget_w"] = opt.budget_w;
    f["fleet_policy"] = opt.fleet_policy;
    f["jobs_completed"] = result.jobs_completed;
    f["deadline_misses"] = result.deadline_misses;
    f["deadline_miss_rate"] = result.deadline_miss_rate();
    f["total_wait_s"] = result.total_wait_s;
    telemetry::Json jobs = telemetry::Json::array();
    for (const fleet::FleetJobOutcome& o : result.jobs) {
        telemetry::Json job = telemetry::Json::object();
        job["job_id"] = o.record.job_id;
        job["job_name"] = o.record.job_name;
        job["elapsed_s"] = o.record.elapsed_s;
        job["consumed_energy_j"] = o.record.consumed_energy_j;
        job["n_nodes"] = o.record.n_nodes;
        job["arrival_s"] = o.arrival_s;
        job["start_s"] = o.start_s;
        job["finish_s"] = o.finish_s;
        job["deadline_s"] = o.deadline_s;
        job["missed_deadline"] = o.missed_deadline;
        job["gpu_energy_j"] = o.gpu_energy_j;
        jobs.push_back(std::move(job));
    }
    f["jobs"] = std::move(jobs);
    j["fleet"] = std::move(f);
    j["config"] = config_echo(opt, kFleet);

    telemetry::Json prov = telemetry::Json::object();
    telemetry::Json args = telemetry::Json::array();
    for (const std::string& a : argv) args.push_back(a);
    prov["argv"] = std::move(args);
    prov["config_hash"] = config_hash;
    prov["resumed_from"] = resumed_from;
    prov["checkpoints_written"] = result.checkpoints_written;
    j["provenance"] = std::move(prov);
    return j;
}

int cmd_fleet(Options opt, const std::vector<std::string>& argv)
{
    telemetry::MetricsRegistry::global().reset();

    checkpoint::Snapshot snapshot;
    const bool resuming = !opt.resume_dir.empty();
    if (resuming) snapshot = resume_snapshot(opt, kFleet);

    const std::string config_hash = config_hash_of(opt, kFleet);
    const auto faults_guard = install_faults(opt);
    const auto system = sim::system_by_name(opt.system);
    const auto trace = load_or_record(opt);

    // Synthetic job mix: walltime estimates are derived from a probe replay
    // of the trace, so deadlines are achievable on uncapped hardware.
    fleet::JobMixConfig mix;
    mix.n_jobs = opt.jobs;
    mix.max_nodes_per_job = std::min(4, opt.fleet_nodes);
    mix.min_steps = 2;
    mix.max_steps = std::max(2, std::min(6, opt.steps));
    mix.est_step_s = fleet::estimate_step_s(system, trace);
    mix.mean_interarrival_s = 4.0 * mix.est_step_s;
    mix.deadline_slack = 3.0;
    mix.seed = opt.seed;

    fleet::FleetConfig cfg;
    cfg.system = system;
    cfg.trace = trace;
    cfg.n_nodes = opt.fleet_nodes;
    mix.overhead_s = cfg.setup_s + cfg.teardown_s;
    cfg.jobs = fleet::generate_jobs(mix);
    cfg.policy = fleet::fleet_policy_from_string(opt.fleet_policy);
    cfg.budget_w = opt.budget_w;
    cfg.checkpoint_every = opt.checkpoint_every;
    cfg.checkpoint_dir = opt.checkpoint_dir;
    cfg.config_hash = config_hash;
    if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty()) {
        throw std::invalid_argument("--checkpoint-every needs --checkpoint-dir");
    }
    if (resuming) cfg.resume = &snapshot;

    checkpoint::StateRegistry registry;
    add_command_participants(registry, opt, kFleet);
    cfg.checkpoint_participants = &registry;

    // Fleet observability plane: per-round snapshots for /fleet.json plus
    // the policy-labeled fleet.* roll-up series, and (with --trace-json)
    // scheduler/job spans at simulated time.
    fleet::FleetMonitor monitor;
    std::unique_ptr<telemetry::SpanTracer> fleet_tracer;
    if (!opt.trace_json.empty()) {
        fleet_tracer = std::make_unique<telemetry::SpanTracer>();
        cfg.tracer = fleet_tracer.get();
    }
    std::unique_ptr<telemetry::MetricsExporter> exporter;
    if (opt.metrics_port >= 0) {
        cfg.monitor = &monitor;
        telemetry::ExporterConfig exp_cfg;
        exp_cfg.port = static_cast<std::uint16_t>(opt.metrics_port);
        exporter = std::make_unique<telemetry::MetricsExporter>(exp_cfg);
        exporter->add_json_endpoint("/fleet.json",
                                    [&monitor] { return monitor.fleet_json(); });
        exporter->add_exposition_source(
            [&monitor] { return monitor.exposition(); });
        exporter->start();
        // std::endl, not '\n': scripts parse this line from a pipe while the
        // fleet is still running.
        std::cout << "Metrics exporter listening on 127.0.0.1:" << exporter->port()
                  << std::endl;
    }

    std::cout << "Fleet: " << cfg.n_nodes << " node(s) of " << system.name << ", "
              << cfg.jobs.size() << " job(s), policy "
              << fleet::to_string(cfg.policy);
    if (cfg.budget_w > 0.0) {
        std::cout << ", budget " << util::format_fixed(cfg.budget_w / 1000.0, 1)
                  << " kW";
    }
    std::cout << "\n\n";

    const fleet::FleetResult result = fleet::run_fleet(cfg);

    linger_and_stop(exporter.get(), opt);

    if (fleet_tracer) {
        if (!fleet_tracer->write_file(opt.trace_json)) {
            std::cerr << "error: failed to write " << opt.trace_json << "\n";
            return 1;
        }
        std::cout << "Fleet trace written to " << opt.trace_json
                  << " (open in ui.perfetto.dev)\n";
    }

    std::cout << format_fleet_sacct(result) << "\n";
    util::Table table({"Metric", "Value"});
    table.add_row({"makespan [s]", util::format_fixed(result.makespan_s, 1)});
    table.add_row({"node energy", util::format_si(result.node_energy_j, "J", 3)});
    table.add_row({"GPU energy", util::format_si(result.gpu_energy_j, "J", 3)});
    table.add_row({"node EDP", util::format_si(result.node_edp(), "Js", 3)});
    table.add_row({"jobs completed", std::to_string(result.jobs_completed)});
    table.add_row({"deadline misses", std::to_string(result.deadline_misses)});
    table.add_row(
        {"mean wait [s]",
         util::format_fixed(result.jobs_completed > 0
                                ? result.total_wait_s / result.jobs_completed
                                : 0.0,
                            1)});
    table.print(std::cout);

    if (!opt.summary_json.empty()) {
        const telemetry::Json summary = fleet_summary_json(
            result, opt, argv, config_hash, resuming ? opt.resume_dir : "");
        if (!util::atomic_write_file(opt.summary_json, summary.dump(2) + "\n")) {
            std::cerr << "error: failed to write " << opt.summary_json << "\n";
            return 1;
        }
        std::cout << "\nFleet summary written to " << opt.summary_json << "\n";
    }
    if (!write_metrics_json(opt)) return 1;
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    Options opt;
    try {
        if (!parse_args(argc, argv, opt)) {
            usage();
            return argc < 2 ? 1 : 0;
        }
        configure_logging(opt);
        if (opt.command == "systems") return cmd_systems();
        if (opt.command == "tune") return cmd_tune(opt);
        if (opt.command == "tuned") return cmd_tuned(opt);
        if (opt.command == "run") {
            return cmd_run(opt, std::vector<std::string>(argv, argv + argc));
        }
        if (opt.command == "fleet") {
            return cmd_fleet(opt, std::vector<std::string>(argv, argv + argc));
        }
        std::cerr << "unknown command: " << opt.command << "\n";
        usage();
        return 1;
    }
    catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
