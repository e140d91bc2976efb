/// Kill-resume harness (the ISSUE's acceptance gate): fork/exec the real
/// CLI, let the fault injector SIGKILL it mid-run after a checkpoint
/// committed, resume from the checkpoint directory, and require the resumed
/// run's summary JSON to be byte-identical to an uninterrupted run's once
/// the provenance object is stripped.  Also drives every CLI-level
/// rejection path: torn data files, version skew, config-hash mismatch,
/// malformed numeric flags; checks that --threads changes no output file of
/// a run and is no part of what a checkpoint restores; and pins the config
/// hashes that name a run.
///
/// GSPH_CLI_PATH is injected by CMake as $<TARGET_FILE:greensph_cli>.

#include "checkpoint/checkpoint.hpp"
#include "telemetry/json.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace gsph {
namespace {

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_kill_XXXXXX";
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

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spill(const std::string& path, const std::string& data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
    ASSERT_TRUE(out.good()) << path;
}

/// fork/exec the CLI; returns the raw waitpid status.  Child stdout/stderr
/// go to /dev/null — rejection tests intentionally provoke error output.
int run_cli(const std::vector<std::string>& args)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(GSPH_CLI_PATH));
    for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        ::execv(GSPH_CLI_PATH, argv.data());
        std::_Exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

bool exited_zero(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }
bool exited_nonzero(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) != 0;
}

/// Summary members keyed by name, each compact-dumped, minus "provenance".
std::map<std::string, std::string> summary_members(const std::string& path)
{
    const std::string text = slurp(path);
    EXPECT_FALSE(text.empty()) << "missing summary " << path;
    std::map<std::string, std::string> out;
    if (text.empty()) return out;
    const telemetry::Json doc = telemetry::Json::parse(text);
    for (const auto& [name, value] : doc.members()) {
        if (name == "provenance") continue;
        out[name] = value.dump();
    }
    return out;
}

struct KillCase {
    int threads;
    int ranks;
    const char* policy;
    const char* faults;        // durable clauses, "" = none
    const char* tune_strategy; // "" = CLI default (exhaustive)
    // Also set every other defining option away from its default:
    // --trace-in, --particles-per-gpu and a --fault-seed above 2^53 (which
    // a double would round), so a row the checkpoint drops shows up.
    bool inputs = false;
};

std::string case_name(const testing::TestParamInfo<KillCase>& info)
{
    std::string policy = info.param.policy;
    const auto colon = policy.find(':');
    if (colon != std::string::npos) policy.erase(colon);
    std::string name = policy + "Threads" + std::to_string(info.param.threads) +
                       "Ranks" + std::to_string(info.param.ranks);
    if (info.param.tune_strategy[0] != '\0') name += "Model";
    if (info.param.faults[0] != '\0') name += "Faulted";
    if (info.param.inputs) name += "Inputs";
    return name;
}

std::vector<std::string> run_args(const KillCase& param, const std::string& ckpt_dir,
                                  const std::string& summary, const std::string& faults,
                                  const std::vector<std::string>& extra = {})
{
    std::vector<std::string> args = {
        "run",           "--system",          "minihpc",
        "--workload",    "turbulence",        "--policy",
        param.policy,    "--ranks",           std::to_string(param.ranks),
        "--steps",       "8",                 "--threads",
        std::to_string(param.threads),        "--nside",
        "6",             "--checkpoint-every", "2",
        "--checkpoint-dir", ckpt_dir,         "--summary-json",
        summary,         "--log-level",       "off",
    };
    if (!faults.empty()) {
        args.push_back("--fault-spec");
        args.push_back(faults);
    }
    if (param.tune_strategy[0] != '\0') {
        args.push_back("--tune-strategy");
        args.push_back(param.tune_strategy);
    }
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

class KillResume : public testing::TestWithParam<KillCase> {};

TEST_P(KillResume, ResumedSummaryMatchesUninterruptedMinusProvenance)
{
    const KillCase param = GetParam();
    TempDir dir;
    const std::string ref_summary = dir.path() + "/ref.json";
    const std::string res_summary = dir.path() + "/resumed.json";
    const std::string ref_ckpt = dir.path() + "/ck_ref";
    const std::string kill_ckpt = dir.path() + "/ck_kill";
    std::vector<std::string> extra;
    if (param.inputs) {
        // A trace the run's own options would not record (workload, size,
        // step count), so replaying it is what the summary shows.
        const std::string trace = dir.path() + "/trace.txt";
        ASSERT_TRUE(exited_zero(run_cli({"run", "--workload", "evrard", "--nside", "7",
                                         "--steps", "3", "--trace-out", trace,
                                         "--log-level", "off"})));
        extra = {"--trace-in", trace, "--particles-per-gpu", "2.5e7", "--fault-seed",
                 "9007199254740993"};
    }

    // Uninterrupted reference (same durable faults, no kill clause).
    ASSERT_TRUE(exited_zero(
        run_cli(run_args(param, ref_ckpt, ref_summary, param.faults, extra))));

    // Killed run: SIGKILL at end of step index 4, after the step-4 commit.
    std::string killer = param.faults;
    if (!killer.empty()) killer += ";";
    killer += "kill-at-step:step=4";
    const int status = run_cli(run_args(param, kill_ckpt, res_summary, killer, extra));
    ASSERT_TRUE(WIFSIGNALED(status)) << "status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_TRUE(slurp(res_summary).empty()) << "killed run must not emit a summary";
    if (param.inputs) {
        // The config echo holds the seed as a double, so neither the hash
        // nor the summary could tell 2^53 + 1 from 2^53; the checkpoint must.
        EXPECT_EQ(checkpoint::read_latest(kill_ckpt).reader("cli").get_str("fault_seed"),
                  "9007199254740993");
    }

    // Resume: run-defining options come from the checkpoint, not the flags.
    ASSERT_TRUE(exited_zero(run_cli({"run", "--resume", kill_ckpt, "--summary-json",
                                     res_summary, "--log-level", "off"})));

    const auto ref = summary_members(ref_summary);
    const auto resumed = summary_members(res_summary);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(resumed, ref);

    // Provenance must record the resume itself.
    const auto doc = telemetry::Json::parse(slurp(res_summary));
    ASSERT_TRUE(doc.contains("provenance"));
    EXPECT_EQ(doc.at("provenance").at("resumed_from").as_string(), kill_ckpt);
    const auto ref_doc = telemetry::Json::parse(slurp(ref_summary));
    EXPECT_EQ(ref_doc.at("provenance").at("resumed_from").as_string(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Cli, KillResume,
    testing::Values(KillCase{1, 2, "static:1200", "", ""},
                    KillCase{4, 4, "static:1200", "", ""},
                    KillCase{4, 2, "mandyn", "transient-set:p=0.2", ""},
                    // The resume leg passes no --tune-strategy: the option
                    // must round-trip through the checkpoint's cli section
                    // (and the config hash) on its own.
                    KillCase{1, 2, "online", "", "model"},
                    KillCase{4, 2, "online", "", "model"},
                    KillCase{1, 2, "mandyn", "transient-set:p=0.2", "", true}),
    case_name);

/// The summary minus provenance.argv (the command line itself), dumped.
std::string summary_without_argv(const std::string& path)
{
    const std::string text = slurp(path);
    EXPECT_FALSE(text.empty()) << "missing summary " << path;
    if (text.empty()) return {};
    telemetry::Json doc = telemetry::Json::parse(text);
    telemetry::Json stripped = telemetry::Json::object();
    for (const auto& [name, value] : doc.members()) {
        if (name != "provenance") {
            stripped[name] = value;
            continue;
        }
        telemetry::Json provenance = telemetry::Json::object();
        for (const auto& [key, field] : value.members()) {
            if (key != "argv") provenance[key] = field;
        }
        stripped[name] = std::move(provenance);
    }
    return stripped.dump();
}

/// --threads changes no output byte: the run trace id derives from a config
/// hash that leaves the thread count out, and the driver fires hooks in one
/// order at every thread count, so traces, ledgers and summaries match.
TEST(CliThreads, RunOutputsIdenticalAcrossThreadCounts)
{
    for (const char* policy : {"mandyn", "online"}) {
        TempDir dir;
        auto run = [&](int threads) {
            const std::string tag = dir.path() + "/t" + std::to_string(threads);
            EXPECT_TRUE(exited_zero(run_cli(
                {"run", "--system", "minihpc", "--workload", "turbulence",
                 "--policy", policy, "--ranks", "4", "--steps", "6", "--nside", "6",
                 "--threads", std::to_string(threads), "--trace-json",
                 tag + ".trace.json", "--ledger", tag + ".ledger.jsonl",
                 "--summary-json", tag + ".summary.json", "--log-level", "off"})))
                << policy << " --threads " << threads;
            return tag;
        };
        const std::string one = run(1);
        const std::string four = run(4);
        const std::string trace = slurp(one + ".trace.json");
        ASSERT_FALSE(trace.empty()) << policy;
        EXPECT_EQ(trace, slurp(four + ".trace.json")) << policy;
        const std::string ledger = slurp(one + ".ledger.jsonl");
        ASSERT_FALSE(ledger.empty()) << policy;
        EXPECT_EQ(ledger, slurp(four + ".ledger.jsonl")) << policy;
        EXPECT_EQ(summary_without_argv(one + ".summary.json"),
                  summary_without_argv(four + ".summary.json"))
            << policy;
    }
}

/// The keys of a checkpoint section, in file order.
std::vector<std::string> section_keys(const std::string& ckpt_dir,
                                      const std::string& section)
{
    return checkpoint::read_latest(ckpt_dir).reader(section).keys_with_prefix("");
}

/// A checkpoint's `cli` sections hold exactly the options that define the
/// run; --threads is a property of the host that resumes, so a resume runs
/// at its own --threads and still reproduces the trace byte for byte.
TEST(CliThreads, ResumeKeepsTheResumingThreadCount)
{
    TempDir dir;
    const KillCase param{4, 2, "mandyn", "", ""};
    const std::string ref_trace = dir.path() + "/ref_trace.json";
    const std::string res_trace = dir.path() + "/res_trace.json";
    const std::string kill_ckpt = dir.path() + "/ck_kill";
    ASSERT_TRUE(exited_zero(run_cli(run_args(param, dir.path() + "/ck_ref",
                                             dir.path() + "/ref.json", "",
                                             {"--trace-json", ref_trace}))));
    const int status = run_cli(run_args(param, kill_ckpt, dir.path() + "/res.json",
                                        "kill-at-step:step=4",
                                        {"--trace-json", res_trace}));
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;

    EXPECT_EQ(section_keys(kill_ckpt, "cli"),
              (std::vector<std::string>{"system", "workload", "policy", "ranks",
                                        "steps", "nside", "particles_per_gpu",
                                        "fault_spec", "fault_seed", "tune_strategy",
                                        "trace_in", "policy_from"}));

    ASSERT_TRUE(exited_zero(run_cli({"run", "--resume", kill_ckpt, "--threads", "1",
                                     "--trace-json", res_trace, "--log-level",
                                     "off"})));
    const std::string reference = slurp(ref_trace);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(slurp(res_trace), reference);

    const std::string fleet_ckpt = dir.path() + "/ck_fleet";
    const int fleet_status = run_cli(
        {"fleet", "--system", "cscs", "--fleet-nodes", "8", "--jobs", "6", "--steps",
         "3", "--nside", "6", "--fleet-policy", "negotiated", "--budget-w", "9000",
         "--threads", "4", "--checkpoint-every", "2", "--checkpoint-dir", fleet_ckpt,
         "--fault-spec", "kill-at-step:step=3", "--log-level", "off"});
    ASSERT_TRUE(WIFSIGNALED(fleet_status) && WTERMSIG(fleet_status) == SIGKILL)
        << fleet_status;
    EXPECT_EQ(section_keys(fleet_ckpt, "fleet.cli"),
              (std::vector<std::string>{"system", "workload", "steps", "nside",
                                        "particles_per_gpu", "fleet_nodes", "jobs",
                                        "budget_w", "fleet_policy", "seed",
                                        "fault_spec", "fault_seed", "trace_in"}));
}

/// A numeric flag must be a whole number of its type.  std::sto* stopped at
/// the first bad character: "--steps 1e2" ran 1 step, "--seed -1" wrapped
/// to 2^64-1 and "--fault-seed 0x10" parsed as 0.
TEST(CliOptions, RejectsPartialNumericValues)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--steps", "1e2"},      {"--ranks", "2.9"},   {"--steps", "3x"},
        {"--seed", "-1"},        {"--fault-seed", "0x10"}, {"--steps", "+3"},
        {"--steps", " 3"},       {"--particles-per-gpu", "1e7x"},
    };
    for (const auto& flag : bad) {
        std::vector<std::string> args = {"run", "--nside", "6", "--steps", "1",
                                         "--log-level", "off"};
        args.insert(args.end(), flag.begin(), flag.end());
        EXPECT_TRUE(exited_nonzero(run_cli(args))) << flag[0] << " '" << flag[1] << "'";
    }
}

/// The config hash names a run: its checkpoints, trace ids and audit
/// records all derive from it, so a change to it is a format change.
TEST(CliOptions, ConfigHashesArePinned)
{
    TempDir dir;
    auto hash_of = [&](std::vector<std::string> args) {
        const std::string summary = dir.path() + "/summary.json";
        args.insert(args.end(), {"--summary-json", summary, "--log-level", "off"});
        EXPECT_TRUE(exited_zero(run_cli(args))) << args[0];
        const std::string text = slurp(summary);
        if (text.empty()) return std::string();
        return telemetry::Json::parse(text)
            .at("provenance")
            .at("config_hash")
            .as_string();
    };
    EXPECT_EQ(hash_of({"run", "--policy", "online", "--tune-strategy", "model",
                       "--ranks", "4", "--steps", "6", "--nside", "6"}),
              "c5a15e9b910a49e9");
    EXPECT_EQ(hash_of({"fleet", "--fleet-nodes", "8", "--jobs", "6", "--budget-w",
                       "3000", "--fleet-policy", "negotiated", "--steps", "4",
                       "--nside", "6"}),
              "7d7d28dea7be2fa9");
    EXPECT_EQ(hash_of({"run", "--policy", "mandyn", "--ranks", "4", "--steps", "6",
                       "--nside", "6"}),
              "02d8068e3804832a");
}

/// Produce a real killed-run checkpoint directory for the rejection tests.
void make_killed_checkpoint(const TempDir& dir, const std::string& ckpt_dir)
{
    const KillCase param{1, 2, "static:1200", "", ""};
    const int status = run_cli(run_args(param, ckpt_dir, dir.path() + "/s.json",
                                        "kill-at-step:step=4"));
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
}

TEST(KillResumeRejection, CorruptedDataFileFailsResume)
{
    TempDir dir;
    const std::string ckpt = dir.path() + "/ck";
    make_killed_checkpoint(dir, ckpt);

    const auto manifest = telemetry::Json::parse(slurp(ckpt + "/MANIFEST.json"));
    const std::string data_path =
        ckpt + "/" + manifest.at("data_file").as_string();
    std::string data = slurp(data_path);
    ASSERT_FALSE(data.empty());
    data[data.size() / 2] ^= 0x01;
    spill(data_path, data);

    EXPECT_TRUE(exited_nonzero(
        run_cli({"run", "--resume", ckpt, "--log-level", "off"})));
}

TEST(KillResumeRejection, FormatVersionSkewFailsResume)
{
    TempDir dir;
    const std::string ckpt = dir.path() + "/ck";
    make_killed_checkpoint(dir, ckpt);

    auto manifest = telemetry::Json::parse(slurp(ckpt + "/MANIFEST.json"));
    manifest["format_version"] = manifest.at("format_version").as_number() + 1;
    spill(ckpt + "/MANIFEST.json", manifest.dump(2) + "\n");

    EXPECT_TRUE(exited_nonzero(
        run_cli({"run", "--resume", ckpt, "--log-level", "off"})));
}

TEST(KillResumeRejection, ConfigHashMismatchFailsResume)
{
    TempDir dir;
    const std::string ckpt = dir.path() + "/ck";
    make_killed_checkpoint(dir, ckpt);

    auto manifest = telemetry::Json::parse(slurp(ckpt + "/MANIFEST.json"));
    manifest["config_hash"] = "deadbeefdeadbeef";
    spill(ckpt + "/MANIFEST.json", manifest.dump(2) + "\n");

    EXPECT_TRUE(exited_nonzero(
        run_cli({"run", "--resume", ckpt, "--log-level", "off"})));
}

TEST(KillResumeRejection, MissingCheckpointDirFailsResume)
{
    EXPECT_TRUE(exited_nonzero(run_cli(
        {"run", "--resume", "/nonexistent/gsph_ck", "--log-level", "off"})));
}

} // namespace
} // namespace gsph
