/// Fleet subsystem tests: scheduler semantics (FCFS + conservative
/// backfill), power-budget negotiation, job-mix determinism, end-to-end
/// fleet runs with Slurm accounting, 256-node/1024-GPU thread bit-identity,
/// checkpoint pause/resume bit-identity, and CLI-level kill -> resume of a
/// fleet run (fork/exec, SIGKILL via the fault injector).
///
/// GSPH_CLI_PATH is injected by CMake as $<TARGET_FILE:greensph_cli>.

#include "checkpoint/checkpoint.hpp"
#include "fleet/fleet.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace gsph {
namespace {

// ---------------------------------------------------------------- scheduler

fleet::JobSpec job(int id, int n_nodes, double arrival_s, double est_runtime_s)
{
    fleet::JobSpec j;
    j.id = id;
    j.name = "j" + std::to_string(id);
    j.n_nodes = n_nodes;
    j.arrival_s = arrival_s;
    j.est_runtime_s = est_runtime_s;
    return j;
}

TEST(FleetScheduler, PlacesFcfsOnFreeNodes)
{
    const std::vector<fleet::NodeAvail> nodes(4); // all free at t=0
    const std::vector<fleet::JobSpec> queue = {job(0, 2, 0.0, 10.0),
                                               job(1, 2, 5.0, 10.0)};
    const auto placements = fleet::schedule(queue, nodes);
    ASSERT_EQ(placements.size(), 2u);
    EXPECT_EQ(placements[0].queue_index, 0u);
    EXPECT_EQ(placements[0].nodes, (std::vector<int>{0, 1}));
    EXPECT_EQ(placements[0].start_s, 0.0);
    EXPECT_EQ(placements[1].queue_index, 1u);
    EXPECT_EQ(placements[1].nodes, (std::vector<int>{2, 3}));
    EXPECT_EQ(placements[1].start_s, 5.0);
}

TEST(FleetScheduler, ConservativeBackfillCannotDelayReservation)
{
    // Nodes 0 and 1 busy until ~100; node 2 free.  The 3-node head job
    // reserves all nodes from t=100; a short job may slip onto node 2, a
    // long one may not.
    std::vector<fleet::NodeAvail> nodes(3);
    nodes[0] = {0.0, true, 100.0};
    nodes[1] = {0.0, true, 100.0};
    nodes[2] = {0.0, false, 0.0};

    const std::vector<fleet::JobSpec> blocked_then_short = {
        job(0, 3, 0.0, 50.0), job(1, 1, 0.0, 60.0)};
    const auto ok = fleet::schedule(blocked_then_short, nodes);
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].queue_index, 1u); // backfilled past the waiting head
    EXPECT_EQ(ok[0].nodes, (std::vector<int>{2}));
    EXPECT_EQ(ok[0].start_s, 0.0);

    const std::vector<fleet::JobSpec> blocked_then_long = {
        job(0, 3, 0.0, 50.0), job(1, 1, 0.0, 200.0)};
    // 200 s on node 2 would push the head job past its t=100 reservation.
    EXPECT_TRUE(fleet::schedule(blocked_then_long, nodes).empty());
}

TEST(FleetScheduler, ThrowsWhenJobExceedsFleet)
{
    const std::vector<fleet::NodeAvail> nodes(2);
    const std::vector<fleet::JobSpec> queue = {job(0, 3, 0.0, 10.0)};
    EXPECT_THROW(fleet::schedule(queue, nodes), std::invalid_argument);
}

// -------------------------------------------------------------- coordinator

TEST(FleetCoordinator, UniformSplitsBudgetAcrossAllNodes)
{
    const auto system = sim::cscs_a100();
    const fleet::PowerCoordinator coord(fleet::FleetPolicy::kUniformCap, 8000.0,
                                        system, 4);
    const auto caps = coord.apportion({true, false, true, false},
                                      {500.0, 0.0, 900.0, 0.0});
    ASSERT_EQ(caps.size(), 4u);
    for (double c : caps) EXPECT_EQ(c, 2000.0); // idle nodes burn budget too
}

TEST(FleetCoordinator, NegotiatedGrantsDemandAndLeavesIdleUncapped)
{
    const auto system = sim::cscs_a100();
    const double tdp = fleet::PowerCoordinator(fleet::FleetPolicy::kUncapped,
                                               0.0, system, 4)
                           .node_tdp_w();
    const fleet::PowerCoordinator coord(fleet::FleetPolicy::kNegotiated,
                                        4.0 * tdp, system, 4, 1.10);
    // Generous budget: busy nodes get measured demand + headroom, clamped to
    // at least the idle floor; idle nodes stay uncapped (they draw the
    // floor regardless).
    const auto caps = coord.apportion({true, true, false, false},
                                      {1000.0, 1500.0, 0.0, 0.0});
    EXPECT_NEAR(caps[0], std::max(1000.0 * 1.10, coord.node_idle_w()), 1e-9);
    EXPECT_NEAR(caps[1], std::max(1500.0 * 1.10, coord.node_idle_w()), 1e-9);
    EXPECT_EQ(caps[2], 0.0);
    EXPECT_EQ(caps[3], 0.0);
}

TEST(FleetCoordinator, NegotiatedScalesProRataUnderTightBudget)
{
    const auto system = sim::cscs_a100();
    const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0,
                                        system, 4);
    const double tdp = probe.node_tdp_w();
    const double idle = probe.node_idle_w();
    // Budget covers idle floors plus roughly half the dynamic demand.
    const double budget = 2.0 * idle + 2.0 * (idle + 0.5 * (tdp - idle));
    const fleet::PowerCoordinator coord(fleet::FleetPolicy::kNegotiated, budget,
                                        system, 4, 1.0);
    const auto caps = coord.apportion({true, true, false, false},
                                      {tdp, tdp, 0.0, 0.0});
    // Both busy caps squeezed between floor and TDP, and the total spend
    // (busy caps + idle floors) stays within budget.
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(caps[i], idle);
        EXPECT_LT(caps[i], tdp);
    }
    EXPECT_LE(caps[0] + caps[1] + 2.0 * idle, budget + 1e-6);
}

TEST(FleetCoordinator, CappedPolicyRequiresBudget)
{
    const auto system = sim::cscs_a100();
    EXPECT_THROW(fleet::PowerCoordinator(fleet::FleetPolicy::kUniformCap, 0.0,
                                         system, 4),
                 std::invalid_argument);
}

// ------------------------------------------------------------------ job mix

TEST(FleetJobMix, GenerationIsDeterministicAndOrdered)
{
    fleet::JobMixConfig mix;
    mix.n_jobs = 32;
    mix.seed = 7;
    const auto a = fleet::generate_jobs(mix);
    const auto b = fleet::generate_jobs(mix);
    ASSERT_EQ(a.size(), 32u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].n_nodes, b[i].n_nodes);
        EXPECT_EQ(a[i].n_steps, b[i].n_steps);
        EXPECT_EQ(a[i].work_scale, b[i].work_scale);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
        EXPECT_GE(a[i].n_nodes, 1);
        EXPECT_LE(a[i].n_nodes, mix.max_nodes_per_job);
        EXPECT_GT(a[i].deadline_s, a[i].arrival_s);
    }
    mix.seed = 8;
    const auto c = fleet::generate_jobs(mix);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].arrival_s != c[i].arrival_s) differs = true;
    }
    EXPECT_TRUE(differs);
}

// -------------------------------------------------------------- end-to-end

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 20e6;
        spec.n_steps = 3;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

fleet::FleetConfig small_fleet(fleet::FleetPolicy policy)
{
    fleet::FleetConfig cfg;
    cfg.system = sim::cscs_a100();
    cfg.trace = trace();
    cfg.n_nodes = 4;
    cfg.policy = policy;

    fleet::JobMixConfig mix;
    mix.n_jobs = 6;
    mix.max_nodes_per_job = 2;
    mix.min_steps = 2;
    mix.max_steps = 4;
    mix.est_step_s = fleet::estimate_step_s(cfg.system, cfg.trace);
    mix.mean_interarrival_s = 2.0 * mix.est_step_s;
    mix.deadline_slack = 3.0;
    cfg.jobs = fleet::generate_jobs(mix);
    return cfg;
}

TEST(FleetRun, CompletesAllJobsWithSlurmAccounting)
{
    const auto cfg = small_fleet(fleet::FleetPolicy::kUncapped);
    const auto result = fleet::run_fleet(cfg);
    EXPECT_FALSE(result.paused);
    EXPECT_EQ(result.jobs_completed, 6);
    ASSERT_EQ(result.jobs.size(), 6u);
    EXPECT_GT(result.makespan_s, 0.0);
    EXPECT_GT(result.gpu_energy_j, 0.0);
    EXPECT_GT(result.node_energy_j, result.gpu_energy_j); // host + aux on top
    for (const auto& o : result.jobs) {
        EXPECT_TRUE(o.record.completed);
        EXPECT_GT(o.record.elapsed_s, 0.0);
        EXPECT_GT(o.record.consumed_energy_j, 0.0);
        // Slurm granularity: integral joules.
        EXPECT_EQ(o.record.consumed_energy_j,
                  std::floor(o.record.consumed_energy_j));
        EXPECT_GE(o.start_s, o.arrival_s);
        EXPECT_GT(o.finish_s, o.start_s);
        EXPECT_GT(o.gpu_energy_j, 0.0);
        // The whole-allocation reading includes host, DRAM and aux draw.
        EXPECT_GT(o.record.consumed_energy_j, o.gpu_energy_j);
    }
    // Uncapped with slack deadlines: nothing misses.
    EXPECT_EQ(result.deadline_misses, 0);
    const std::string sacct = fleet::format_fleet_sacct(result);
    EXPECT_NE(sacct.find("fleetjob-0"), std::string::npos);
    EXPECT_NE(sacct.find("ConsumedEnergy"), std::string::npos);
}

TEST(FleetRun, ExportsFleetGauges)
{
    auto& registry = telemetry::MetricsRegistry::global();
    (void)fleet::run_fleet(small_fleet(fleet::FleetPolicy::kUncapped));
    // After the drain the queue is empty and nothing is busy; the gauges
    // exist and hold the final state.
    EXPECT_EQ(registry.value("fleet.queue_depth"), 0.0);
    EXPECT_EQ(registry.value("fleet.nodes_busy"), 0.0);
    EXPECT_EQ(registry.value("fleet.deadline_misses"), 0.0);
    EXPECT_GT(registry.value("fleet.cluster_power_w"), 0.0); // idle floor
}

void expect_identical(const fleet::FleetResult& a, const fleet::FleetResult& b)
{
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.node_energy_j, b.node_energy_j);
    EXPECT_EQ(a.gpu_energy_j, b.gpu_energy_j);
    EXPECT_EQ(a.jobs_completed, b.jobs_completed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.total_wait_s, b.total_wait_s);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].record.job_id, b.jobs[i].record.job_id);
        EXPECT_EQ(a.jobs[i].record.elapsed_s, b.jobs[i].record.elapsed_s);
        EXPECT_EQ(a.jobs[i].record.consumed_energy_j,
                  b.jobs[i].record.consumed_energy_j);
        EXPECT_EQ(a.jobs[i].start_s, b.jobs[i].start_s);
        EXPECT_EQ(a.jobs[i].finish_s, b.jobs[i].finish_s);
        EXPECT_EQ(a.jobs[i].missed_deadline, b.jobs[i].missed_deadline);
        EXPECT_EQ(a.jobs[i].gpu_energy_j, b.jobs[i].gpu_energy_j);
    }
}

/// The uniform policy end to end: every node capped at an equal share of a
/// binding budget, so every kernel runs at a throttled clock.  The fleet
/// has no thread pool, so --threads cannot change it; a repeated run must
/// be bit-identical.
TEST(FleetRun, UniformCapCompletesSlowerAndBitIdenticalAcrossThreads)
{
    auto cfg = small_fleet(fleet::FleetPolicy::kUniformCap);
    const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0, cfg.system,
                                        cfg.n_nodes);
    cfg.budget_w = 0.45 * cfg.n_nodes * probe.node_tdp_w();

    const auto first = fleet::run_fleet(cfg);
    EXPECT_FALSE(first.paused);
    EXPECT_EQ(first.jobs_completed, 6);
    const auto uncapped = fleet::run_fleet(small_fleet(fleet::FleetPolicy::kUncapped));
    EXPECT_GT(first.makespan_s, uncapped.makespan_s);

    expect_identical(first, fleet::run_fleet(cfg));
}

/// The scale gate: 256 nodes / 1024 GPUs under the negotiated policy (power
/// caps, per-kernel clocks, backfill contention) must be bit-identical run
/// to run.
TEST(FleetDeterminism, Fleet256NodesBitIdenticalAcrossThreads)
{
    fleet::FleetConfig cfg;
    cfg.system = sim::cscs_a100();
    cfg.trace = trace();
    cfg.n_nodes = 256;
    cfg.policy = fleet::FleetPolicy::kNegotiated;

    fleet::JobMixConfig mix;
    mix.n_jobs = 24;
    mix.max_nodes_per_job = 48;
    mix.min_steps = 2;
    mix.max_steps = 4;
    mix.est_step_s = fleet::estimate_step_s(cfg.system, cfg.trace);
    // Short interarrivals force queueing, reservations and backfill.
    mix.mean_interarrival_s = 0.5 * mix.est_step_s;
    cfg.jobs = fleet::generate_jobs(mix);

    const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0,
                                        cfg.system, cfg.n_nodes);
    cfg.budget_w = 0.55 * cfg.n_nodes * probe.node_tdp_w();
    cfg.rank_jitter = 0.01;

    const auto first = fleet::run_fleet(cfg);
    EXPECT_EQ(first.n_gpus, 1024);
    EXPECT_EQ(first.jobs_completed, 24);
    expect_identical(first, fleet::run_fleet(cfg));
}

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_fleet_XXXXXX";
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

/// Pause a fleet mid-run at a checkpointed round boundary, resume in a
/// fresh set of nodes, and require the completed result to match an
/// uninterrupted run bit-for-bit.
TEST(FleetDeterminism, CheckpointResumeBitIdentical)
{
    TempDir dir;
    auto cfg = small_fleet(fleet::FleetPolicy::kNegotiated);
    const fleet::PowerCoordinator probe(fleet::FleetPolicy::kUncapped, 0.0,
                                        cfg.system, cfg.n_nodes);
    cfg.budget_w = 0.6 * cfg.n_nodes * probe.node_tdp_w();

    const auto reference = fleet::run_fleet(cfg);
    ASSERT_GT(reference.rounds, 3);

    auto paused_cfg = cfg;
    paused_cfg.checkpoint_every = 3;
    paused_cfg.checkpoint_dir = dir.path() + "/ck";
    paused_cfg.config_hash = "feedc0de";
    paused_cfg.stop_after_rounds = 3;
    const auto paused = fleet::run_fleet(paused_cfg);
    EXPECT_TRUE(paused.paused);
    EXPECT_EQ(paused.rounds, 3);

    const checkpoint::Snapshot snap =
        checkpoint::read_latest(dir.path() + "/ck");
    EXPECT_EQ(snap.step, 3);
    auto resume_cfg = cfg;
    resume_cfg.config_hash = "feedc0de";
    resume_cfg.resume = &snap;
    const auto resumed = fleet::run_fleet(resume_cfg);
    EXPECT_FALSE(resumed.paused);
    expect_identical(reference, resumed);
}

// ------------------------------------------------------- CLI kill -> resume

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

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

std::vector<std::string> fleet_args(const std::string& policy, const std::string& ckpt_dir,
                                    const std::string& summary,
                                    const std::string& faults)
{
    std::vector<std::string> args = {
        "fleet",        "--system",   "cscs",
        "--fleet-nodes", "8",         "--jobs",
        "6",            "--steps",    "3",
        "--nside",      "6",          "--particles-per-gpu",
        "20000000",     "--fleet-policy", policy,
        "--budget-w",   "9000",       "--checkpoint-every", "2",
        "--checkpoint-dir", ckpt_dir, "--summary-json",
        summary,        "--log-level", "off",
    };
    if (!faults.empty()) {
        args.push_back("--fault-spec");
        args.push_back(faults);
    }
    return args;
}

/// Kill a fleet run under `policy` after its round-2 commit and resume it:
/// the summary must equal the uninterrupted run's, minus provenance.  The
/// resumed process's capped clock searches start with no previous search on
/// their thread, which must not show in any result.
void expect_resume_matches_uninterrupted(const std::string& policy)
{
    TempDir dir;
    const std::string ref_summary = dir.path() + "/ref.json";
    const std::string res_summary = dir.path() + "/resumed.json";

    ASSERT_TRUE(exited_zero(
        run_cli(fleet_args(policy, dir.path() + "/ck_ref", ref_summary, ""))));

    // SIGKILL at the end of round index 3, after the round-2 commit.
    const int status = run_cli(fleet_args(policy, dir.path() + "/ck_kill", res_summary,
                                          "kill-at-step:step=3"));
    ASSERT_TRUE(WIFSIGNALED(status)) << "status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_TRUE(slurp(res_summary).empty()) << "killed run must not emit a summary";

    ASSERT_TRUE(exited_zero(run_cli({"fleet", "--resume", dir.path() + "/ck_kill",
                                     "--summary-json", res_summary, "--log-level",
                                     "off"})));

    const auto ref = summary_members(ref_summary);
    const auto resumed = summary_members(res_summary);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(resumed, ref);

    const auto doc = telemetry::Json::parse(slurp(res_summary));
    ASSERT_TRUE(doc.contains("provenance"));
    EXPECT_EQ(doc.at("provenance").at("resumed_from").as_string(),
              dir.path() + "/ck_kill");
}

TEST(FleetKillResume, ResumedSummaryMatchesUninterruptedMinusProvenance)
{
    expect_resume_matches_uninterrupted("negotiated");
}

TEST(FleetKillResume, UniformCapResumedSummaryMatchesUninterrupted)
{
    expect_resume_matches_uninterrupted("uniform");
}

} // namespace
} // namespace gsph
