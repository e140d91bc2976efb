#pragma once
/// \file fleet.hpp
/// \brief Fleet-scale cluster simulation: many nodes, many jobs, one power
/// budget.
///
/// A fleet run instantiates `n_nodes` simulated nodes (sim::Node: CPU +
/// GPUs + pm_counters), feeds a queue of jobs with arrival times and
/// deadlines through the FCFS + conservative-backfill scheduler
/// (scheduler.hpp), and lets the PowerCoordinator (coordinator.hpp)
/// re-apportion the cluster-wide power budget across nodes every round.
/// Each job's energy is accounted by a slurmsim::Job over its allocated
/// nodes' counters — the fleet is what makes that accounting (and its wrap
/// clamp) operationally meaningful.
///
/// Execution is round-based, on the calling thread: admission + scheduling +
/// cap apportionment, then one workload step per running job over its
/// (job, node) work items in order, then a merge (intra-job barrier,
/// sampler catch-up, demand measurement, completions).  The round loop has
/// no thread pool: on a 4-core host a 4-thread step phase took 0.99-1.10x
/// the one-thread time, so --threads does not affect a fleet run.
///
/// Nodes run on independent monotone timelines; a job's start time is
/// max(arrival, latest free_at among its nodes) and all of its nodes are
/// synced to one job-local clock at every step barrier.

#include "checkpoint/checkpoint.hpp"
#include "core/frequency_table.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/observer.hpp"
#include "fleet/scheduler.hpp"
#include "sim/system.hpp"
#include "sim/workload.hpp"
#include "slurmsim/slurm.hpp"
#include "telemetry/tracer.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gsph::fleet {

/// Deterministic synthetic job mix (seeded; no global RNG involved).
struct JobMixConfig {
    int n_jobs = 20;
    int max_nodes_per_job = 4;
    int min_steps = 4;
    int max_steps = 12;
    double mean_interarrival_s = 30.0;
    /// Per-step walltime guess feeding est_runtime_s (may be wrong, as real
    /// user estimates are; the backfill scheduler only treats it as a hint).
    double est_step_s = 20.0;
    double est_margin = 1.3; ///< est_runtime = steps*est_step*margin + overhead
    /// Fixed walltime per job outside the step loop (launch + teardown);
    /// must cover FleetConfig::setup_s + teardown_s or every estimate (and
    /// thus every deadline) is systematically short.
    double overhead_s = 3.0;
    double deadline_slack = 2.0; ///< deadline = arrival + est_runtime * slack
    double work_scale_min = 0.6;
    double work_scale_max = 1.4;
    std::uint64_t seed = 42;
};

std::vector<JobSpec> generate_jobs(const JobMixConfig& mix);

/// Mean per-step GPU busy time replaying `trace` at the system's default
/// application clocks (probed on a throwaway device).  The CLI and bench
/// derive job walltime estimates from this so the synthetic mix's deadlines
/// are achievable on uncapped hardware.
double estimate_step_s(const sim::SystemSpec& system,
                       const sim::WorkloadTrace& trace);

struct FleetConfig {
    sim::SystemSpec system;
    sim::WorkloadTrace trace; ///< shared per-job workload (weak-scaled)
    int n_nodes = 16;
    std::vector<JobSpec> jobs; ///< ascending arrival_s

    FleetPolicy policy = FleetPolicy::kUncapped;
    double budget_w = 0.0;           ///< cluster-wide; required when capped
    double coordinator_headroom = 1.10;
    /// Per-kernel clock table for negotiated mode; nullopt = the reference
    /// A100 turbulence table.
    std::optional<core::FrequencyTable> mandyn_table;

    /// No effect: the round loop runs on the calling thread.  Kept until
    /// the callers that still assign it stop doing so.
    int n_threads = 1;
    double setup_s = 2.0;    ///< per-job launch phase (Slurm accounts it)
    double teardown_s = 1.0;
    double rank_jitter = 0.0;

    // --- checkpoint/restart (round granularity) --------------------------
    int checkpoint_every = 0; ///< rounds; 0 = off
    std::string checkpoint_dir;
    std::string config_hash = "0";
    const checkpoint::Snapshot* resume = nullptr;
    /// Tests: pause after this many rounds (result.paused = true); 0 = run
    /// to completion.
    int stop_after_rounds = 0;
    /// Extra save/restore participants (CLI options, fault injector,
    /// metrics), snapshotted with every checkpoint; not owned.
    checkpoint::StateRegistry* checkpoint_participants = nullptr;

    // --- observability (read-only taps; neither perturbs the result) -----
    /// Receives one FleetSample per round for /fleet.json and the fleet.*
    /// roll-up series; not owned, may be null.
    FleetMonitor* monitor = nullptr;
    /// Scheduler spans at simulated time: per-round "fleet.round" spans with
    /// admit/schedule/apportion markers on the scheduler track plus one
    /// lifetime span per job (placement -> teardown), all stamped with the
    /// fleet's deterministic trace id (derived from config_hash).  Not
    /// owned, may be null; spans are NOT checkpointed — a resumed run's
    /// trace starts at the resume round.
    telemetry::SpanTracer* tracer = nullptr;
};

/// Per-job outcome: the sacct record plus fleet-level context.
struct FleetJobOutcome {
    slurmsim::JobRecord record;
    double arrival_s = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    double deadline_s = 0.0;
    bool missed_deadline = false;
    double gpu_energy_j = 0.0; ///< GPU-only share over the job window
};

struct FleetResult {
    int n_nodes = 0;
    int n_gpus = 0;
    int rounds = 0;
    bool paused = false; ///< stopped by stop_after_rounds before completion
    int checkpoints_written = 0;

    double makespan_s = 0.0;     ///< last node-local clock after final sync
    double node_energy_j = 0.0;  ///< all nodes, whole run (incl. idle)
    double gpu_energy_j = 0.0;
    int jobs_completed = 0;
    int deadline_misses = 0;
    double total_wait_s = 0.0;   ///< sum of (start - arrival)

    std::vector<FleetJobOutcome> jobs; ///< completion order

    double node_edp() const { return node_energy_j * makespan_s; }
    double gpu_edp() const { return gpu_energy_j * makespan_s; }
    double deadline_miss_rate() const
    {
        return jobs_completed > 0
                   ? static_cast<double>(deadline_misses) / jobs_completed
                   : 0.0;
    }
};

FleetResult run_fleet(const FleetConfig& config);

/// sacct-style table over all completed jobs (completion order).
std::string format_fleet_sacct(const FleetResult& result);

} // namespace gsph::fleet
