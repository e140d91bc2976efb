#pragma once
/// \file slurm.hpp
/// \brief Slurm-style job energy accounting.
///
/// With `energy` in AccountingStorageTRES, Slurm records per-job consumed
/// energy from its energy-gathering plugin (ipmi / pm_counters / rapl) and
/// reports it through `sacct --format=ConsumedEnergy`.  Two properties
/// matter for the paper's Fig. 3 validation:
///   1. accounting starts when the job starts, *before* the application's
///      time-stepping loop — setup phases are included (PMT's in-app
///      measurement starts later, at the loop);
///   2. the reading comes from the node-level sensor (pm_counters here),
///      with its 10 Hz quantization.
/// This module reproduces exactly that: a Job snapshots node counters at
/// start and end and reports the delta, rounded to Slurm's joule
/// granularity.

#include "checkpoint/state.hpp"
#include "pmcounters/pm_counters.hpp"

#include <string>
#include <vector>

namespace gsph::slurmsim {

/// One accounting record as `sacct` would print it.
struct JobRecord {
    std::string job_id;
    std::string job_name;
    double elapsed_s = 0.0;
    double consumed_energy_j = 0.0; ///< integral joules, Slurm granularity
    int n_nodes = 0;
    bool completed = false;
};

class Job {
public:
    /// `nodes`: the pm_counters instances of every allocated node.
    Job(std::string job_id, std::string job_name,
        std::vector<const pmcounters::PmCounters*> nodes);

    /// Job launch: snapshot baselines.  `time_s` is cluster time.
    void start(double time_s);
    /// Job end: snapshot final counters.
    void finish(double time_s);

    bool started() const { return started_; }
    bool finished() const { return finished_; }

    /// Slurm's ConsumedEnergy for the whole allocation (all nodes).  Each
    /// node's counter delta is clamped at zero (a cumulative counter that
    /// went backwards wrapped or reset mid-job) and floored to integral
    /// joules *per node*, the way slurmd accumulates per-node readings.
    /// For a running job this is a live energy-so-far read.
    double consumed_energy_j() const;
    /// Wall time: end - start when finished; time-so-far (latest node
    /// sensor time - start) while running; 0 before start.
    double elapsed_s() const;

    JobRecord record() const;

    /// Checkpoint a running job: its start time and the start-of-job counter
    /// baselines, captured before the stepping loop, which a resumed process
    /// must inherit, not re-snapshot mid-run.  Only a running job is ever
    /// checkpointed (the driver finishes its job after the loop, the fleet
    /// saves running jobs only), so save_state throws std::logic_error on a
    /// job that is unstarted or finished, and restore_state leaves the job
    /// running.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    std::string job_id_;
    std::string job_name_;
    std::vector<const pmcounters::PmCounters*> nodes_;
    std::vector<double> baseline_j_;
    std::vector<double> final_j_;
    double start_time_ = 0.0;
    double end_time_ = 0.0;
    bool started_ = false;
    bool finished_ = false;
};

/// Render records the way `sacct -o JobID,JobName,Elapsed,ConsumedEnergy`
/// would; used by the Fig. 3 bench for a faithful artifact.  Elapsed uses
/// Slurm's `D-HH:MM:SS` form for jobs of a day or more.
std::string format_sacct(const std::vector<JobRecord>& records);

/// Pretty "ConsumedEnergy" with Slurm's K/M/G suffixes (e.g. "24.4M"
/// joules).  Negative input is formatted with an explicit sign and logged —
/// it cannot happen once per-node deltas are clamped, so seeing one means
/// an accounting bug upstream.
std::string format_consumed_energy(double joules);

} // namespace gsph::slurmsim
