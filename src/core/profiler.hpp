#pragma once
/// \file profiler.hpp
/// \brief PMT-based per-function energy profiler (the paper's §III-B).
///
/// Attaches to the driver's function hooks and reads a PMT sensor (the NVML
/// back-end, one sensor per rank's GPU) before and after every function,
/// accumulating per-function, per-rank energy and time.  Measurements are
/// gathered at the end of the execution and can be stored to a CSV file for
/// post-hoc analysis, mirroring the paper's workflow ("measured per each
/// MPI rank throughout the simulation, gathered at the end of the
/// execution, and stored into a file").
///
/// CPU energy is not probed per-function here: the host advances at
/// synchronization granularity (and on real systems RAPL attribution below
/// ~100 ms is noise); per-function CPU/other shares are apportioned by
/// duration, exactly as the paper observes them to scale.

#include "checkpoint/state.hpp"
#include "pmt/pmt.hpp"
#include "sim/driver.hpp"
#include "sph/functions.hpp"
#include "util/csv.hpp"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace gsph::core {

struct FunctionEnergy {
    double time_s = 0.0;
    double gpu_energy_j = 0.0;
    long calls = 0;
};

class EnergyProfiler {
public:
    explicit EnergyProfiler(int n_ranks);

    /// Append the probe hooks (sim::RunHooks states the order).
    void attach(sim::RunHooks& hooks);

    /// Per-function totals summed over ranks.
    const std::array<FunctionEnergy, sph::kSphFunctionCount>& totals() const
    {
        return totals_;
    }
    /// Per-rank, per-function energy (rank-major).
    const std::vector<std::array<FunctionEnergy, sph::kSphFunctionCount>>& per_rank() const
    {
        return per_rank_;
    }

    double total_gpu_energy_j() const;
    double total_time_s() const; ///< summed over functions, mean over ranks

    /// The post-hoc analysis artifact: one row per (rank, function).
    util::CsvWriter report_csv() const;

    int n_ranks() const { return n_ranks_; }

    /// Checkpoint the accumulated per-function/per-rank energy.  A probe
    /// opens and closes within one function call, so no reading is open at a
    /// step boundary; sensors are lazily re-created on resume.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    void ensure_sensor(int rank);

    int n_ranks_;
    std::vector<std::unique_ptr<pmt::Pmt>> sensors_;       ///< per rank (nvml)
    std::vector<pmt::State> open_state_;                    ///< per rank
    std::array<FunctionEnergy, sph::kSphFunctionCount> totals_{};
    std::vector<std::array<FunctionEnergy, sph::kSphFunctionCount>> per_rank_;
};

} // namespace gsph::core
