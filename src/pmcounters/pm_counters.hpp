#pragma once
/// \file pm_counters.hpp
/// \brief HPE/Cray-style out-of-band node power/energy counters.
///
/// Cray systems publish node-level power and energy through read-only sysfs
/// files under /sys/cray/pm_counters/ sampled out-of-band at 10 Hz (Martin,
/// CUG 2014/2018).  This module reproduces that surface as a virtual sysfs:
///
///   energy, power                 - whole node
///   cpu_energy, cpu_power         - CPU package
///   memory_energy, memory_power   - node DRAM
///   accel[0..n]_energy/_power     - accelerator *cards*
///   freshness, generation, raw_scan_hz
///
/// On LUMI-G one MI250X card carries two GCDs, each driven by its own MPI
/// rank, but pm_counters reports per *card*: `gcds_per_accel_file = 2`
/// reproduces exactly the measurement aliasing the paper discusses in
/// §III-B and §IV-A.  Counters only update at sampling ticks, so readers
/// observe up to 1/sample_hz of staleness, as on the real system.

#include "checkpoint/state.hpp"
#include "cpusim/cpu.hpp"
#include "gpusim/device.hpp"

#include <optional>
#include <string>
#include <vector>

namespace gsph::pmcounters {

struct PmCountersConfig {
    double sample_hz = 10.0;       ///< Cray default OOB collection rate
    int gcds_per_accel_file = 1;   ///< 2 on LUMI-G (two GCDs per MI250X card)
    double aux_power_w = 100.0;    ///< NIC, fans, VRs, board: the "Other" share
    /// Modulus of the published node `energy` counter in joules; 0 = never
    /// wraps.  The real counter is a finite-width BMC register, so a
    /// long-running node rolls it over mid-job — exactly the condition
    /// Slurm-style consumers must clamp against.
    double counter_wrap_j = 0.0;
};

/// What `while (tick <= limit) tick += period;` leaves in `tick`, bit for
/// bit, in a few steps per binade of `tick` instead of one per tick.
/// Throws std::runtime_error where that loop would spin forever: when a step
/// no longer moves `tick`.
double next_tick_after(double tick, double period, double limit);

class PmCounters {
public:
    PmCounters(PmCountersConfig config, cpusim::CpuDevice* cpu,
               std::vector<gpusim::GpuDevice*> gpus);

    /// Advance the out-of-band sampler to node time `now` (seconds).  The
    /// published counter values refresh only when a 10 Hz tick boundary is
    /// crossed.
    void sample_to(double now);

    // --- sysfs-like surface ------------------------------------------------
    std::vector<std::string> list_files() const;
    /// Contents of a counter file, e.g. "182736 J" / "412 W"; nullopt for
    /// unknown names.  Matches the real pm_counters "<value> <unit>" format.
    std::optional<std::string> read_file(const std::string& name) const;

    // --- typed accessors (published, i.e. tick-quantized, values) ----------
    double node_energy_j() const { return published_.node_energy_j; }
    double cpu_energy_j() const { return published_.cpu_energy_j; }
    double memory_energy_j() const { return published_.memory_energy_j; }
    double accel_energy_j(int file_index) const;
    int accel_file_count() const;

    double node_power_w() const { return published_.node_power_w; }

    /// Energy of everything that has no counter of its own:
    /// node - cpu - memory - sum(accel); the paper's "Other".
    double other_energy_j() const;

    long freshness() const { return published_.freshness; }
    double last_sample_time() const { return published_.time; }

    const PmCountersConfig& config() const { return config_; }

    /// Checkpoint the sampler position and the published snapshot (the next
    /// tick's power is its energy delta from this one).
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    struct Snapshot {
        double time = 0.0;
        double node_energy_j = 0.0;
        double cpu_energy_j = 0.0;
        double memory_energy_j = 0.0;
        std::vector<double> accel_energy_j;
        double node_power_w = 0.0;
        double cpu_power_w = 0.0;
        double memory_power_w = 0.0;
        std::vector<double> accel_power_w;
        long freshness = 0;
    };

    /// Overwrite the published snapshot with the counters at `now`, in
    /// place; freshness is left to the caller.
    void publish(double now);

    PmCountersConfig config_;
    cpusim::CpuDevice* cpu_;
    std::vector<gpusim::GpuDevice*> gpus_;
    double next_tick_ = 0.0;
    Snapshot published_;
};

} // namespace gsph::pmcounters
