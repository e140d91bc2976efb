#pragma once
/// \file device.hpp
/// \brief The simulated GPU device.
///
/// A GpuDevice owns a simulated clock (seconds since construction), a DVFS
/// governor, an energy accumulator and an optional clock trace.  Work is
/// submitted as KernelWork batches; the device advances its clock by the
/// modelled duration and integrates energy at the modelled power.
///
/// Two clock policies mirror real operation:
///  - kLockedAppClock: application clocks are set (the paper's baseline,
///    static and ManDyn configurations).  While busy the device runs at the
///    locked clock; while idle it parks at the minimum clock.  No auto-boost
///    voltage guard band applies.
///  - kNativeDvfs: the firmware governor picks the clock each tick, with
///    launch-boost behaviour and the auto-boost guard band (the paper's
///    "DVFS" configuration, Figs. 7 and 9).

#include "checkpoint/state.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/dvfs_governor.hpp"
#include "gpusim/kernel_work.hpp"
#include "gpusim/power_model.hpp"
#include "gpusim/roofline.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace gsph::gpusim {

enum class ClockPolicy { kLockedAppClock, kNativeDvfs };

/// Outcome of executing one kernel batch.
struct KernelResult {
    KernelTiming timing;        ///< priced at the mean effective clock
    double start_s = 0.0;       ///< device time when the batch started
    double end_s = 0.0;         ///< device time when it finished
    double energy_j = 0.0;      ///< GPU energy consumed by the batch
    double mean_clock_mhz = 0.0; ///< time-weighted mean compute clock
    double mean_power_w = 0.0;  ///< energy / duration
};

class GpuDevice {
public:
    explicit GpuDevice(GpuDeviceSpec spec, int index = 0);
    /// Publishes the counts publish_counters() has not yet added.
    ~GpuDevice();
    // Non-copyable: the power model and governor point at this device's
    // spec_, and a copy would publish the same counts twice.
    GpuDevice(const GpuDevice&) = delete;
    GpuDevice& operator=(const GpuDevice&) = delete;

    // --- clock control (NVML semantics) ----------------------------------
    void set_clock_policy(ClockPolicy policy);
    ClockPolicy clock_policy() const { return policy_; }

    /// nvmlDeviceSetApplicationsClocks: locks compute clock (and switches to
    /// kLockedAppClock if the governor was active); also caps the governor.
    void set_application_clocks(double mem_mhz, double compute_mhz);
    void reset_application_clocks();
    double application_clock_mhz() const { return app_clock_mhz_; }
    double memory_clock_mhz() const { return mem_clock_mhz_; }

    /// nvmlDeviceSetPowerManagementLimit: board power cap in watts.  The
    /// firmware throttles the compute clock just enough to keep busy power
    /// under the cap (clock-agnostic idle terms cannot be throttled away).
    /// Pass <= 0 to remove the cap.
    void set_power_limit_w(double watts);
    double power_limit_w() const { return power_limit_w_; }
    /// Default power limit (the modelled TDP): idle + all dynamic terms.
    double default_power_limit_w() const;

    /// Clock currently in effect (locked clock while busy, governor clock,
    /// or park clock when idle in locked mode).
    double current_clock_mhz() const { return current_clock_mhz_; }

    // --- execution --------------------------------------------------------
    /// Execute a kernel batch; advances device time and energy.
    KernelResult execute(const KernelWork& work);

    /// Device sits idle for `seconds` (host work, MPI communication).
    void idle(double seconds);

    // --- queries (sensor surface used by NVML/pm_counters back-ends) ------
    double now() const { return now_s_; }
    double energy_j() const { return energy_.value(); }
    double power_w() const { return last_power_w_; }

    const GpuDeviceSpec& spec() const { return spec_; }
    int index() const { return index_; }
    long clock_transitions() const { return governor_.transition_count(); }

    // --- telemetry --------------------------------------------------------
    /// Add the kernel batches and compute-clock transitions counted since the
    /// last call to the registry's "gpusim.kernel_batches" and
    /// "governor.transitions" (one inc each), then zero the counts.  The
    /// device counts in plain members, so executing a rank on a pool thread
    /// touches nothing shared; sim::Node::sync_to publishes on the driving
    /// thread at every step end, the destructor publishes the rest.
    void publish_counters();

    // --- tracing (paper Fig. 9) -------------------------------------------
    void enable_tracing(bool on) { tracing_ = on; }
    const util::TimeSeries& clock_trace() const { return clock_trace_; }
    void clear_traces();

    // --- checkpointing ----------------------------------------------------
    /// Serialize / overwrite all mutable device state (clock mode, energy
    /// accumulator with its Kahan compensation, governor, clock trace).  The
    /// spec and tracing flag are construction-time configuration and not saved.
    /// restore_state drops the unpublished counts: the metrics registry's
    /// own checkpoint section already holds the totals of the restored run.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    KernelResult execute_locked(const KernelWork& work);
    KernelResult execute_governed(const KernelWork& work);
    /// Move the effective compute clock, counting distinct transitions for
    /// "governor.transitions".
    void transition_to(double mhz);
    /// Highest grid clock <= quantize_clock(`requested_mhz`) whose busy power
    /// for `work` fits under the power limit, or the minimum clock if none
    /// does (the requested clock itself when uncapped).  Found by bisection
    /// from where the calling thread's previous capped search ended, which
    /// relies on busy power never falling as the clock rises: any start
    /// point gives the same answer.
    double throttle_for_power(const KernelWork& work, double requested_mhz,
                              bool governor_managed) const;
    void record(double time, double clock_mhz);
    void account(double dt, double power_w);

    /// The clock trace's checkpoint text (save_state).  The trace only grows,
    /// so a save encodes only the samples appended since the previous one.
    struct SeriesText {
        checkpoint::EncodeCache times, values;
    };
    static void save_series(checkpoint::StateWriter& writer, const std::string& key,
                            const util::TimeSeries& series, SeriesText& text);

    GpuDeviceSpec spec_;
    int index_;
    PowerModel power_model_;
    DvfsGovernor governor_;

    ClockPolicy policy_ = ClockPolicy::kLockedAppClock;
    double app_clock_mhz_;
    double mem_clock_mhz_;
    double current_clock_mhz_;
    double power_limit_w_ = 0.0; ///< <= 0: uncapped

    double now_s_ = 0.0;
    util::KahanSum energy_;
    double last_power_w_ = 0.0;
    long unpublished_batches_ = 0;     ///< for "gpusim.kernel_batches"
    long unpublished_transitions_ = 0; ///< for "governor.transitions"

    bool tracing_ = false;
    util::TimeSeries clock_trace_{"clock_mhz"};
    mutable SeriesText clock_text_;
};

} // namespace gsph::gpusim
