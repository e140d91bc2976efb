#pragma once
/// \file dvfs_governor.hpp
/// \brief Utilization-driven DVFS governor with launch-boost behaviour.
///
/// Models the firmware clock governor of a datacenter GPU:
///  - every kernel *launch* instantly boosts the clock to at least
///    `boost_floor_mhz` ("each kernel launch boosts the GPU frequency since
///    the kernel does not yet have any information on how much utilization
///    is achieved" — paper §IV-E);
///  - while work is resident the target clock is
///    `active_floor + util^shape * (cap - active_floor)`;
///  - with no work the clock decays toward `idle_target_mhz`;
///  - clock changes are slew-limited (fast up, slow down) and quantized to
///    the supported clock grid;
///  - an application-clock cap (nvmlDeviceSetApplicationsClocks) bounds the
///    governor from above at all times.
///
/// The governor is driven purely by simulated time, so traces (paper
/// Fig. 9) are deterministic.

#include "gpusim/device_spec.hpp"

namespace gsph::gpusim {

class DvfsGovernor {
public:
    explicit DvfsGovernor(const GpuDeviceSpec& spec);

    /// Instantaneous boost on a kernel launch.
    void on_kernel_launch();

    /// Advance governor state by `dt` seconds.  `running` says whether a
    /// kernel is resident; `utilization` is the monitor's estimate in [0,1]
    /// (ignored when not running).  Returns the clock in effect *after* the
    /// step.
    double step(double dt, bool running, double utilization);

    /// Current governor-selected clock (before external caps are applied by
    /// the device; the governor itself also honours the cap).
    double current_mhz() const { return current_mhz_; }

    /// Application-clock cap; the governor never exceeds it.
    void set_cap_mhz(double cap);
    double cap_mhz() const { return cap_mhz_; }

    /// Distinct clock changes since construction, reset() or restore()
    /// (transition-energy accounting reads differences of it).
    long transition_count() const { return transitions_; }

    void reset();

    /// Overwrite governor state from a checkpoint (bypasses the slew/quantize
    /// logic set_cap_mhz applies — the values were in effect when saved).
    void restore(double cap_mhz, double current_mhz)
    {
        cap_mhz_ = cap_mhz;
        current_mhz_ = current_mhz;
        transitions_ = 0;
    }

private:
    double target_for(bool running, double utilization) const;
    void move_toward(double target, double dt);

    const GpuDeviceSpec* spec_;
    double cap_mhz_;
    double current_mhz_;
    long transitions_ = 0;
};

} // namespace gsph::gpusim
