#include "gpusim/dvfs_governor.hpp"

#include <algorithm>
#include <cmath>

namespace gsph::gpusim {

DvfsGovernor::DvfsGovernor(const GpuDeviceSpec& spec)
    : spec_(&spec),
      cap_mhz_(spec.max_compute_mhz),
      current_mhz_(spec.governor.idle_target_mhz)
{
    current_mhz_ = spec_->quantize_clock(current_mhz_);
}

void DvfsGovernor::set_cap_mhz(double cap)
{
    cap_mhz_ = spec_->quantize_clock(cap);
    if (current_mhz_ > cap_mhz_) {
        current_mhz_ = cap_mhz_;
        ++transitions_;
    }
}

void DvfsGovernor::on_kernel_launch()
{
    const double boost = std::min(spec_->governor.boost_floor_mhz, cap_mhz_);
    if (current_mhz_ < boost) {
        current_mhz_ = spec_->quantize_clock(boost);
        ++transitions_;
    }
}

double DvfsGovernor::target_for(bool running, double utilization) const
{
    const GovernorSpec& g = spec_->governor;
    if (!running) return std::min(g.idle_target_mhz, cap_mhz_);
    const double u = std::clamp(utilization, 0.0, 1.0);
    const double shaped = std::pow(u, g.util_shape);
    const double floor = std::min(g.active_floor_mhz, cap_mhz_);
    return floor + shaped * (cap_mhz_ - floor);
}

void DvfsGovernor::move_toward(double target, double dt)
{
    const GovernorSpec& g = spec_->governor;
    double next = current_mhz_;
    if (target > current_mhz_) {
        next = std::min(target, current_mhz_ + g.up_rate_mhz_per_s * dt);
    }
    else if (target < current_mhz_) {
        next = std::max(target, current_mhz_ - g.down_rate_mhz_per_s * dt);
    }
    next = spec_->quantize_clock(std::min(next, cap_mhz_));
    if (next != current_mhz_) {
        current_mhz_ = next;
        ++transitions_;
    }
}

double DvfsGovernor::step(double dt, bool running, double utilization)
{
    move_toward(target_for(running, utilization), dt);
    return current_mhz_;
}

void DvfsGovernor::reset()
{
    current_mhz_ = spec_->quantize_clock(spec_->governor.idle_target_mhz);
    cap_mhz_ = spec_->max_compute_mhz;
    transitions_ = 0;
}

} // namespace gsph::gpusim
