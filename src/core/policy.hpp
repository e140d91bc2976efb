#pragma once
/// \file policy.hpp
/// \brief GPU clock policies compared by the paper (Fig. 7):
///
///   - Baseline : application clocks locked at the system default (1410 MHz
///                on A100, 1700 MHz on MI250X — Table I).
///   - Static   : application clocks locked at one lower frequency for the
///                whole run (§IV-C).
///   - NativeDvfs : no application clocks; the firmware governor manages
///                the clock (the "DVFS" series).
///   - ManDyn   : per-function application clocks set through code
///                instrumentation (§III-D, the paper's contribution).

#include "core/controller.hpp"
#include "core/frequency_table.hpp"
#include "sim/driver.hpp"

#include <memory>
#include <string>

namespace gsph::core {

class FrequencyPolicy {
public:
    virtual ~FrequencyPolicy() = default;
    virtual std::string name() const = 0;
    /// Adjust the run configuration (clock policy / static clock).
    virtual void configure(sim::RunConfig& config) const = 0;
    /// Prepend per-function hooks (ManDyn's controller); default: none.
    virtual void attach(sim::RunHooks& hooks, int n_ranks);

    /// Checkpoint policy-internal state (controller clock cache, learner
    /// progress, power-cap latches).  Stateless policies save nothing (the
    /// default).  restore_state runs after attach(), before the first step.
    virtual void save_state(checkpoint::StateWriter& writer) const;
    virtual void restore_state(const checkpoint::StateReader& reader);
};

std::unique_ptr<FrequencyPolicy> make_baseline_policy();
std::unique_ptr<FrequencyPolicy> make_static_policy(double mhz);
std::unique_ptr<FrequencyPolicy> make_native_dvfs_policy();
/// `vendor` selects the clock-control backend (NVML for NVIDIA — the
/// paper's path — rocm_smi for AMD, per the paper's future work).
std::unique_ptr<FrequencyPolicy> make_mandyn_policy(
    FrequencyTable table, gpusim::Vendor vendor = gpusim::Vendor::kNvidia);

/// Same, with decision provenance (candidate set, sweep-predicted EDPs —
/// see tuning::audit_info_from_sweep) attached to the controller so each
/// audited clock change carries its prediction.
std::unique_ptr<FrequencyPolicy> make_mandyn_policy(
    FrequencyTable table, ControllerAuditInfo audit,
    gpusim::Vendor vendor = gpusim::Vendor::kNvidia);

/// Extension: board power cap (nvmlDeviceSetPowerManagementLimit), the
/// other datacenter energy knob.  Clocks stay at the default; the firmware
/// throttles only the kernels that would exceed `watts` — the complementary
/// strategy to ManDyn (which slows the *light* kernels instead).
std::unique_ptr<FrequencyPolicy> make_power_cap_policy(double watts);

/// Run `trace` on `system` under `policy`, whose hooks join the observers
/// already attached to `base_hooks` (a span tracer, a profiler, ...).
sim::RunResult run_with_policy(const sim::SystemSpec& system,
                               const sim::WorkloadTrace& trace, sim::RunConfig config,
                               FrequencyPolicy& policy, sim::RunHooks base_hooks = {});

} // namespace gsph::core
