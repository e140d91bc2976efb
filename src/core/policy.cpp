#include "core/policy.hpp"

#include "nvmlsim/nvml.hpp"
#include "telemetry/audit.hpp"
#include "util/strings.hpp"

#include <stdexcept>
#include <utility>

namespace gsph::core {

void FrequencyPolicy::attach(sim::RunHooks&, int) {}

void FrequencyPolicy::save_state(checkpoint::StateWriter&) const {}

void FrequencyPolicy::restore_state(const checkpoint::StateReader&) {}

namespace {

class BaselinePolicy final : public FrequencyPolicy {
public:
    std::string name() const override { return "Baseline"; }
    void configure(sim::RunConfig& config) const override
    {
        config.clock_policy = gpusim::ClockPolicy::kLockedAppClock;
        config.app_clock_mhz = -1.0; // system default (Table I)
    }
};

class StaticPolicy final : public FrequencyPolicy {
public:
    explicit StaticPolicy(double mhz) : mhz_(mhz)
    {
        if (mhz <= 0.0) throw std::invalid_argument("StaticPolicy: bad clock");
    }
    std::string name() const override
    {
        return "Static-" + util::format_fixed(mhz_, 0);
    }
    void configure(sim::RunConfig& config) const override
    {
        config.clock_policy = gpusim::ClockPolicy::kLockedAppClock;
        config.app_clock_mhz = mhz_;
    }

private:
    double mhz_;
};

class NativeDvfsPolicy final : public FrequencyPolicy {
public:
    std::string name() const override { return "DVFS"; }
    void configure(sim::RunConfig& config) const override
    {
        config.clock_policy = gpusim::ClockPolicy::kNativeDvfs;
        config.app_clock_mhz = -1.0;
    }
};

class ManDynPolicy final : public FrequencyPolicy {
public:
    ManDynPolicy(FrequencyTable table, gpusim::Vendor vendor,
                 ControllerAuditInfo audit = {})
        : table_(table), vendor_(vendor), audit_(std::move(audit))
    {
        audit_.policy = "ManDyn";
    }

    std::string name() const override { return "ManDyn"; }

    void configure(sim::RunConfig& config) const override
    {
        // ManDyn runs with locked application clocks that the controller
        // re-targets before every function; start at the table's maximum.
        config.clock_policy = gpusim::ClockPolicy::kLockedAppClock;
        config.app_clock_mhz = table_.max_clock();
    }

    void attach(sim::RunHooks& hooks, int n_ranks) override
    {
        controller_ = std::make_unique<FrequencyController>(
            table_, n_ranks, make_clock_backend(vendor_, n_ranks));
        controller_->set_audit_info(audit_);
        auto* ctl = controller_.get();
        hooks.prepend({.before_function = [ctl](int rank, gpusim::GpuDevice&,
                                                sph::SphFunction fn) {
            ctl->apply(rank, fn);
        }});
    }

    const FrequencyController* controller() const { return controller_.get(); }

    void save_state(checkpoint::StateWriter& writer) const override
    {
        if (controller_) controller_->save_state(writer);
    }

    void restore_state(const checkpoint::StateReader& reader) override
    {
        if (!controller_) {
            throw checkpoint::CheckpointError(
                "ManDyn: restore_state before attach()");
        }
        controller_->restore_state(reader);
    }

private:
    FrequencyTable table_;
    gpusim::Vendor vendor_;
    ControllerAuditInfo audit_;
    std::unique_ptr<FrequencyController> controller_;
};

class PowerCapPolicy final : public FrequencyPolicy {
public:
    explicit PowerCapPolicy(double watts) : watts_(watts)
    {
        if (watts <= 0.0) throw std::invalid_argument("PowerCapPolicy: bad limit");
    }

    ~PowerCapPolicy() override
    {
        for (int i = 0; i < nvml_inits_; ++i) nvmlsim::nvmlShutdown();
    }

    std::string name() const override
    {
        return "PowerCap-" + util::format_fixed(watts_, 0) + "W";
    }

    void configure(sim::RunConfig& config) const override
    {
        config.clock_policy = gpusim::ClockPolicy::kLockedAppClock;
        config.app_clock_mhz = -1.0; // default clocks; the cap throttles
    }

    void attach(sim::RunHooks& hooks, int n_ranks) override
    {
        nvmlsim::nvmlInit();
        ++nvml_inits_;
        applied_.assign(static_cast<std::size_t>(n_ranks), false);
        hooks.prepend({.before_function = [this](int rank, gpusim::GpuDevice&,
                                                 sph::SphFunction) {
            if (applied_[static_cast<std::size_t>(rank)]) return;
            applied_[static_cast<std::size_t>(rank)] = true;
            nvmlsim::nvmlDevice_t handle = nullptr;
            if (nvmlsim::getNvmlDevice(static_cast<unsigned int>(rank), &handle) !=
                nvmlsim::NVML_SUCCESS) {
                return;
            }
            nvmlsim::nvmlDeviceSetPowerManagementLimit(
                handle, static_cast<unsigned int>(watts_ * 1000.0));
            if (telemetry::decision_audited()) {
                telemetry::DecisionRecord rec;
                rec.policy = "PowerCap";
                rec.rank = rank;
                rec.function = -1; // run-wide: caps every function
                rec.chosen_mhz = 0.0; // firmware governs the clock
                rec.inputs.emplace_back("power_cap_w", watts_);
                telemetry::audit_decision(std::move(rec));
            }
        }});
    }

    void save_state(checkpoint::StateWriter& writer) const override
    {
        std::vector<std::uint64_t> flags(applied_.size());
        for (std::size_t i = 0; i < applied_.size(); ++i) {
            flags[i] = applied_[i] ? 1 : 0;
        }
        writer.put_u64_vec("powercap.applied", flags);
    }

    void restore_state(const checkpoint::StateReader& reader) override
    {
        const auto flags = reader.get_u64_vec("powercap.applied");
        if (flags.size() != applied_.size()) {
            throw checkpoint::CheckpointError(
                "PowerCap: applied rank count mismatch (checkpoint " +
                std::to_string(flags.size()) + ", run " +
                std::to_string(applied_.size()) + ")");
        }
        for (std::size_t i = 0; i < flags.size(); ++i) {
            applied_[i] = flags[i] != 0;
        }
    }

private:
    double watts_;
    std::vector<bool> applied_;
    int nvml_inits_ = 0;
};

} // namespace

std::unique_ptr<FrequencyPolicy> make_baseline_policy()
{
    return std::make_unique<BaselinePolicy>();
}

std::unique_ptr<FrequencyPolicy> make_static_policy(double mhz)
{
    return std::make_unique<StaticPolicy>(mhz);
}

std::unique_ptr<FrequencyPolicy> make_native_dvfs_policy()
{
    return std::make_unique<NativeDvfsPolicy>();
}

std::unique_ptr<FrequencyPolicy> make_mandyn_policy(FrequencyTable table,
                                                    gpusim::Vendor vendor)
{
    return std::make_unique<ManDynPolicy>(table, vendor);
}

std::unique_ptr<FrequencyPolicy> make_mandyn_policy(FrequencyTable table,
                                                    ControllerAuditInfo audit,
                                                    gpusim::Vendor vendor)
{
    return std::make_unique<ManDynPolicy>(table, vendor, std::move(audit));
}

std::unique_ptr<FrequencyPolicy> make_power_cap_policy(double watts)
{
    return std::make_unique<PowerCapPolicy>(watts);
}

sim::RunResult run_with_policy(const sim::SystemSpec& system,
                               const sim::WorkloadTrace& trace, sim::RunConfig config,
                               FrequencyPolicy& policy, sim::RunHooks base_hooks)
{
    policy.configure(config);
    policy.attach(base_hooks, config.n_ranks);
    return sim::run_instrumented(system, trace, config, base_hooks);
}

} // namespace gsph::core
