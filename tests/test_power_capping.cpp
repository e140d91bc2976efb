/// Tests for the power-capping extension: device throttling, the NVML power
/// management limit surface, and the policy-level behaviour.

#include "core/policy.hpp"
#include "gpusim/device.hpp"
#include "gpusim_random.hpp"
#include "nvmlsim/nvml.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

namespace gsph {
namespace {

gpusim::KernelWork hot_kernel()
{
    gpusim::KernelWork w;
    w.flops = 2e11;
    w.dram_bytes = 2e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.7;
    w.threads = 90'000'000;
    return w;
}

TEST(PowerCapDevice, ThrottlesClockToHonourLimit)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(175.0);
    const auto r = dev.execute(hot_kernel());
    EXPECT_LT(r.mean_clock_mhz, 1410.0);
    EXPECT_LE(r.mean_power_w, 175.0 + 1.0);
}

TEST(PowerCapDevice, UncappedRunsAtAppClock)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    const auto r = dev.execute(hot_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, GenerousLimitDoesNotThrottle)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(dev.default_power_limit_w());
    const auto r = dev.execute(hot_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, ColdKernelUnaffectedByModerateCap)
{
    // Memory-bound kernels draw less power: a cap that throttles the hot
    // kernel leaves them at full clock (the complementary-to-ManDyn shape).
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(190.0);
    gpusim::KernelWork cold = hot_kernel();
    cold.flops = 2e9;
    cold.dram_bytes = 6e10;
    const auto r = dev.execute(cold);
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1410.0);
    const auto hot = dev.execute(hot_kernel());
    EXPECT_LT(hot.mean_clock_mhz, 1410.0);
}

TEST(PowerCapDevice, TightCapThrottlesDeep)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_power_limit_w(dev.spec().idle_w + 21.0); // barely above idle
    const auto r = dev.execute(hot_kernel());
    EXPECT_LT(r.mean_clock_mhz, 400.0); // deep-throttled
    EXPECT_LE(r.mean_power_w, dev.spec().idle_w + 22.0);
}

TEST(PowerCapDevice, WorksUnderGovernorToo)
{
    gpusim::GpuDevice dev(gpusim::a100_pcie_40g());
    dev.set_clock_policy(gpusim::ClockPolicy::kNativeDvfs);
    dev.set_power_limit_w(175.0);
    const auto r = dev.execute(hot_kernel());
    EXPECT_LE(r.mean_power_w, 175.0 * 1.02);
}

TEST(PowerCapDevice, SearchPicksTheWalksClock)
{
    std::vector<gpusim::GpuDeviceSpec> specs = gpusim::test::catalog_specs();
    gpusim::GpuDeviceSpec off_grid = gpusim::a100_sxm4_80g();
    off_grid.name = "off-grid";
    off_grid.min_compute_mhz = 200.0; // 1210 MHz range: 80.67 steps of 15
    specs.push_back(off_grid);
    constexpr std::array<double, 4> kMemScales = {0.5, 0.8, 1.0, 1.25};

    util::Rng rng(0x7417);
    for (const gpusim::GpuDeviceSpec& spec : specs) {
        gpusim::GpuDevice dev(spec);
        const double tdp = dev.default_power_limit_w();
        int fits_requested = 0, bisected = 0, at_minimum = 0;
        // A search starts where the previous one on the thread ended: count
        // the cases whose answer is that clock, above it and below it.
        int same = 0, above = 0, below = 0;
        double previous = 0.0;
        for (int i = 0; i < 4000; ++i) {
            const gpusim::KernelWork work = gpusim::test::random_kernel(rng);
            // From below the busy power at the minimum clock to above TDP,
            // and requests below the minimum, above the maximum and between
            // grid clocks.
            const double limit_w = rng.uniform(0.8 * spec.idle_w, 1.1 * tdp);
            const double requested =
                rng.uniform(spec.min_compute_mhz - 100.0, spec.max_compute_mhz + 100.0);
            const double mem_scale = kMemScales[rng.uniform_index(kMemScales.size())];
            dev.set_power_limit_w(limit_w);
            dev.set_application_clocks(mem_scale * spec.memory_clock_mhz, requested);
            const double app = dev.application_clock_mhz();

            // A run of jittered copies under one limit, as one function runs
            // on the GPUs of a node: the search starts at the answer or a
            // step or two from it, after the first copy started far away.
            const int copies = 2 + static_cast<int>(rng.uniform_index(4));
            for (int c = 0; c < copies; ++c) {
                const gpusim::KernelWork copy =
                    gpusim::scaled(work, rng.uniform(0.98, 1.02));
                const double expected = gpusim::test::walk_reference(
                    spec, copy, app, dev.memory_clock_mhz() / spec.memory_clock_mhz,
                    limit_w);
                ASSERT_EQ(dev.execute(copy).mean_clock_mhz, expected)
                    << spec.name << " case " << i << "." << c << ": requested " << requested
                    << " MHz, limit " << limit_w << " W, memory scale " << mem_scale
                    << ", flops " << copy.flops << ", bytes " << copy.dram_bytes
                    << ", launches " << copy.launches << ", previous answer " << previous
                    << " MHz";
                if (expected == app) ++fits_requested;
                else if (expected == spec.min_compute_mhz) ++at_minimum;
                else ++bisected;
                if (expected == previous) ++same;
                else if (expected > previous) ++above;
                else ++below;
                previous = expected;
            }
        }
        // Every branch of the search is taken many times.
        EXPECT_GT(fits_requested, 400) << spec.name;
        EXPECT_GT(bisected, 400) << spec.name;
        EXPECT_GT(at_minimum, 400) << spec.name;
        EXPECT_GT(same, 400) << spec.name;
        EXPECT_GT(above, 400) << spec.name;
        EXPECT_GT(below, 400) << spec.name;
    }
}

void expect_same_result(const gpusim::KernelResult& a, const gpusim::KernelResult& b)
{
    EXPECT_EQ(a.timing.total_s, b.timing.total_s);
    EXPECT_EQ(a.timing.busy_s, b.timing.busy_s);
    EXPECT_EQ(a.timing.compute_s, b.timing.compute_s);
    EXPECT_EQ(a.timing.memory_s, b.timing.memory_s);
    EXPECT_EQ(a.timing.overhead_s, b.timing.overhead_s);
    EXPECT_EQ(a.timing.compute_activity, b.timing.compute_activity);
    EXPECT_EQ(a.timing.memory_activity, b.timing.memory_activity);
    EXPECT_EQ(a.timing.utilization, b.timing.utilization);
    EXPECT_EQ(a.start_s, b.start_s);
    EXPECT_EQ(a.end_s, b.end_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.mean_clock_mhz, b.mean_clock_mhz);
    EXPECT_EQ(a.mean_power_w, b.mean_power_w);
}

TEST(PowerCapDevice, ResultDoesNotDependOnEarlierSearches)
{
    // One capped kernel on fresh devices, after capped searches on the same
    // thread that ended at the minimum clock, at this kernel's first answer
    // and a step either side of it, mid-grid and at its requested clock, and
    // on a thread that never searched.
    const gpusim::KernelWork work = hot_kernel();
    for (const gpusim::GpuDeviceSpec& spec : gpusim::test::catalog_specs()) {
        for (const auto policy :
             {gpusim::ClockPolicy::kLockedAppClock, gpusim::ClockPolicy::kNativeDvfs}) {
            const bool governed = policy == gpusim::ClockPolicy::kNativeDvfs;
            // The first search's requested clock: the locked default clock,
            // or the governor's launch boost.
            double requested = spec.default_app_clock_mhz;
            if (governed) {
                gpusim::DvfsGovernor governor(spec);
                governor.on_kernel_launch();
                requested = governor.current_mhz();
            }
            const int top = spec.clock_index(requested);
            const double quarter = spec.clock_at(top / 4);
            const gpusim::KernelTiming at_quarter = gpusim::price_kernel(spec, work, quarter);
            const double limit_w =
                gpusim::PowerModel(spec).busy_power(at_quarter, quarter, governed).total_w;
            const int answer = spec.clock_index(gpusim::test::walk_reference(
                spec, work, requested, 1.0, limit_w, governed));
            ASSERT_GE(answer, 2) << spec.name;
            ASSERT_LE(answer, top / 2 - 2) << spec.name;

            struct Outcome {
                gpusim::KernelResult result;
                double energy_j = 0.0;
                double now = 0.0;
            };
            const auto run = [&] {
                gpusim::GpuDevice dev(spec);
                dev.set_clock_policy(policy);
                dev.set_power_limit_w(limit_w);
                Outcome o;
                o.result = dev.execute(work);
                o.energy_j = dev.energy_j();
                o.now = dev.now();
                return o;
            };
            Outcome reference;
            std::thread([&] { reference = run(); }).join();

            for (const int primed : {0, answer - 1, answer, answer + 1, top / 2, top}) {
                // A search whose answer is `primed`: the requested clock
                // fits under a limit far above any busy power.
                gpusim::GpuDevice primer(spec);
                primer.set_power_limit_w(1e9);
                primer.set_application_clocks(spec.memory_clock_mhz, spec.clock_at(primed));
                ASSERT_EQ(primer.execute(work).mean_clock_mhz, spec.clock_at(primed));

                SCOPED_TRACE(spec.name + (governed ? " governed" : " locked") +
                             ", primed at index " + std::to_string(primed) + " of " +
                             std::to_string(top) + ", answer " + std::to_string(answer));
                const Outcome o = run();
                expect_same_result(o.result, reference.result);
                EXPECT_EQ(o.energy_j, reference.energy_j);
                EXPECT_EQ(o.now, reference.now);
            }
        }
    }
}

class PowerLimitNvml : public ::testing::Test {
protected:
    PowerLimitNvml() : dev_(gpusim::a100_pcie_40g()), binding_({&dev_}, true)
    {
        nvmlsim::nvmlInit();
        nvmlsim::nvmlDeviceGetHandleByIndex(0, &handle_);
    }
    ~PowerLimitNvml() override { nvmlsim::nvmlShutdown(); }

    gpusim::GpuDevice dev_;
    nvmlsim::ScopedNvmlBinding binding_;
    nvmlsim::nvmlDevice_t handle_ = nullptr;
};

TEST_F(PowerLimitNvml, DefaultLimitIsTdp)
{
    unsigned int mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimit(handle_, &mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_NEAR(static_cast<double>(mw) / 1000.0, dev_.default_power_limit_w(), 0.5);
}

TEST_F(PowerLimitNvml, SetAndGetRoundTrip)
{
    ASSERT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, 200000),
              nvmlsim::NVML_SUCCESS);
    unsigned int mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimit(handle_, &mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_EQ(mw, 200000u);
    EXPECT_DOUBLE_EQ(dev_.power_limit_w(), 200.0);
}

TEST_F(PowerLimitNvml, ConstraintsEnforced)
{
    unsigned int min_mw = 0, max_mw = 0;
    ASSERT_EQ(nvmlsim::nvmlDeviceGetPowerManagementLimitConstraints(handle_, &min_mw,
                                                                    &max_mw),
              nvmlsim::NVML_SUCCESS);
    EXPECT_LT(min_mw, max_mw);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, min_mw - 1000),
              nvmlsim::NVML_ERROR_INVALID_ARGUMENT);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, max_mw + 1000),
              nvmlsim::NVML_ERROR_INVALID_ARGUMENT);
}

TEST_F(PowerLimitNvml, PermissionGate)
{
    nvmlsim::set_user_clock_permission(false);
    EXPECT_EQ(nvmlsim::nvmlDeviceSetPowerManagementLimit(handle_, 200000),
              nvmlsim::NVML_ERROR_NO_PERMISSION);
    nvmlsim::set_user_clock_permission(true);
}

TEST(PowerCapPolicy, CapsEnergyAtTimeCost)
{
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
    spec.particles_per_gpu = 91.125e6;
    spec.n_steps = 3;
    spec.real_nside = 8;
    const auto trace = sim::record_trace(spec);
    sim::RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.setup_s = 3.0;
    cfg.rank_jitter = 0.0;

    auto baseline = core::make_baseline_policy();
    const auto rb = core::run_with_policy(sim::mini_hpc(), trace, cfg, *baseline);
    auto capped = core::make_power_cap_policy(180.0);
    const auto rc = core::run_with_policy(sim::mini_hpc(), trace, cfg, *capped);

    EXPECT_LT(rc.gpu_energy_j, rb.gpu_energy_j);
    EXPECT_GT(rc.makespan_s(), rb.makespan_s());
    // The cap throttles the compute-heavy functions, not the light ones.
    EXPECT_LT(rc.fn(sph::SphFunction::kMomentumEnergy).mean_clock_mhz(), 1400.0);
    EXPECT_GT(rc.fn(sph::SphFunction::kXMass).mean_clock_mhz(), 1400.0);
}

TEST(PowerCapPolicy, NameAndValidation)
{
    EXPECT_EQ(core::make_power_cap_policy(225.0)->name(), "PowerCap-225W");
    EXPECT_THROW(core::make_power_cap_policy(0.0), std::invalid_argument);
}

} // namespace
} // namespace gsph
