#include "gpusim/device.hpp"

#include "gpusim_random.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <algorithm>
#include <string>
#include <type_traits>

namespace gsph::gpusim {
namespace {

// The power model and governor point at the device's own spec, so a copy
// would dangle once its source is gone (and publish its counts twice).
static_assert(!std::is_copy_constructible_v<GpuDevice>);
static_assert(!std::is_copy_assignable_v<GpuDevice>);

KernelWork big_kernel()
{
    KernelWork w;
    w.flops = 5e11;
    w.dram_bytes = 8e10;
    w.flop_efficiency = 0.6;
    w.gather_fraction = 0.5;
    w.threads = 90'000'000;
    return w;
}

TEST(Device, ExecuteAdvancesTimeAndEnergy)
{
    GpuDevice dev(a100_sxm4_80g());
    const auto r = dev.execute(big_kernel());
    EXPECT_GT(r.end_s, r.start_s);
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_DOUBLE_EQ(dev.now(), r.end_s);
    EXPECT_NEAR(dev.energy_j(), r.energy_j, 1e-9);
}

TEST(Device, LockedModeRunsAtAppClock)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1110.0);
    const auto r = dev.execute(big_kernel());
    EXPECT_DOUBLE_EQ(r.mean_clock_mhz, 1110.0);
}

TEST(Device, LowerClockSlowerButCheaper)
{
    GpuDevice hi(a100_sxm4_80g()), lo(a100_sxm4_80g());
    lo.set_application_clocks(1593.0, 1005.0);
    const auto rh = hi.execute(big_kernel());
    const auto rl = lo.execute(big_kernel());
    EXPECT_GT(rl.timing.total_s, rh.timing.total_s);
    EXPECT_LT(rl.mean_power_w, rh.mean_power_w);
}

TEST(Device, SetApplicationClocksQuantizes)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1007.0);
    EXPECT_DOUBLE_EQ(dev.application_clock_mhz(), 1005.0);
}

TEST(Device, ResetApplicationClocksRestoresDefault)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_application_clocks(1593.0, 1005.0);
    dev.reset_application_clocks();
    EXPECT_DOUBLE_EQ(dev.application_clock_mhz(), 1410.0);
}

TEST(Device, InvalidClockThrows)
{
    GpuDevice dev(a100_sxm4_80g());
    EXPECT_THROW(dev.set_application_clocks(1593.0, 0.0), std::invalid_argument);
    EXPECT_THROW(dev.set_application_clocks(1593.0, std::nan("")), std::invalid_argument);
}

TEST(Device, RejectsUnboundedClockGrid)
{
    GpuDeviceSpec spec = a100_sxm4_80g();
    spec.clock_step_mhz = 1e-13; // f - step == f
    EXPECT_THROW(GpuDevice{spec}, std::invalid_argument);
}

TEST(Device, IdleAccumulatesIdleEnergy)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.idle(10.0);
    EXPECT_DOUBLE_EQ(dev.now(), 10.0);
    const double p = dev.energy_j() / 10.0;
    EXPECT_GT(p, 10.0);
    EXPECT_LT(p, 100.0); // near idle power, far from TDP
}

TEST(Device, GovernedModeBoostsAndRuns)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    const auto r = dev.execute(big_kernel());
    // high-utilization kernel: governor should push near max clock
    EXPECT_GT(r.mean_clock_mhz, 1200.0);
    EXPECT_GT(r.energy_j, 0.0);
}

TEST(Device, GovernedTimeSimilarLockedEnergyLower)
{
    // The Fig. 7 DVFS result in miniature: native DVFS matches the locked
    // baseline's time on compute-heavy work but costs more energy.
    GpuDevice locked(a100_sxm4_80g()), governed(a100_sxm4_80g());
    governed.set_clock_policy(ClockPolicy::kNativeDvfs);
    KernelWork w = big_kernel();
    double locked_t = 0.0, governed_t = 0.0;
    for (int i = 0; i < 5; ++i) {
        locked_t += locked.execute(w).timing.total_s;
        governed_t += governed.execute(w).timing.total_s;
    }
    EXPECT_NEAR(governed_t / locked_t, 1.0, 0.05);
    EXPECT_GT(governed.energy_j(), locked.energy_j());
}

TEST(Device, GovernedRespectsCap)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.set_application_clocks(1593.0, 1005.0);
    const auto r = dev.execute(big_kernel());
    EXPECT_LE(r.mean_clock_mhz, 1005.0 + 1e-9);
}

TEST(Device, TracingRecordsClockSamples)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.enable_tracing(true);
    dev.execute(big_kernel());
    dev.idle(0.2);
    EXPECT_FALSE(dev.clock_trace().empty());
    EXPECT_GT(dev.clock_trace().size(), 5u);
    dev.clear_traces();
    EXPECT_TRUE(dev.clock_trace().empty());
}

/// The governed execute and idle tick loops as they were before a batch
/// priced each clock once, kept as the reference: every tick throttles
/// (by the reference walk), prices and powers its clock afresh.
class GovernedReference {
public:
    explicit GovernedReference(const GpuDeviceSpec& spec)
        : spec_(spec), power_model_(spec_), governor_(spec_)
    {
        governor_.set_cap_mhz(spec_.max_compute_mhz); // set_clock_policy(kNativeDvfs)
        current_mhz_ = governor_.current_mhz();
    }
    GovernedReference(const GovernedReference&) = delete;
    GovernedReference& operator=(const GovernedReference&) = delete;

    void set_application_clocks(double mem_mhz, double compute_mhz)
    {
        mem_mhz_ = mem_mhz;
        governor_.set_cap_mhz(spec_.quantize_clock(compute_mhz));
    }
    void set_power_limit_w(double watts) { limit_w_ = watts; }

    KernelResult execute(const KernelWork& work)
    {
        const double mem_scale = mem_mhz_ / spec_.memory_clock_mhz;
        KernelResult r;
        r.start_s = now_;
        governor_.on_kernel_launch();
        const long transitions_before = governor_.transition_count();
        double progress = 0.0;
        double clock_time_integral = 0.0;
        double energy = 0.0;
        KernelTiming rep{};
        const double launches =
            static_cast<double>(std::max<std::int64_t>(work.launches, 1));
        int guard_iterations = 0;
        while (progress < 1.0 && ++guard_iterations < 2'000'000) {
            const double requested = governor_.current_mhz();
            const double f =
                limit_w_ <= 0.0
                    ? requested
                    : test::walk_reference(spec_, work, requested, mem_scale, limit_w_, true);
            const KernelTiming t = price_kernel(spec_, work, f, mem_scale);
            rep = t;
            if (t.total_s <= 0.0) break;
            const double remaining_s = (1.0 - progress) * t.total_s;
            const double dt = std::min(spec_.governor.tick_s, remaining_s);
            progress += dt / t.total_s;
            const PowerBreakdown busy = power_model_.busy_power(t, f, true);
            const PowerBreakdown gap = power_model_.idle_power(f, true);
            const double busy_frac = t.total_s > 0.0 ? t.busy_s / t.total_s : 1.0;
            const double p = busy.total_w * busy_frac + gap.total_w * (1.0 - busy_frac);
            account(dt, p);
            energy += p * dt;
            clock_time_integral += f * dt;
            trace_.append(now_, f);
            now_ += dt;
            governor_.step(dt, true, t.utilization);
            if (launches > 1.0 && dt >= spec_.governor.tick_s * 0.5) {
                governor_.on_kernel_launch();
            }
            current_mhz_ = governor_.current_mhz();
        }
        const long transitions = governor_.transition_count() - transitions_before;
        const double transition_j =
            static_cast<double>(transitions) * spec_.transition_energy_j;
        energy += transition_j;
        energy_.add(transition_j);
        r.end_s = now_;
        r.energy_j = energy;
        const double duration = r.end_s - r.start_s;
        r.mean_clock_mhz =
            duration > 0.0 ? clock_time_integral / duration : governor_.current_mhz();
        r.mean_power_w = duration > 0.0 ? energy / duration : 0.0;
        r.timing = rep;
        r.timing.total_s = duration;
        trace_.append(now_, current_mhz_);
        return r;
    }

    void idle(double seconds)
    {
        if (seconds <= 0.0) return;
        double remaining = seconds;
        while (remaining > 0.0) {
            const double dt = std::min(spec_.governor.tick_s, remaining);
            const double f = governor_.current_mhz();
            account(dt, power_model_.idle_power(f, true).total_w);
            trace_.append(now_, f);
            now_ += dt;
            remaining -= dt;
            governor_.step(dt, false, 0.0);
            current_mhz_ = governor_.current_mhz();
        }
        trace_.append(now_, current_mhz_);
    }

    double now() const { return now_; }
    double energy_j() const { return energy_.value(); }
    double power_w() const { return last_power_w_; }
    long clock_transitions() const { return governor_.transition_count(); }
    const util::TimeSeries& clock_trace() const { return trace_; }

private:
    void account(double dt, double power_w)
    {
        energy_.add(power_w * dt);
        last_power_w_ = power_w;
    }

    GpuDeviceSpec spec_;
    PowerModel power_model_;
    DvfsGovernor governor_;
    double mem_mhz_ = spec_.memory_clock_mhz;
    double limit_w_ = 0.0;
    double current_mhz_ = 0.0;
    double now_ = 0.0;
    util::KahanSum energy_;
    double last_power_w_ = 0.0;
    util::TimeSeries trace_;
};

TEST(Device, GovernedExecuteMatchesAReferenceLoop)
{
    // Random batches with 0-500 launches, capped or not, at several memory
    // clocks and application-clock caps, with idles between them: every
    // result, energy, time, transition count and trace sample is bit-equal.
    constexpr std::array<double, 4> kMemScales = {0.5, 0.8, 1.0, 1.25};
    util::Rng rng(0x90e5);
    for (const GpuDeviceSpec& spec : test::catalog_specs()) {
        GpuDevice dev(spec);
        dev.set_clock_policy(ClockPolicy::kNativeDvfs);
        dev.enable_tracing(true);
        GovernedReference ref(spec);
        const double tdp = dev.default_power_limit_w();
        for (int i = 0; i < 120; ++i) {
            KernelWork work = test::random_kernel(rng);
            // At most 0.3 s at the maximum clock, so at most a few hundred
            // ticks at the minimum one.
            const double longest_s = 0.3;
            const double t_max = price_kernel(spec, work, spec.max_compute_mhz).total_s;
            if (t_max > longest_s) {
                work.flops *= longest_s / t_max;
                work.dram_bytes *= longest_s / t_max;
            }
            const double limit_w =
                rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.8 * spec.idle_w, 1.1 * tdp);
            const double mem_mhz =
                kMemScales[rng.uniform_index(kMemScales.size())] * spec.memory_clock_mhz;
            const double cap_mhz =
                rng.uniform(spec.min_compute_mhz, spec.max_compute_mhz + 50.0);
            dev.set_power_limit_w(limit_w);
            dev.set_application_clocks(mem_mhz, cap_mhz);
            ref.set_power_limit_w(limit_w);
            ref.set_application_clocks(mem_mhz, cap_mhz);

            const KernelResult got = dev.execute(work);
            const KernelResult want = ref.execute(work);
            SCOPED_TRACE(spec.name + " batch " + std::to_string(i));
            EXPECT_EQ(got.timing.total_s, want.timing.total_s);
            EXPECT_EQ(got.timing.busy_s, want.timing.busy_s);
            EXPECT_EQ(got.timing.compute_s, want.timing.compute_s);
            EXPECT_EQ(got.timing.memory_s, want.timing.memory_s);
            EXPECT_EQ(got.timing.overhead_s, want.timing.overhead_s);
            EXPECT_EQ(got.timing.compute_activity, want.timing.compute_activity);
            EXPECT_EQ(got.timing.memory_activity, want.timing.memory_activity);
            EXPECT_EQ(got.timing.utilization, want.timing.utilization);
            EXPECT_EQ(got.start_s, want.start_s);
            EXPECT_EQ(got.end_s, want.end_s);
            EXPECT_EQ(got.energy_j, want.energy_j);
            EXPECT_EQ(got.mean_clock_mhz, want.mean_clock_mhz);
            EXPECT_EQ(got.mean_power_w, want.mean_power_w);

            const double idle_s = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 0.3);
            dev.idle(idle_s);
            ref.idle(idle_s);
            ASSERT_EQ(dev.energy_j(), ref.energy_j());
            ASSERT_EQ(dev.now(), ref.now());
            ASSERT_EQ(dev.power_w(), ref.power_w());
            ASSERT_EQ(dev.clock_transitions(), ref.clock_transitions());
        }
        const util::TimeSeries& got = dev.clock_trace();
        const util::TimeSeries& want = ref.clock_trace();
        ASSERT_EQ(got.size(), want.size()) << spec.name;
        for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].time, want[k].time) << spec.name << " sample " << k;
            ASSERT_EQ(got[k].value, want[k].value) << spec.name << " sample " << k;
        }
    }
}

/// Ops [from, to) of one fixed sequence of governed kernels and idles.
void drive(GpuDevice& dev, int from, int to)
{
    const KernelWork kernel = big_kernel();
    for (int k = from; k < to; ++k) {
        if (k % 3 == 2) {
            dev.idle(0.05 * (k % 4 + 1));
        }
        else {
            dev.execute(kernel);
        }
    }
}

/// Governed clocks, so every tick lands in the traces.
void trace_governed(GpuDevice& dev)
{
    dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    dev.enable_tracing(true);
}

std::string saved(const GpuDevice& dev)
{
    checkpoint::StateWriter writer;
    dev.save_state(writer);
    return writer.take();
}

TEST(Device, TraceSavesMatchAFreshSave)
{
    // Saves at several points encode only the samples appended since the
    // last one; each must equal the one save of a device that never saved.
    GpuDevice dev(a100_sxm4_80g());
    trace_governed(dev);
    int done = 0;
    for (const int ops : {0, 1, 4, 7}) {
        drive(dev, done, done + ops);
        done += ops;
        GpuDevice fresh(a100_sxm4_80g());
        trace_governed(fresh);
        drive(fresh, 0, done);
        ASSERT_EQ(saved(dev), saved(fresh)) << done << " ops";
    }
    ASSERT_GT(dev.clock_trace().size(), 20u);

    // clear_traces drops the saved text with the samples.
    dev.clear_traces();
    drive(dev, done, done + 3);
    GpuDevice cleared(a100_sxm4_80g());
    trace_governed(cleared);
    drive(cleared, 0, done);
    cleared.clear_traces();
    drive(cleared, done, done + 3);
    EXPECT_EQ(saved(dev), saved(cleared));
    done += 3;

    // A restored device drops the text its own saves kept, and continues
    // as the original does.
    GpuDevice restored(a100_sxm4_80g());
    trace_governed(restored);
    drive(restored, 0, 2);
    saved(restored);
    restored.restore_state(checkpoint::StateReader("gpu.0", saved(dev)));
    drive(dev, done, done + 5);
    drive(restored, done, done + 5);
    EXPECT_EQ(saved(restored), saved(dev));
}

/// The registry's kernel-batch and clock-transition totals.
struct Published {
    double batches;
    double transitions;
};

Published published()
{
    const auto& reg = telemetry::MetricsRegistry::global();
    return {reg.value("gpusim.kernel_batches"), reg.value("governor.transitions")};
}

TEST(Device, CountsReachTheRegistryOnlyWhenPublished)
{
    const Published before = published();
    {
        GpuDevice dev(a100_sxm4_80g());
        dev.set_application_clocks(1593.0, 1110.0);
        dev.execute(big_kernel()); // park -> 1110 MHz
        dev.execute(big_kernel());
        dev.idle(0.1);             // 1110 MHz -> park
        EXPECT_EQ(published().batches, before.batches);
        EXPECT_EQ(published().transitions, before.transitions);

        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches + 2.0);
        EXPECT_EQ(published().transitions, before.transitions + 2.0);
        dev.publish_counters(); // nothing new: adds nothing
        EXPECT_EQ(published().batches, before.batches + 2.0);

        dev.execute(big_kernel());
    }
    // The destructor publishes what was left.
    EXPECT_EQ(published().batches, before.batches + 3.0);
    EXPECT_EQ(published().transitions, before.transitions + 3.0);
}

TEST(Device, RestoreDropsCountsFromBeforeTheRestore)
{
    // The registry's own checkpoint section holds the restored run's
    // totals, so work done before a device restore must not be added.
    const Published before = published();
    {
        GpuDevice dev(a100_sxm4_80g());
        const std::string fresh = saved(dev);
        dev.set_clock_policy(ClockPolicy::kNativeDvfs);
        dev.execute(big_kernel());
        dev.idle(0.2);
        ASSERT_GT(dev.clock_transitions(), 0);
        dev.restore_state(checkpoint::StateReader("gpu.0", fresh));
        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches);
        EXPECT_EQ(published().transitions, before.transitions);

        // Work after the restore is counted as usual.
        dev.set_application_clocks(1593.0, 1110.0);
        dev.execute(big_kernel()); // park -> 1110 MHz
    }
    EXPECT_EQ(published().batches, before.batches + 1.0);
    EXPECT_EQ(published().transitions, before.transitions + 1.0);
}

TEST(Device, NoTracesByDefault)
{
    GpuDevice dev(a100_sxm4_80g());
    dev.execute(big_kernel());
    EXPECT_TRUE(dev.clock_trace().empty());
}

TEST(Device, EnergyIsMonotone)
{
    GpuDevice dev(a100_sxm4_80g());
    double prev = 0.0;
    for (int i = 0; i < 10; ++i) {
        dev.execute(big_kernel());
        EXPECT_GT(dev.energy_j(), prev);
        prev = dev.energy_j();
        dev.idle(0.01);
        EXPECT_GT(dev.energy_j(), prev);
        prev = dev.energy_j();
    }
}

TEST(Device, LockedEnergyDeterministic)
{
    GpuDevice a(a100_sxm4_80g()), b(a100_sxm4_80g());
    a.execute(big_kernel());
    b.execute(big_kernel());
    EXPECT_DOUBLE_EQ(a.energy_j(), b.energy_j());
    EXPECT_DOUBLE_EQ(a.now(), b.now());
}

TEST(Device, OverheadPricedNearIdle)
{
    // A launch-storm batch with negligible math should burn near-idle power.
    GpuDevice dev(a100_sxm4_80g());
    KernelWork w;
    w.launches = 10000;
    w.flops = 1e6;
    w.dram_bytes = 1e6;
    w.threads = 1000;
    const auto r = dev.execute(w);
    EXPECT_LT(r.mean_power_w, 120.0);
}

TEST(Device, MemoryClockSettingAffectsBandwidth)
{
    GpuDevice normal(a100_sxm4_80g()), slow(a100_sxm4_80g());
    KernelWork w;
    w.dram_bytes = 1e11;
    w.flops = 1e9;
    w.threads = 90'000'000;
    slow.set_application_clocks(1593.0 / 2.0, 1410.0);
    const auto rn = normal.execute(w);
    const auto rs = slow.execute(w);
    EXPECT_GT(rs.timing.total_s, rn.timing.total_s * 1.5);
}

} // namespace
} // namespace gsph::gpusim
