#include "gpusim/device.hpp"

#include "gpusim_random.hpp"
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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
        const long transitions_before = governor_.transition_count();
        governor_.on_kernel_launch();
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

TEST(Device, EveryTransitionOfAGovernedBatchIsCharged)
{
    // Each batch starts below the boost floor, so its first launch boosts
    // the clock: that transition costs transition_energy_j like the ones
    // later in the batch.  The idle decay between batches costs none.
    constexpr double kTransitionJ = 0.25;
    GpuDeviceSpec free_spec = a100_sxm4_80g();
    free_spec.transition_energy_j = 0.0;
    GpuDeviceSpec priced_spec = free_spec;
    priced_spec.transition_energy_j = kTransitionJ;
    GpuDevice free_dev(free_spec);
    GpuDevice priced(priced_spec);
    free_dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    priced.set_clock_policy(ClockPolicy::kNativeDvfs);
    for (int batch = 0; batch < 3; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        ASSERT_LT(priced.current_clock_mhz(), priced_spec.governor.boost_floor_mhz);
        const long before = priced.clock_transitions();
        const KernelResult free_run = free_dev.execute(big_kernel());
        const KernelResult priced_run = priced.execute(big_kernel());
        const long transitions = priced.clock_transitions() - before;
        ASSERT_GE(transitions, 1);
        EXPECT_NEAR(priced_run.energy_j - free_run.energy_j,
                    static_cast<double>(transitions) * kTransitionJ, 1e-9);

        const double free_before_idle = free_dev.energy_j();
        const double priced_before_idle = priced.energy_j();
        const long before_idle = priced.clock_transitions();
        free_dev.idle(2.0);
        priced.idle(2.0);
        ASSERT_GT(priced.clock_transitions(), before_idle);
        EXPECT_NEAR(priced.energy_j() - priced_before_idle,
                    free_dev.energy_j() - free_before_idle, 1e-9);
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

/// A device's saves into one checkpoint writer, as a resume reads them: the
/// log records of every save so far, then the last save's text.
class DeviceSaves {
public:
    /// Saves `dev`; returns the clock-trace samples this save logged.
    std::size_t save(const GpuDevice& dev)
    {
        checkpoint::StateWriter writer;
        dev.save_state(writer);
        const std::string records = writer.take_log();
        log_ += records;
        text_ = writer.take();
        const checkpoint::StateReader logged("gpu.0", records);
        const std::string times = "clock_trace." + std::to_string(chunks_) + ".t";
        if (!logged.has(times)) return 0;
        ++chunks_;
        return logged.get_f64_vec(times).size();
    }
    std::string section() const { return log_ + text_; }

private:
    std::string log_, text_;
    std::size_t chunks_ = 0;
};

/// The state a device restored from `section` holds: its save's text, but
/// for the chunk count, and its clock trace, bit for bit.
std::string restored_state(const std::string& section)
{
    GpuDevice dev(a100_sxm4_80g());
    trace_governed(dev);
    dev.restore_state(checkpoint::StateReader("gpu.0", section));
    checkpoint::StateWriter writer;
    dev.save_state(writer);
    std::string out = writer.take_log() + writer.take();
    out.erase(out.find("clock_trace.chunks="));
    for (const util::Sample& s : dev.clock_trace().samples()) {
        out += checkpoint::encode_f64(s.time) + checkpoint::encode_f64(s.value);
    }
    return out;
}

TEST(Device, TraceSavesMatchAFreshSave)
{
    // Saves at several points log only the samples appended since the last
    // one; together they restore what the one save of a device that never
    // saved restores.
    GpuDevice dev(a100_sxm4_80g());
    trace_governed(dev);
    DeviceSaves saves;
    int done = 0;
    for (const int ops : {0, 1, 4, 7}) {
        const std::size_t before = dev.clock_trace().size();
        drive(dev, done, done + ops);
        done += ops;
        ASSERT_EQ(saves.save(dev), dev.clock_trace().size() - before) << done << " ops";
        GpuDevice fresh(a100_sxm4_80g());
        trace_governed(fresh);
        drive(fresh, 0, done);
        DeviceSaves fresh_save;
        fresh_save.save(fresh);
        ASSERT_EQ(restored_state(saves.section()), restored_state(fresh_save.section()))
            << done << " ops";
    }
    ASSERT_GT(dev.clock_trace().size(), 20u);

    // A restored device counts the samples it restored as logged, whatever
    // its own saves logged before, and continues as the original does.
    GpuDevice restored(a100_sxm4_80g());
    trace_governed(restored);
    drive(restored, 0, 2);
    DeviceSaves().save(restored);
    restored.restore_state(checkpoint::StateReader("gpu.0", saves.section()));
    DeviceSaves resumed = saves;
    drive(dev, done, done + 5);
    drive(restored, done, done + 5);
    EXPECT_EQ(resumed.save(restored), saves.save(dev));
    EXPECT_EQ(resumed.section(), saves.section());
}

/// The registry's kernel-batch, clock-transition and cap-set totals.
struct Published {
    double batches;
    double transitions;
    double cap_sets;
};

Published published()
{
    const auto& reg = telemetry::MetricsRegistry::global();
    return {reg.value("gpusim.kernel_batches"), reg.value("governor.transitions"),
            reg.value("governor.cap_sets")};
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
        EXPECT_EQ(published().cap_sets, before.cap_sets);

        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches + 2.0);
        EXPECT_EQ(published().transitions, before.transitions + 2.0);
        EXPECT_EQ(published().cap_sets, before.cap_sets + 1.0);
        dev.publish_counters(); // nothing new: adds nothing
        EXPECT_EQ(published().batches, before.batches + 2.0);
        EXPECT_EQ(published().cap_sets, before.cap_sets + 1.0);

        dev.execute(big_kernel());
        dev.reset_application_clocks();
        dev.set_clock_policy(ClockPolicy::kNativeDvfs);
    }
    // The destructor publishes what was left.
    EXPECT_EQ(published().batches, before.batches + 3.0);
    EXPECT_EQ(published().transitions, before.transitions + 3.0);
    EXPECT_EQ(published().cap_sets, before.cap_sets + 3.0);
}

TEST(Device, RestoreDropsCountsFromBeforeTheRestore)
{
    // The registry's own checkpoint section holds the restored run's
    // totals, so work done before a device restore must not be added.
    const Published before = published();
    {
        GpuDevice dev(a100_sxm4_80g());
        DeviceSaves saves;
        saves.save(dev);
        const std::string fresh = saves.section();
        dev.set_clock_policy(ClockPolicy::kNativeDvfs);
        dev.execute(big_kernel());
        dev.idle(0.2);
        ASSERT_GT(dev.clock_transitions(), 0);
        dev.restore_state(checkpoint::StateReader("gpu.0", fresh));
        dev.publish_counters();
        EXPECT_EQ(published().batches, before.batches);
        EXPECT_EQ(published().transitions, before.transitions);
        EXPECT_EQ(published().cap_sets, before.cap_sets);

        // Work after the restore is counted as usual.
        dev.set_application_clocks(1593.0, 1110.0);
        dev.execute(big_kernel()); // park -> 1110 MHz
    }
    EXPECT_EQ(published().batches, before.batches + 1.0);
    EXPECT_EQ(published().transitions, before.transitions + 1.0);
    EXPECT_EQ(published().cap_sets, before.cap_sets + 1.0);
}

void expect_same_result(const KernelResult& got, const KernelResult& want)
{
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    EXPECT_TRUE(same(got.timing.total_s, want.timing.total_s));
    EXPECT_TRUE(same(got.timing.busy_s, want.timing.busy_s));
    EXPECT_TRUE(same(got.timing.compute_s, want.timing.compute_s));
    EXPECT_TRUE(same(got.timing.memory_s, want.timing.memory_s));
    EXPECT_TRUE(same(got.timing.overhead_s, want.timing.overhead_s));
    EXPECT_TRUE(same(got.timing.compute_activity, want.timing.compute_activity));
    EXPECT_TRUE(same(got.timing.memory_activity, want.timing.memory_activity));
    EXPECT_TRUE(same(got.timing.utilization, want.timing.utilization));
    EXPECT_TRUE(same(got.start_s, want.start_s));
    EXPECT_TRUE(same(got.end_s, want.end_s));
    EXPECT_TRUE(same(got.energy_j, want.energy_j));
    EXPECT_TRUE(same(got.mean_clock_mhz, want.mean_clock_mhz));
    EXPECT_TRUE(same(got.mean_power_w, want.mean_power_w));
}

/// What the counts of `dev` add to the registry when published.
Published publish_and_count(GpuDevice& dev)
{
    const Published before = published();
    dev.publish_counters();
    const Published after = published();
    return {after.batches - before.batches, after.transitions - before.transitions,
            after.cap_sets - before.cap_sets};
}

/// execute_priced(price_locked(w)) on one device against execute(w) on an
/// identical one, bit for bit: each result, the energy, time, clock, power,
/// clock trace and published counts.  Uncapped, at TDP, at 45% of TDP and
/// at idle + 21 W; at the default clocks, at ManDyn's per-function clocks
/// and at a lowered memory clock; random batches with idles between them.
TEST(Device, PricedExecutionMatchesExecute)
{
    // The clocks of core::reference_a100_turbulence_table(), as ManDyn
    // moves between them from one function to the next.
    constexpr std::array<double, 6> kManDynMhz = {1350.0, 1005.0, 1275.0,
                                                  1410.0, 1005.0, 1350.0};
    enum class Clocks { kDefault, kManDyn, kLowMemory };
    util::Rng rng(0x9a1ce);
    const GpuDeviceSpec spec = a100_sxm4_80g();
    for (int depth = 0; depth < 4; ++depth) {
        for (const Clocks clocks : {Clocks::kDefault, Clocks::kManDyn, Clocks::kLowMemory}) {
            SCOPED_TRACE("cap depth " + std::to_string(depth) + ", clocks " +
                         std::to_string(static_cast<int>(clocks)));
            GpuDevice executed(spec);
            GpuDevice priced(spec);
            const double tdp = executed.default_power_limit_w();
            const std::array<double, 4> limits_w = {0.0, tdp, 0.45 * tdp, spec.idle_w + 21.0};
            for (GpuDevice* dev : {&executed, &priced}) {
                dev->enable_tracing(true);
                dev->set_power_limit_w(limits_w[static_cast<std::size_t>(depth)]);
                if (clocks == Clocks::kLowMemory) {
                    dev->set_application_clocks(0.8 * spec.memory_clock_mhz,
                                                spec.default_app_clock_mhz);
                }
            }
            for (int i = 0; i < 60; ++i) {
                const KernelWork work = test::random_kernel(rng);
                if (clocks == Clocks::kManDyn) {
                    const double mhz = kManDynMhz[static_cast<std::size_t>(i) % kManDynMhz.size()];
                    executed.set_application_clocks(spec.memory_clock_mhz, mhz);
                    priced.set_application_clocks(spec.memory_clock_mhz, mhz);
                }
                const KernelResult want = executed.execute(work);
                const LockedPrice price = priced.price_locked(work);
                ASSERT_TRUE(priced.can_apply(price));
                SCOPED_TRACE("batch " + std::to_string(i));
                expect_same_result(priced.execute_priced(price), want);
                if (i % 7 == 6) {
                    executed.idle(0.05);
                    priced.idle(0.05);
                }
                ASSERT_EQ(priced.energy_j(), executed.energy_j());
                ASSERT_EQ(priced.now(), executed.now());
                ASSERT_EQ(priced.current_clock_mhz(), executed.current_clock_mhz());
                ASSERT_EQ(priced.power_w(), executed.power_w());
            }
            const util::TimeSeries& got = priced.clock_trace();
            const util::TimeSeries& want = executed.clock_trace();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t k = 0; k < got.size(); ++k) {
                ASSERT_EQ(got[k].time, want[k].time) << "sample " << k;
                ASSERT_EQ(got[k].value, want[k].value) << "sample " << k;
            }
            const Published executed_counts = publish_and_count(executed);
            const Published priced_counts = publish_and_count(priced);
            EXPECT_EQ(priced_counts.batches, executed_counts.batches);
            EXPECT_EQ(priced_counts.batches, 60.0);
            EXPECT_EQ(priced_counts.transitions, executed_counts.transitions);
            EXPECT_EQ(priced_counts.cap_sets, executed_counts.cap_sets);
        }
    }
}

/// A price runs on any device of the spec whose clocks and limit it was
/// priced under, and nowhere else.
TEST(Device, PricedExecutionRefusesOtherClocksLimitsAndGovernedDevices)
{
    const GpuDeviceSpec spec = a100_sxm4_80g();
    GpuDevice origin(spec);
    origin.set_power_limit_w(0.45 * origin.default_power_limit_w());
    const LockedPrice price = origin.price_locked(big_kernel());
    EXPECT_LT(price.clock_mhz, spec.default_app_clock_mhz); // throttled

    GpuDevice twin(spec);
    twin.set_power_limit_w(origin.power_limit_w());
    GpuDevice other(spec);
    other.set_power_limit_w(origin.power_limit_w());
    ASSERT_TRUE(other.can_apply(price));
    expect_same_result(other.execute_priced(price), twin.execute(big_kernel()));

    other.set_power_limit_w(0.5 * origin.default_power_limit_w());
    EXPECT_FALSE(other.can_apply(price));
    EXPECT_THROW(other.execute_priced(price), std::invalid_argument);
    other.set_power_limit_w(origin.power_limit_w());
    other.set_application_clocks(spec.memory_clock_mhz, 1110.0);
    EXPECT_THROW(other.execute_priced(price), std::invalid_argument);
    other.reset_application_clocks();
    other.set_application_clocks(0.8 * spec.memory_clock_mhz, spec.default_app_clock_mhz);
    EXPECT_THROW(other.execute_priced(price), std::invalid_argument);
    other.reset_application_clocks();
    EXPECT_TRUE(other.can_apply(price));
    other.set_clock_policy(ClockPolicy::kNativeDvfs);
    EXPECT_THROW(other.execute_priced(price), std::invalid_argument);

    // A refused price changes nothing.
    EXPECT_EQ(other.now(), twin.now());
    EXPECT_EQ(other.energy_j(), twin.energy_j());

    // Limits compare by their bits: a NaN limit's price runs where it was
    // made, and an uncapped price of -0 W is not one of +0 W.
    GpuDevice nan_limited(spec);
    nan_limited.set_power_limit_w(std::nan(""));
    EXPECT_NO_THROW(nan_limited.execute_priced(nan_limited.price_locked(big_kernel())));
    GpuDevice minus_zero(spec);
    minus_zero.set_power_limit_w(-0.0);
    EXPECT_FALSE(minus_zero.can_apply(GpuDevice(spec).price_locked(big_kernel())));
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
