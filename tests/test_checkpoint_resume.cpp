/// Resume bit-identity (ISSUE satellite: parameterized across threads,
/// policies and fault injection): a run restored from a mid-run checkpoint
/// must produce a RunResult identical — exact double equality, no
/// tolerances — to the same run never interrupted.  Checkpoint writing
/// itself must not perturb results either.

#include "checkpoint/checkpoint.hpp"
#include "core/frequency_table.hpp"
#include "core/online_tuner.hpp"
#include "core/policy.hpp"
#include "faults/fault_injector.hpp"
#include "sim/driver.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_tracer.hpp"
#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace gsph {
namespace {

struct ResumeCase {
    int threads;
    const char* policy;     // "static", "mandyn" or "onlineModel"
    const char* fault_spec; // "" = no injection
};

std::string case_name(const testing::TestParamInfo<ResumeCase>& info)
{
    std::string name = std::string(info.param.policy) + "Threads" +
                       std::to_string(info.param.threads);
    if (info.param.fault_spec[0] != '\0') name += "Faulted";
    return name;
}

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_resume_XXXXXX";
        const char* dir = ::mkdtemp(pattern);
        if (!dir) throw std::runtime_error("mkdtemp failed");
        path_ = dir;
    }
    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        (void)std::system(cmd.c_str());
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

const sim::WorkloadTrace& trace()
{
    static const sim::WorkloadTrace t = [] {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 50e6;
        spec.n_steps = 6;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }();
    return t;
}

std::unique_ptr<core::FrequencyPolicy> make_policy(const std::string& kind)
{
    if (kind == "static") return core::make_static_policy(1200.0);
    if (kind == "onlineModel") {
        // Model-steered online tuner mid-exploration: the step-4 snapshot
        // catches probe accumulators, fitted coefficients and stage
        // machines in flight.
        core::OnlineTunerConfig cfg;
        cfg.candidate_clocks = {1005.0, 1110.0, 1215.0, 1320.0, 1410.0};
        cfg.samples_per_clock = 1; // probes and fit land before step 4
        cfg.strategy = core::TuneStrategy::kModel;
        return core::make_online_mandyn_policy(cfg);
    }
    return core::make_mandyn_policy(core::reference_a100_turbulence_table());
}

sim::RunConfig base_cfg(const ResumeCase& param)
{
    sim::RunConfig c;
    c.n_ranks = 2;
    c.n_threads = param.threads;
    c.setup_s = 2.0;
    return c;
}

/// Every scalar the CLI summary derives from, compared bit-for-bit.
void expect_identical(const sim::RunResult& got, const sim::RunResult& want)
{
    EXPECT_EQ(got.n_steps, want.n_steps);
    EXPECT_EQ(got.loop_start_s, want.loop_start_s);
    EXPECT_EQ(got.loop_end_s, want.loop_end_s);
    EXPECT_EQ(got.total_wall_s, want.total_wall_s);
    EXPECT_EQ(got.gpu_energy_j, want.gpu_energy_j);
    EXPECT_EQ(got.cpu_energy_j, want.cpu_energy_j);
    EXPECT_EQ(got.memory_energy_j, want.memory_energy_j);
    EXPECT_EQ(got.other_energy_j, want.other_energy_j);
    EXPECT_EQ(got.node_energy_j, want.node_energy_j);
    EXPECT_EQ(got.pmt_loop_energy_j, want.pmt_loop_energy_j);
    EXPECT_EQ(got.edp(), want.edp());
    EXPECT_EQ(got.slurm.consumed_energy_j, want.slurm.consumed_energy_j);
    EXPECT_EQ(got.slurm.elapsed_s, want.slurm.elapsed_s);
    ASSERT_EQ(got.step_start_times.size(), want.step_start_times.size());
    for (std::size_t i = 0; i < want.step_start_times.size(); ++i) {
        EXPECT_EQ(got.step_start_times[i], want.step_start_times[i]) << "step " << i;
    }
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto fn = static_cast<sph::SphFunction>(f);
        EXPECT_EQ(got.fn(fn).time_s, want.fn(fn).time_s) << sph::to_string(fn);
        EXPECT_EQ(got.fn(fn).gpu_energy_j, want.fn(fn).gpu_energy_j)
            << sph::to_string(fn);
        EXPECT_EQ(got.fn(fn).calls, want.fn(fn).calls) << sph::to_string(fn);
        EXPECT_EQ(got.fn(fn).clock_time_product, want.fn(fn).clock_time_product)
            << sph::to_string(fn);
    }
}

class CheckpointResume : public testing::TestWithParam<ResumeCase> {};

TEST_P(CheckpointResume, ResumedRunIsBitIdenticalToUninterrupted)
{
    const ResumeCase param = GetParam();
    const bool faulted = param.fault_spec[0] != '\0';
    const auto spec =
        faulted ? faults::FaultSpec::parse(param.fault_spec) : faults::FaultSpec{};

    // Leg 1: the uninterrupted reference, no checkpointing at all.
    sim::RunResult reference;
    {
        std::unique_ptr<faults::ScopedFaultInjection> guard;
        if (faulted) guard = std::make_unique<faults::ScopedFaultInjection>(spec, 7);
        auto policy = make_policy(param.policy);
        reference = core::run_with_policy(sim::mini_hpc(), trace(), base_cfg(param),
                                          *policy);
    }

    // Leg 2: same run with checkpointing on — commits at steps 2 and 4.
    TempDir dir;
    {
        std::unique_ptr<faults::ScopedFaultInjection> guard;
        if (faulted) guard = std::make_unique<faults::ScopedFaultInjection>(spec, 7);
        auto policy = make_policy(param.policy);
        checkpoint::StateRegistry registry;
        registry.add(
            "policy",
            [&](checkpoint::StateWriter& w) { policy->save_state(w); },
            [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
        if (faulted) {
            registry.add(
                "faults",
                [&](checkpoint::StateWriter& w) { guard->injector().save_state(w); },
                [&](const checkpoint::StateReader& r) {
                    guard->injector().restore_state(r);
                });
        }
        sim::RunConfig c = base_cfg(param);
        c.checkpoint_every = 2;
        c.checkpoint_dir = dir.path();
        c.config_hash = "test";
        c.checkpoint_participants = &registry;
        const auto checkpointed =
            core::run_with_policy(sim::mini_hpc(), trace(), c, *policy);
        EXPECT_EQ(checkpointed.checkpoints_written, 2);
        expect_identical(checkpointed, reference);
    }

    // Leg 3: fresh everything, resumed from the step-4 checkpoint.
    {
        const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
        ASSERT_EQ(snap.step, 4);
        std::unique_ptr<faults::ScopedFaultInjection> guard;
        if (faulted) guard = std::make_unique<faults::ScopedFaultInjection>(spec, 7);
        auto policy = make_policy(param.policy);
        checkpoint::StateRegistry registry;
        registry.add(
            "policy",
            [&](checkpoint::StateWriter& w) { policy->save_state(w); },
            [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
        if (faulted) {
            registry.add(
                "faults",
                [&](checkpoint::StateWriter& w) { guard->injector().save_state(w); },
                [&](const checkpoint::StateReader& r) {
                    guard->injector().restore_state(r);
                });
        }
        sim::RunConfig c = base_cfg(param);
        c.resume = &snap;
        c.checkpoint_participants = &registry;
        const auto resumed = core::run_with_policy(sim::mini_hpc(), trace(), c, *policy);
        expect_identical(resumed, reference);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BitIdentity, CheckpointResume,
    testing::Values(ResumeCase{1, "static", ""}, ResumeCase{4, "static", ""},
                    ResumeCase{1, "mandyn", ""}, ResumeCase{4, "mandyn", ""},
                    ResumeCase{1, "mandyn", "transient-set:p=0.3"},
                    ResumeCase{4, "static", "transient-set:p=0.3"},
                    ResumeCase{1, "onlineModel", ""},
                    ResumeCase{4, "onlineModel", ""},
                    ResumeCase{4, "onlineModel", "transient-set:p=0.3"}),
    case_name);

// ---- live observability plane across a checkpoint/resume boundary --------

/// The metrics registry's checkpoint section, registered as the CLI does.
void add_metrics_participant(checkpoint::StateRegistry& registry)
{
    telemetry::MetricsRegistry& metrics = telemetry::MetricsRegistry::global();
    registry.add(
        "metrics", [&metrics](checkpoint::StateWriter& w) { metrics.save_state(w); },
        [&metrics](const checkpoint::StateReader& r) { metrics.restore_state(r); });
}

/// The observability plane's full deterministic state as one string: f64s
/// round-trip as raw bit patterns, so equal strings mean bit-equal state.
struct PlaneState {
    std::string sampler;
    std::string anomaly;
    std::string digests;
};

PlaneState plane_state(const telemetry::LiveSampler& sampler)
{
    PlaneState s;
    checkpoint::StateWriter w1, w2, w3;
    sampler.save_state(w1);
    sampler.anomaly().save_state(w2);
    // The digests alone, encoded by the metrics section: the checkpointed
    // run counts its own writes in counters the others do not have.
    telemetry::MetricsSnapshot digests;
    digests.digests = telemetry::MetricsRegistry::global().snapshot().digests;
    telemetry::MetricsRegistry only_digests;
    only_digests.restore(digests);
    only_digests.save_state(w3);
    s.sampler = w1.str();
    s.anomaly = w2.str();
    s.digests = w3.str();
    return s;
}

void add_plane_participants(checkpoint::StateRegistry& registry,
                            telemetry::LiveSampler& sampler)
{
    registry.add(
        "sampler",
        [&](checkpoint::StateWriter& w) { sampler.save_state(w); },
        [&](const checkpoint::StateReader& r) { sampler.restore_state(r); });
    registry.add(
        "anomaly",
        [&](checkpoint::StateWriter& w) { sampler.anomaly().save_state(w); },
        [&](const checkpoint::StateReader& r) { sampler.anomaly().restore_state(r); });
    add_metrics_participant(registry);
}

TEST(CheckpointResumeSampler, LivePlaneStateResumesBitIdentically)
{
    // Acceptance criterion: sampler windows, quantile digests and anomaly
    // state all checkpoint and resume bit-identically, alongside the run
    // itself.
    const sim::RunConfig base = [] {
        sim::RunConfig c;
        c.n_ranks = 2;
        c.setup_s = 2.0;
        return c;
    }();

    // Leg 1: uninterrupted reference with the plane attached.
    telemetry::MetricsRegistry::global().reset();
    sim::RunResult reference;
    PlaneState want;
    {
        telemetry::LiveSampler sampler(2);
        sim::RunHooks hooks;
        sampler.attach(hooks);
        auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
        reference =
            core::run_with_policy(sim::mini_hpc(), trace(), base, *policy, hooks);
        want = plane_state(sampler);
        EXPECT_EQ(sampler.steps_completed(), reference.n_steps);
    }

    // Leg 2: checkpointing on — writing checkpoints must not perturb the
    // plane either.
    TempDir dir;
    telemetry::MetricsRegistry::global().reset();
    {
        telemetry::LiveSampler sampler(2);
        sim::RunHooks hooks;
        sampler.attach(hooks);
        auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
        checkpoint::StateRegistry registry;
        registry.add(
            "policy",
            [&](checkpoint::StateWriter& w) { policy->save_state(w); },
            [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
        add_plane_participants(registry, sampler);
        sim::RunConfig c = base;
        c.checkpoint_every = 2;
        c.checkpoint_dir = dir.path();
        c.config_hash = "test";
        c.checkpoint_participants = &registry;
        const auto checkpointed =
            core::run_with_policy(sim::mini_hpc(), trace(), c, *policy, hooks);
        expect_identical(checkpointed, reference);
        const PlaneState got = plane_state(sampler);
        EXPECT_EQ(got.sampler, want.sampler);
        EXPECT_EQ(got.anomaly, want.anomaly);
        EXPECT_EQ(got.digests, want.digests);
    }

    // Leg 3: fresh process state, resumed from the step-4 checkpoint; the
    // plane must end bit-identical to the never-interrupted reference.
    telemetry::MetricsRegistry::global().reset();
    {
        const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
        ASSERT_EQ(snap.step, 4);
        telemetry::LiveSampler sampler(2);
        sim::RunHooks hooks;
        sampler.attach(hooks);
        auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
        checkpoint::StateRegistry registry;
        registry.add(
            "policy",
            [&](checkpoint::StateWriter& w) { policy->save_state(w); },
            [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
        add_plane_participants(registry, sampler);
        sim::RunConfig c = base;
        c.resume = &snap;
        c.checkpoint_participants = &registry;
        const auto resumed =
            core::run_with_policy(sim::mini_hpc(), trace(), c, *policy, hooks);
        expect_identical(resumed, reference);
        EXPECT_EQ(sampler.steps_completed(), reference.n_steps);
        const PlaneState got = plane_state(sampler);
        EXPECT_EQ(got.sampler, want.sampler);
        EXPECT_EQ(got.anomaly, want.anomaly);
        EXPECT_EQ(got.digests, want.digests);
    }
}

// ---- run tracer across a checkpoint/resume boundary ------------------------

TEST(CheckpointResumeTracer, ResumedRunReproducesTheTrace)
{
    // The resumed run's Chrome trace holds the steps before the checkpoint
    // (restored from the tracer's section) and the steps after it (traced
    // live), byte-identical to the trace of the run never interrupted.
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        sim::RunConfig base;
        base.n_ranks = 2;
        base.n_threads = threads;
        base.setup_s = 2.0;

        const auto traced_run = [&](const sim::RunConfig& c) {
            telemetry::RunTracer tracer(base.n_ranks);
            sim::RunHooks hooks;
            tracer.attach(hooks);
            auto policy = core::make_mandyn_policy(core::reference_a100_turbulence_table());
            checkpoint::StateRegistry registry;
            registry.add(
                "policy", [&](checkpoint::StateWriter& w) { policy->save_state(w); },
                [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
            registry.add(
                "runtracer", [&](checkpoint::StateWriter& w) { tracer.save_state(w); },
                [&](const checkpoint::StateReader& r) { tracer.restore_state(r); });
            sim::RunConfig run = c;
            run.checkpoint_participants = &registry;
            core::run_with_policy(sim::mini_hpc(), trace(), run, *policy, hooks);
            return tracer.tracer().to_chrome_json();
        };

        const std::string reference = traced_run(base);

        TempDir dir;
        sim::RunConfig checkpointed = base;
        checkpointed.checkpoint_every = 2;
        checkpointed.checkpoint_dir = dir.path();
        checkpointed.config_hash = "test";
        EXPECT_EQ(traced_run(checkpointed), reference);

        const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
        ASSERT_EQ(snap.step, 4);
        sim::RunConfig resumed = base;
        resumed.resume = &snap;
        EXPECT_EQ(traced_run(resumed), reference);
    }
}

// ---- published device counters across a checkpoint/resume boundary ---------

TEST(CheckpointResumeCounters, ResumedRunEndsWithTheUninterruptedCounts)
{
    // Devices publish their kernel-batch and clock-transition counts at
    // step ends, so every checkpoint commit holds the counts of the steps
    // it covers, and a resumed run (whose devices drop what they counted
    // before the restore) ends with the uninterrupted run's totals.
    const std::array<const char*, 3> names = {
        "driver.function_calls", "gpusim.kernel_batches", "governor.transitions"};
    const auto counts = [&names] {
        std::array<double, 3> v{};
        for (std::size_t i = 0; i < names.size(); ++i) {
            v[i] = telemetry::MetricsRegistry::global().value(names[i]);
        }
        return v;
    };
    for (const char* kind : {"mandyn", "dvfs"}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(std::string(kind) + ", " + std::to_string(threads) + " threads");
            sim::RunConfig base;
            base.n_ranks = 3;
            base.n_threads = threads;
            base.setup_s = 2.0;
            const auto counted_run = [&](const sim::RunConfig& c) {
                auto policy = std::string(kind) == "dvfs"
                                  ? core::make_native_dvfs_policy()
                                  : make_policy(kind);
                checkpoint::StateRegistry registry;
                registry.add(
                    "policy", [&](checkpoint::StateWriter& w) { policy->save_state(w); },
                    [&](const checkpoint::StateReader& r) { policy->restore_state(r); });
                add_metrics_participant(registry);
                sim::RunConfig run = c;
                run.checkpoint_participants = &registry;
                telemetry::MetricsRegistry::global().reset(); // a fresh process
                core::run_with_policy(sim::mini_hpc(), trace(), run, *policy);
                return counts();
            };

            const std::array<double, 3> reference = counted_run(base);
            EXPECT_GT(reference[2], 0.0);

            TempDir dir;
            sim::RunConfig checkpointed = base;
            checkpointed.checkpoint_every = 2;
            checkpointed.checkpoint_dir = dir.path();
            checkpointed.config_hash = "test";
            EXPECT_EQ(counted_run(checkpointed), reference);

            const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
            ASSERT_EQ(snap.step, 4);
            sim::RunConfig resumed = base;
            resumed.resume = &snap;
            EXPECT_EQ(counted_run(resumed), reference);
        }
    }
}

TEST(CheckpointResumeErrors, ResumeRejectsRankCountMismatch)
{
    TempDir dir;
    auto policy = core::make_static_policy(1200.0);
    sim::RunConfig c;
    c.n_ranks = 2;
    c.setup_s = 2.0;
    c.checkpoint_every = 2;
    c.checkpoint_dir = dir.path();
    core::run_with_policy(sim::mini_hpc(), trace(), c, *policy);

    const checkpoint::Snapshot snap = checkpoint::read_latest(dir.path());
    sim::RunConfig wrong;
    wrong.n_ranks = 4; // checkpoint was written by a 2-rank run
    wrong.setup_s = 2.0;
    wrong.resume = &snap;
    EXPECT_THROW(core::run_with_policy(sim::mini_hpc(), trace(), wrong, *policy),
                 checkpoint::CheckpointError);
}

TEST(CheckpointResumeErrors, CheckpointEveryWithoutDirRejected)
{
    sim::RunConfig c;
    c.setup_s = 2.0;
    c.checkpoint_every = 2;
    auto policy = core::make_static_policy(1200.0);
    EXPECT_THROW(core::run_with_policy(sim::mini_hpc(), trace(), c, *policy),
                 std::invalid_argument);
}

} // namespace
} // namespace gsph
