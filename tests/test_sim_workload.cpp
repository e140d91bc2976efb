#include "sim/workload.hpp"

#include "sim/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>

namespace gsph::sim {
namespace {

WorkloadSpec small_spec(WorkloadKind kind)
{
    WorkloadSpec spec;
    spec.kind = kind;
    spec.particles_per_gpu = 1e6;
    spec.n_steps = 3;
    spec.real_nside = 8;
    return spec;
}

TEST(Workload, Names)
{
    EXPECT_STREQ(to_string(WorkloadKind::kSubsonicTurbulence), "SubsonicTurbulence");
    EXPECT_STREQ(to_string(WorkloadKind::kEvrardCollapse), "EvrardCollapse");
}

TEST(Workload, RecordTraceShape)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    EXPECT_EQ(trace.n_steps(), 3);
    EXPECT_EQ(trace.kind, WorkloadKind::kSubsonicTurbulence);
    EXPECT_DOUBLE_EQ(trace.n_particles_real, 512.0);
    for (const auto& step : trace.steps) {
        EXPECT_EQ(step.functions.size(), sph::function_order(false).size());
    }
}

TEST(Workload, EvrardTraceIncludesGravity)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kEvrardCollapse));
    bool has_gravity = false;
    for (const auto& fr : trace.steps[0].functions) {
        if (fr.fn == sph::SphFunction::kGravity) {
            has_gravity = true;
            EXPECT_GT(fr.work.flops, 0.0);
        }
    }
    EXPECT_TRUE(has_gravity);
}

TEST(Workload, TurbulenceTraceExcludesGravity)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    for (const auto& fr : trace.steps[0].functions) {
        EXPECT_NE(fr.fn, sph::SphFunction::kGravity);
    }
}

TEST(Workload, WorkScaleRatio)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    EXPECT_NEAR(trace.work_scale(), 1e6 / 512.0, 1e-9);
}

TEST(Workload, FinalDiagnosticsReturned)
{
    sph::StepDiagnostics diag;
    record_trace(small_spec(WorkloadKind::kSubsonicTurbulence), &diag);
    EXPECT_GT(diag.e_total, 0.0);
    EXPECT_GT(diag.rho_mean, 0.5);
}

TEST(Workload, TotalFlopsPositive)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    EXPECT_GT(trace.total_flops(), 0.0);
}

TEST(Workload, DeterministicTraces)
{
    const auto a = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    const auto b = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    ASSERT_EQ(a.n_steps(), b.n_steps());
    for (int s = 0; s < a.n_steps(); ++s) {
        const auto& fa = a.steps[static_cast<std::size_t>(s)].functions;
        const auto& fb = b.steps[static_cast<std::size_t>(s)].functions;
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t f = 0; f < fa.size(); ++f) {
            EXPECT_EQ(fa[f].fn, fb[f].fn);
            EXPECT_DOUBLE_EQ(fa[f].work.flops, fb[f].work.flops);
            EXPECT_DOUBLE_EQ(fa[f].work.dram_bytes, fb[f].work.dram_bytes);
        }
    }
}

TEST(Workload, InvalidSpecsThrow)
{
    auto spec = small_spec(WorkloadKind::kSubsonicTurbulence);
    spec.n_steps = 0;
    EXPECT_THROW(record_trace(spec), std::invalid_argument);
    spec = small_spec(WorkloadKind::kSubsonicTurbulence);
    spec.particles_per_gpu = 0.0;
    EXPECT_THROW(record_trace(spec), std::invalid_argument);
}

TEST(Workload, MakeSimulationMatchesKind)
{
    auto turb = make_simulation(small_spec(WorkloadKind::kSubsonicTurbulence));
    EXPECT_FALSE(turb.config().gravity);
    auto evrard = make_simulation(small_spec(WorkloadKind::kEvrardCollapse));
    EXPECT_TRUE(evrard.config().gravity);
}


TEST(Workload, RecordsMeasuredHaloPrefactor)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    EXPECT_GT(trace.halo_surface_prefactor, 0.5);
    EXPECT_LT(trace.halo_surface_prefactor, 20.0);
}

TEST(Workload, SerializeParseRoundTrip)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    const auto parsed = WorkloadTrace::parse(trace.serialize());
    EXPECT_EQ(parsed.workload_name, trace.workload_name);
    EXPECT_DOUBLE_EQ(parsed.halo_surface_prefactor, trace.halo_surface_prefactor);
    EXPECT_EQ(parsed.kind, trace.kind);
    EXPECT_DOUBLE_EQ(parsed.n_particles_real, trace.n_particles_real);
    EXPECT_DOUBLE_EQ(parsed.particles_per_gpu, trace.particles_per_gpu);
    ASSERT_EQ(parsed.n_steps(), trace.n_steps());
    for (int s = 0; s < trace.n_steps(); ++s) {
        const auto& fa = trace.steps[static_cast<std::size_t>(s)].functions;
        const auto& fb = parsed.steps[static_cast<std::size_t>(s)].functions;
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t f = 0; f < fa.size(); ++f) {
            EXPECT_EQ(fa[f].fn, fb[f].fn);
            EXPECT_DOUBLE_EQ(fa[f].work.flops, fb[f].work.flops);
            EXPECT_DOUBLE_EQ(fa[f].work.dram_bytes, fb[f].work.dram_bytes);
            EXPECT_DOUBLE_EQ(fa[f].work.gather_fraction, fb[f].work.gather_fraction);
            EXPECT_EQ(fa[f].work.launches, fb[f].work.launches);
            EXPECT_EQ(fa[f].work.threads, fb[f].work.threads);
        }
    }
}

/// The ostringstream serializer WorkloadTrace::serialize replaced: the
/// byte-for-byte reference for its text.
std::string reference_serialize(const WorkloadTrace& trace)
{
    std::ostringstream os;
    os.precision(17);
    os << "# greensph workload trace v1\n"
       << "workload," << trace.workload_name << '\n'
       << "kind," << static_cast<int>(trace.kind) << '\n'
       << "n_particles_real," << trace.n_particles_real << '\n'
       << "particles_per_gpu," << trace.particles_per_gpu << '\n'
       << "halo_surface_prefactor," << trace.halo_surface_prefactor << '\n'
       << "step,function,flops,dram_bytes,gather_fraction,flop_efficiency,launches,"
          "threads\n";
    for (std::size_t s = 0; s < trace.steps.size(); ++s) {
        for (const auto& fr : trace.steps[s].functions) {
            os << s << ',' << static_cast<int>(fr.fn) << ',' << fr.work.flops << ','
               << fr.work.dram_bytes << ',' << fr.work.gather_fraction << ','
               << fr.work.flop_efficiency << ',' << fr.work.launches << ','
               << fr.work.threads << '\n';
        }
    }
    return os.str();
}

TEST(Workload, SerializeMatchesOstreamReference)
{
    for (const WorkloadKind kind : {WorkloadKind::kSubsonicTurbulence,
                                    WorkloadKind::kEvrardCollapse,
                                    WorkloadKind::kSedovBlast}) {
        const auto trace = record_trace(small_spec(kind));
        EXPECT_EQ(trace.serialize(), reference_serialize(trace)) << to_string(kind);
    }

    // Random doubles drawn to hit the formatting edges: subnormals, -0.0,
    // integral values from 1e15 up past 1e17 (where %.17g switches to
    // exponent form), tiny and huge magnitudes, and int64 counts near their
    // limits.
    std::mt19937_64 rng(20241017);
    auto any_double = [&rng]() {
        switch (rng() % 8) {
            case 0: return std::numeric_limits<double>::denorm_min() *
                           static_cast<double>(rng() % 1000000 + 1);
            case 1: return -0.0;
            case 2: return 1e15 + static_cast<double>(rng() % (1ULL << 40));
            case 3: return static_cast<double>(rng() % 100000) * 1e15;
            case 4: return std::ldexp(static_cast<double>(rng() >> 11) / 9007199254740992.0,
                                      static_cast<int>(rng() % 2000) - 1000);
            case 5: return -std::ldexp(static_cast<double>(rng() >> 11), -53);
            case 6: return static_cast<double>(rng() % 1000);
            default: return std::bit_cast<double>(rng() & 0x7fefffffffffffffULL);
        }
    };
    auto any_count = [&rng]() -> std::int64_t {
        switch (rng() % 4) {
            case 0: return std::numeric_limits<std::int64_t>::max() -
                           static_cast<std::int64_t>(rng() % 1000);
            case 1: return std::numeric_limits<std::int64_t>::min() +
                           static_cast<std::int64_t>(rng() % 1000);
            case 2: return static_cast<std::int64_t>(rng());
            default: return static_cast<std::int64_t>(rng() % 100000);
        }
    };
    for (int round = 0; round < 50; ++round) {
        WorkloadTrace trace;
        trace.workload_name = "Random" + std::to_string(round);
        trace.kind = static_cast<WorkloadKind>(round % 3);
        trace.n_particles_real = any_double();
        trace.particles_per_gpu = any_double();
        trace.halo_surface_prefactor = any_double();
        trace.steps.resize(static_cast<std::size_t>(rng() % 4 + 1));
        for (auto& step : trace.steps) {
            for (int f = 0; f < sph::kSphFunctionCount; ++f) {
                FunctionRecord fr;
                fr.fn = static_cast<sph::SphFunction>(f);
                fr.work.flops = any_double();
                fr.work.dram_bytes = any_double();
                fr.work.gather_fraction = any_double();
                fr.work.flop_efficiency = any_double();
                fr.work.launches = any_count();
                fr.work.threads = any_count();
                step.functions.push_back(fr);
            }
        }
        ASSERT_EQ(trace.serialize(), reference_serialize(trace)) << "round " << round;
    }
}

TEST(Workload, ParsedTraceReplaysIdentically)
{
    const auto trace = record_trace(small_spec(WorkloadKind::kSubsonicTurbulence));
    const auto parsed = WorkloadTrace::parse(trace.serialize());
    RunConfig cfg;
    cfg.n_ranks = 2;
    cfg.setup_s = 2.0;
    const auto a = run_instrumented(mini_hpc(), trace, cfg);
    const auto b = run_instrumented(mini_hpc(), parsed, cfg);
    EXPECT_DOUBLE_EQ(a.gpu_energy_j, b.gpu_energy_j);
    EXPECT_DOUBLE_EQ(a.makespan_s(), b.makespan_s());
}

TEST(Workload, ParseRejectsGarbage)
{
    EXPECT_THROW(WorkloadTrace::parse(""), std::invalid_argument);
    EXPECT_THROW(WorkloadTrace::parse("not a trace"), std::invalid_argument);
    EXPECT_THROW(WorkloadTrace::parse("# greensph workload trace v1\nbogus,x\n"),
                 std::invalid_argument);
}

// A syntactically valid one-row trace the corruption tests below mutate.
std::string valid_trace_text(const std::string& kind = "0",
                             const std::string& row = "0,1,1e9,1e8,0.1,0.5,10,1000")
{
    return "# greensph workload trace v1\n"
           "workload,SubsonicTurbulence\n"
           "kind," + kind + "\n"
           "n_particles_real,512\n"
           "particles_per_gpu,1000000\n"
           "halo_surface_prefactor,1.5\n"
           "step,function,flops,dram_bytes,gather_fraction,flop_efficiency,launches,"
           "threads\n" + row + "\n";
}

TEST(Workload, ParseAcceptsValidFixture)
{
    const auto trace = WorkloadTrace::parse(valid_trace_text());
    EXPECT_EQ(trace.n_steps(), 1);
    EXPECT_EQ(trace.kind, WorkloadKind::kSubsonicTurbulence);
    ASSERT_EQ(trace.steps[0].functions.size(), 1u);
    EXPECT_DOUBLE_EQ(trace.steps[0].functions[0].work.flops, 1e9);
}

TEST(Workload, ParseRejectsOutOfRangeKind)
{
    // kind is an enum with three values; 7 (or a negative id) must not be
    // blindly cast into WorkloadKind.
    EXPECT_THROW(WorkloadTrace::parse(valid_trace_text("7")), std::invalid_argument);
    EXPECT_THROW(WorkloadTrace::parse(valid_trace_text("-1")), std::invalid_argument);
    try {
        WorkloadTrace::parse(valid_trace_text("notanumber"));
        FAIL() << "expected std::invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        // Line-numbered message naming the field, not a bare stoi error.
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos) << e.what();
    }
}

TEST(Workload, ParseRejectsHugeStepIndexWithoutAllocating)
{
    // A single corrupt index used to drive steps.resize(4000000001):
    // a multi-gigabyte allocation from a one-line trace.
    EXPECT_THROW(
        WorkloadTrace::parse(valid_trace_text("0", "4000000000,1,1e9,1e8,0.1,0.5,10,1000")),
        std::invalid_argument);
}

TEST(Workload, ParseRejectsNonContiguousStepIndex)
{
    const std::string rows = "0,1,1e9,1e8,0.1,0.5,10,1000\n"
                             "2,1,1e9,1e8,0.1,0.5,10,1000";
    EXPECT_THROW(WorkloadTrace::parse(valid_trace_text("0", rows)),
                 std::invalid_argument);
    // step 1 directly after step 0 is fine.
    const std::string ok = "0,1,1e9,1e8,0.1,0.5,10,1000\n"
                           "1,2,1e9,1e8,0.1,0.5,10,1000";
    EXPECT_EQ(WorkloadTrace::parse(valid_trace_text("0", ok)).n_steps(), 2);
}

TEST(Workload, ParseReportsLineNumberForBadNumericField)
{
    try {
        WorkloadTrace::parse(valid_trace_text("0", "0,1,xyz,1e8,0.1,0.5,10,1000"));
        FAIL() << "expected std::invalid_argument";
    }
    catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 8"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("flops"), std::string::npos) << e.what();
    }
    // Trailing junk after a number is rejected, not silently truncated.
    EXPECT_THROW(
        WorkloadTrace::parse(valid_trace_text("0", "0,1,1e9junk,1e8,0.1,0.5,10,1000")),
        std::invalid_argument);
}


TEST(Workload, SedovTraceRecordsAndRuns)
{
    auto spec = small_spec(WorkloadKind::kSedovBlast);
    spec.real_nside = 10;
    const auto trace = record_trace(spec);
    EXPECT_EQ(trace.workload_name, "SedovBlast");
    for (const auto& fr : trace.steps[0].functions) {
        EXPECT_NE(fr.fn, sph::SphFunction::kGravity); // no gravity in Sedov
    }
    RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.setup_s = 2.0;
    const auto r = run_instrumented(mini_hpc(), trace, cfg);
    EXPECT_GT(r.gpu_energy_j, 0.0);
}

} // namespace
} // namespace gsph::sim


