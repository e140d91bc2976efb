#include "pmcounters/pm_counters.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gsph::pmcounters {
namespace {

class PmFixture : public ::testing::Test {
protected:
    PmFixture() : cpu_(cpusim::epyc_7113())
    {
        for (int i = 0; i < 4; ++i) {
            gpus_.push_back(
                std::make_unique<gpusim::GpuDevice>(gpusim::a100_sxm4_80g(), i));
        }
    }

    std::vector<gpusim::GpuDevice*> gpu_ptrs()
    {
        std::vector<gpusim::GpuDevice*> out;
        for (auto& g : gpus_) out.push_back(g.get());
        return out;
    }

    void advance_all(double dt)
    {
        cpu_.advance(dt);
        for (auto& g : gpus_) g->idle(dt);
    }

    cpusim::CpuDevice cpu_;
    std::vector<std::unique_ptr<gpusim::GpuDevice>> gpus_;
};

TEST_F(PmFixture, FileListContainsCrayNames)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    const auto files = pm.list_files();
    auto has = [&](const std::string& name) {
        return std::find(files.begin(), files.end(), name) != files.end();
    };
    EXPECT_TRUE(has("energy"));
    EXPECT_TRUE(has("power"));
    EXPECT_TRUE(has("cpu_energy"));
    EXPECT_TRUE(has("memory_energy"));
    EXPECT_TRUE(has("accel0_energy"));
    EXPECT_TRUE(has("accel3_power"));
    EXPECT_TRUE(has("freshness"));
}

TEST_F(PmFixture, TenHertzQuantization)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(0.05); // below one tick
    pm.sample_to(0.05);
    EXPECT_DOUBLE_EQ(pm.node_energy_j(), 0.0); // not refreshed yet
    advance_all(0.06);
    pm.sample_to(0.11); // crosses the 0.1 s tick
    EXPECT_GT(pm.node_energy_j(), 0.0);
    EXPECT_EQ(pm.freshness(), 1);
}

TEST_F(PmFixture, NodeEnergyIsSumOfComponentsPlusAux)
{
    PmCountersConfig cfg;
    cfg.aux_power_w = 100.0;
    PmCounters pm(cfg, &cpu_, gpu_ptrs());
    advance_all(10.0);
    pm.sample_to(10.0);
    double accel = 0.0;
    for (int i = 0; i < pm.accel_file_count(); ++i) accel += pm.accel_energy_j(i);
    const double expected =
        cpu_.package_energy_j() + cpu_.dram_energy_j() + accel + 100.0 * 10.0;
    EXPECT_NEAR(pm.node_energy_j(), expected, 1e-6);
}

TEST_F(PmFixture, OtherEnergyEqualsAux)
{
    PmCountersConfig cfg;
    cfg.aux_power_w = 50.0;
    PmCounters pm(cfg, &cpu_, gpu_ptrs());
    advance_all(4.0);
    pm.sample_to(4.0);
    EXPECT_NEAR(pm.other_energy_j(), 200.0, 1e-6);
}

TEST_F(PmFixture, GcdAliasingAggregatesPairs)
{
    // LUMI-G: two GCDs per accel file.
    PmCountersConfig cfg;
    cfg.gcds_per_accel_file = 2;
    PmCounters pm(cfg, &cpu_, gpu_ptrs());
    EXPECT_EQ(pm.accel_file_count(), 2);
    advance_all(2.0);
    pm.sample_to(2.0);
    EXPECT_NEAR(pm.accel_energy_j(0), gpus_[0]->energy_j() + gpus_[1]->energy_j(), 1e-9);
    EXPECT_NEAR(pm.accel_energy_j(1), gpus_[2]->energy_j() + gpus_[3]->energy_j(), 1e-9);
}

TEST_F(PmFixture, IndivisibleGcdConfigThrows)
{
    PmCountersConfig cfg;
    cfg.gcds_per_accel_file = 3; // 4 GPUs not divisible
    EXPECT_THROW(PmCounters(cfg, &cpu_, gpu_ptrs()), std::invalid_argument);
}

TEST_F(PmFixture, ReadFileFormats)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(1.0);
    pm.sample_to(1.0);
    const auto energy = pm.read_file("energy");
    ASSERT_TRUE(energy.has_value());
    EXPECT_NE(energy->find(" J"), std::string::npos);
    const auto power = pm.read_file("accel0_power");
    ASSERT_TRUE(power.has_value());
    EXPECT_NE(power->find(" W"), std::string::npos);
    EXPECT_TRUE(pm.read_file("raw_scan_hz").has_value());
}

TEST_F(PmFixture, ReadUnknownFileIsNull)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    EXPECT_FALSE(pm.read_file("nonsense").has_value());
    EXPECT_FALSE(pm.read_file("accel9_energy").has_value());
    EXPECT_FALSE(pm.read_file("accelx").has_value());
}

TEST_F(PmFixture, PowerComputedFromWindowDelta)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(1.0);
    pm.sample_to(1.0);
    const double e1 = pm.node_energy_j();
    advance_all(1.0);
    pm.sample_to(2.0);
    const double e2 = pm.node_energy_j();
    EXPECT_NEAR(pm.node_power_w(), (e2 - e1) / 1.0, 1e-6);
}

TEST_F(PmFixture, TimeBackwardsThrows)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(1.0);
    pm.sample_to(1.0);
    EXPECT_THROW(pm.sample_to(0.5), std::invalid_argument);
}

TEST_F(PmFixture, FreshnessCountsTicks)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(1.0);
    pm.sample_to(1.0);
    const long f1 = pm.freshness();
    advance_all(1.0);
    pm.sample_to(2.0);
    EXPECT_EQ(pm.freshness(), f1 + 1);
}

TEST_F(PmFixture, NullCpuThrows)
{
    EXPECT_THROW(PmCounters({}, nullptr, gpu_ptrs()), std::invalid_argument);
}

TEST_F(PmFixture, AccelIndexOutOfRangeThrows)
{
    PmCounters pm({}, &cpu_, gpu_ptrs());
    EXPECT_THROW(pm.accel_energy_j(4), std::out_of_range);
    EXPECT_THROW(pm.accel_energy_j(-1), std::out_of_range);
}

TEST_F(PmFixture, StalenessBoundedByPeriod)
{
    // A read between ticks returns the last published value: energy lag is
    // bounded by the aggregate node power times the 0.1 s period.
    PmCounters pm({}, &cpu_, gpu_ptrs());
    advance_all(1.0);
    pm.sample_to(1.0);
    const double published = pm.node_energy_j();
    advance_all(0.09);
    pm.sample_to(1.09); // no tick crossed
    EXPECT_DOUBLE_EQ(pm.node_energy_j(), published);
}

/// A pm_counters checkpoint section holding the given accelerator vectors.
std::string section_with(const std::vector<double>& accel_j,
                         const std::vector<double>& accel_w)
{
    checkpoint::StateWriter w;
    w.put_f64("next_tick", 0.2);
    w.put_f64("published.time", 0.1);
    w.put_f64("published.node_j", 60.0);
    w.put_f64("published.cpu_j", 10.0);
    w.put_f64("published.mem_j", 5.0);
    w.put_f64_vec("published.accel_j", accel_j);
    w.put_f64("published.node_w", 600.0);
    w.put_f64("published.cpu_w", 100.0);
    w.put_f64("published.mem_w", 50.0);
    w.put_f64_vec("published.accel_w", accel_w);
    w.put_i64("published.freshness", 1);
    return w.take();
}

/// The CheckpointError message restoring `payload` raises, or "" if none.
std::string restore_error(PmCounters& pm, const std::string& payload)
{
    try {
        pm.restore_state(checkpoint::StateReader("pmcounters.0", payload));
    }
    catch (const checkpoint::CheckpointError& e) {
        return e.what();
    }
    return "";
}

TEST_F(PmFixture, RestoreRejectsAccelEnergiesNotOnePerFile)
{
    // Sampling overwrites the published per-file vectors in place.
    PmCounters pm({}, &cpu_, gpu_ptrs()); // 4 files
    for (const std::size_t n : {0, 3, 5}) {
        const std::string error =
            restore_error(pm, section_with(std::vector<double>(n, 1.0), {}));
        EXPECT_NE(error.find("published.accel_j"), std::string::npos)
            << n << " entries: '" << error << "'";
    }
    EXPECT_EQ(restore_error(pm, section_with(std::vector<double>(4, 1.0), {})), "");
}

TEST_F(PmFixture, RestoreRejectsAccelPowersNeitherEmptyNorOnePerFile)
{
    PmCounters pm({}, &cpu_, gpu_ptrs()); // 4 files
    const std::vector<double> energies(4, 1.0);
    for (const std::size_t n : {1, 3, 5}) {
        const std::string error =
            restore_error(pm, section_with(energies, std::vector<double>(n, 2.0)));
        EXPECT_NE(error.find("published.accel_w"), std::string::npos)
            << n << " entries: '" << error << "'";
    }
    // Empty: the published window had no length, so it carries no powers.
    EXPECT_EQ(restore_error(pm, section_with(energies, {})), "");
    EXPECT_EQ(restore_error(pm, section_with(energies, std::vector<double>(4, 2.0))), "");
}

TEST_F(PmFixture, RestoredCountersPublishWhatTheOriginalPublishes)
{
    PmCountersConfig config;
    config.gcds_per_accel_file = 2;
    config.counter_wrap_j = 5000.0;
    PmCounters original(config, &cpu_, gpu_ptrs());
    cpu_.advance(0.25);
    for (int g = 0; g < 4; ++g) gpus_[static_cast<std::size_t>(g)]->idle(0.25 * (g + 1));
    original.sample_to(0.25);
    checkpoint::StateWriter writer;
    original.save_state(writer);

    PmCounters restored(config, &cpu_, gpu_ptrs());
    restored.restore_state(checkpoint::StateReader("pmcounters.0", writer.take()));
    for (int tick = 0; tick < 30; ++tick) {
        advance_all(0.15);
        const double now = 0.25 + 0.15 * (tick + 1);
        original.sample_to(now);
        restored.sample_to(now);
        for (const std::string& file : original.list_files()) {
            EXPECT_EQ(restored.read_file(file), original.read_file(file)) << file;
        }
        EXPECT_EQ(restored.node_energy_j(), original.node_energy_j());
        EXPECT_EQ(restored.node_power_w(), original.node_power_w());
        EXPECT_EQ(restored.accel_energy_j(1), original.accel_energy_j(1));
        EXPECT_EQ(restored.other_energy_j(), original.other_energy_j());
        EXPECT_EQ(restored.freshness(), original.freshness());
    }
}

// ------------------------------------------------- tick skip vs. the loop

/// The tick loop sample_to ran before it skipped a binade at a time, kept as
/// the reference.  Where a step no longer moves the tick that loop spun
/// forever; the reference throws there instead, as next_tick_after does.
double loop_next_tick(double tick, double period, double limit)
{
    while (tick <= limit) {
        const double next = tick + period;
        if (next == tick) throw std::runtime_error("stalled");
        tick = next;
    }
    return tick;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// next_tick_after against the loop on one case: the same bits, or both
/// throw.  Returns the loop's tick, or nullopt where it stalled.
std::optional<double> expect_matches_loop(double tick, double period, double limit)
{
    std::optional<double> want;
    try {
        want = loop_next_tick(tick, period, limit);
    }
    catch (const std::runtime_error&) {
    }
    std::optional<double> got;
    try {
        got = next_tick_after(tick, period, limit);
    }
    catch (const std::runtime_error&) {
    }
    EXPECT_EQ(got.has_value(), want.has_value())
        << std::hexfloat << "tick " << tick << " period " << period << " limit " << limit;
    if (got && want) {
        EXPECT_EQ(bits(*got), bits(*want))
            << std::hexfloat << "tick " << tick << " period " << period << " limit " << limit
            << ": got " << *got << ", loop " << *want;
    }
    return want;
}

constexpr std::array<double, 6> kSampleRates = {10.0, 3.0, 7.0, 60.0, 1000.0, 0.4};

/// Random walks of node time at each sampling rate: gaps log-uniform from
/// 1 ms to 10^4 s, each walk starting at its own offset so that ticks from
/// 0.1 s to about 10^7 s are covered.
TEST(NextTickAfter, MatchesTheLoopOnRandomWalks)
{
    util::Rng rng(0x71c5);
    for (const double hz : kSampleRates) {
        const double period = 1.0 / hz;
        for (int walk = 0; walk < 5; ++walk) {
            // Starting offsets at most 10^6 ticks in: the loop walks there.
            double now = walk == 0 ? 0.0 : std::exp(rng.uniform(0.0, std::log(1e6 / hz)));
            double tick = loop_next_tick(period, period, now + 1e-12);
            for (int step = 0; step < 20; ++step) {
                now += std::exp(rng.uniform(std::log(1e-3), std::log(1e4)));
                const std::optional<double> next = expect_matches_loop(tick, period, now + 1e-12);
                ASSERT_TRUE(next.has_value());
                tick = *next;
            }
        }
    }
}

/// Limits at and around binade edges 2^k: a fraction of a period and one ulp
/// either side, from ticks a few periods below the edge (each parity of the
/// grid position), at every sampling rate, up to where a period no longer
/// moves the tick.
TEST(NextTickAfter, MatchesTheLoopAtBinadeEdges)
{
    int stalled = 0;
    int cases = 0;
    for (const double hz : kSampleRates) {
        const double period = 1.0 / hz;
        for (int k = -6; k <= 56; ++k) {
            const double edge = std::ldexp(1.0, k);
            const std::array<double, 9> limits = {
                edge - 0.75 * period, edge - 0.5 * period,
                std::nextafter(edge, 0.0), edge,
                std::nextafter(edge, std::numeric_limits<double>::infinity()),
                edge + 0.25 * period, edge + 0.5 * period, edge + 1.5 * period,
                edge + 40.0 * period};
            for (const int below : {1, 2, 3, 5, 8, 12}) {
                for (const double nudge : {0.0, 0.3, 0.5}) {
                    double start = edge - (below + nudge) * period;
                    if (!(start > 0.0)) start = period * (1.0 + nudge);
                    for (const double limit : limits) {
                        for (const double from : {start, std::nextafter(start, 0.0)}) {
                            stalled += !expect_matches_loop(from, period, limit).has_value();
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    // The top edges stall at every rate: both sides of the comparison ran
    // there.
    EXPECT_GT(stalled, 0);
    EXPECT_LT(stalled, cases);
}

/// Round-half-even ties: a period of (2m + 1) half-ulps of the tick's
/// binade.  The first step from a tick at an odd grid position differs from
/// the steps after it, so a skip that does not wait for the tie to settle
/// goes astray.
TEST(NextTickAfter, MatchesTheLoopOnRoundHalfEvenTies)
{
    for (const int e : {-3, 0, 5, 20, 33}) {
        const double low = std::ldexp(1.0, e);
        const double u = std::ldexp(1.0, e - 52);
        for (const double m : {1.0, 2.0, 3.0, 7.0, 1000.0, 12345.0}) {
            const double period = (2.0 * m + 1.0) * u / 2.0;
            for (const double start_ulps : {0.0, 1.0, 2.0, 3.0, 1001.0}) {
                const double start = low + start_ulps * u;
                for (const double steps : {1.0, 2.0, 3.0, 5.0, 64.0, 700.0}) {
                    expect_matches_loop(start, period, start + steps * period);
                }
                // Through the top of the binade into the next one.
                const double near_top = 2.0 * low - 50.0 * period - start_ulps * u;
                for (const double steps : {45.0, 49.0, 50.0, 51.0, 55.0, 120.0}) {
                    expect_matches_loop(near_top, period, near_top + steps * period);
                }
            }
        }
        // Half an ulp exactly: ties to even, so the tick moves at most once.
        EXPECT_THROW(next_tick_after(low + u, u / 2.0, low + 4.0 * u), std::runtime_error);
    }
}

/// Anywhere on the positive range: ticks from 2^-20 to 2^60, periods from
/// 10^-6 to 10^4 s, limits up to 3,000 periods ahead.
TEST(NextTickAfter, MatchesTheLoopOnRandomTicksAndPeriods)
{
    util::Rng rng(0xb1a5e);
    int stalled = 0;
    constexpr int kCases = 20'000;
    for (int c = 0; c < kCases; ++c) {
        const double tick = std::exp2(rng.uniform(-20.0, 60.0));
        const double period = std::exp(rng.uniform(std::log(1e-6), std::log(1e4)));
        const double ahead = rng.uniform() < 0.2 ? rng.uniform(-2.0, 2.0)
                                                 : std::exp(rng.uniform(0.0, std::log(3000.0)));
        stalled += !expect_matches_loop(tick, period, tick + ahead * period).has_value();
    }
    EXPECT_GT(stalled, 0);
    EXPECT_LT(stalled, kCases / 2);
}

TEST(NextTickAfter, AStepThatNoLongerMovesTheTickThrows)
{
    // 2^53 + 0.1 rounds back to 2^53.
    EXPECT_THROW(next_tick_after(0x1p53, 0.1, 0x1p53 + 10.0), std::runtime_error);
    // A zero period stalls at once; an infinite limit stalls where the
    // period falls under half an ulp of the tick.
    EXPECT_THROW(next_tick_after(0.0, 0.0, 1.0), std::runtime_error);
    EXPECT_THROW(next_tick_after(0.1, 0.1, std::numeric_limits<double>::infinity()),
                 std::runtime_error);
    // Nothing to step: the tick comes back as it is.
    EXPECT_EQ(next_tick_after(0x1p53, 0.1, 1.0), 0x1p53);
    EXPECT_EQ(next_tick_after(5.0, 0.1, std::nan("")), 5.0);
}

/// The published surface over random walks: freshness, sample time, node
/// energy and power move exactly when the loop would have ticked, and the
/// checkpointed next tick is the loop's, bit for bit.
TEST(PmCounters, SampleToMatchesTheLoopOnRandomWalks)
{
    util::Rng rng(0x5a3f);
    for (const double hz : kSampleRates) {
        cpusim::CpuDevice cpu(cpusim::epyc_7113());
        std::vector<std::unique_ptr<gpusim::GpuDevice>> gpus;
        std::vector<gpusim::GpuDevice*> gpu_ptrs;
        for (int g = 0; g < 4; ++g) {
            gpus.push_back(std::make_unique<gpusim::GpuDevice>(gpusim::a100_sxm4_80g(), g));
            gpu_ptrs.push_back(gpus.back().get());
        }
        PmCountersConfig config;
        config.sample_hz = hz;
        PmCounters pm(config, &cpu, gpu_ptrs);
        const double period = 1.0 / config.sample_hz;
        double tick = period;
        for (int step = 0; step < 30; ++step) {
            const double gap = std::exp(rng.uniform(std::log(1e-3), std::log(1e4)));
            cpu.advance(gap);
            for (auto& g : gpus) g->idle(gap);
            const double now = cpu.now();
            const long freshness = pm.freshness();
            const double time = pm.last_sample_time();
            const double node_j = pm.node_energy_j();
            const double node_w = pm.node_power_w();

            const bool ticks = tick <= now + 1e-12;
            tick = loop_next_tick(tick, period, now + 1e-12);
            pm.sample_to(now);

            checkpoint::StateWriter writer;
            pm.save_state(writer);
            const checkpoint::StateReader saved("pmcounters.0", writer.take());
            EXPECT_EQ(bits(saved.get_f64("next_tick")), bits(tick)) << hz << " Hz, t " << now;
            if (ticks) {
                double accel = 0.0;
                for (const auto& g : gpus) accel += g->energy_j();
                const double expected_j = cpu.package_energy_j() + cpu.dram_energy_j() +
                                          accel + config.aux_power_w * now;
                EXPECT_EQ(pm.freshness(), freshness + 1);
                EXPECT_EQ(pm.last_sample_time(), now);
                EXPECT_EQ(pm.node_energy_j(), expected_j);
                EXPECT_EQ(pm.node_power_w(), (expected_j - node_j) / (now - time));
            }
            else {
                EXPECT_EQ(pm.freshness(), freshness);
                EXPECT_EQ(pm.last_sample_time(), time);
                EXPECT_EQ(pm.node_energy_j(), node_j);
                EXPECT_EQ(pm.node_power_w(), node_w);
            }
        }
    }
}

TEST_F(PmFixture, SamplingPeriodBelowTheTicksResolutionThrowsAndKeepsTheState)
{
    for (const double hz : {1e20, std::numeric_limits<double>::infinity()}) {
        PmCountersConfig config;
        config.sample_hz = hz;
        PmCounters pm(config, &cpu_, gpu_ptrs());
        checkpoint::StateWriter before;
        pm.save_state(before);
        EXPECT_THROW(pm.sample_to(1.0), std::runtime_error) << hz;
        checkpoint::StateWriter after;
        pm.save_state(after);
        EXPECT_EQ(after.take(), before.take()) << hz;
    }
}

} // namespace
} // namespace gsph::pmcounters
