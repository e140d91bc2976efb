#include "pmcounters/pm_counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
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

} // namespace
} // namespace gsph::pmcounters
