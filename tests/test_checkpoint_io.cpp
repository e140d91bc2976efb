/// CheckpointWriter / read_latest: crash-consistent commit protocol,
/// pruning, and the full menu of rejection paths — every torn, corrupted or
/// mismatched checkpoint must fail loudly with the offending file/section
/// named, never resume silently wrong.

#include "checkpoint/checkpoint.hpp"

#include "telemetry/json.hpp"
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gsph::checkpoint {
namespace {

class TempDir {
public:
    TempDir()
    {
        char pattern[] = "/tmp/gsph_ckpt_XXXXXX";
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

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<Section> sample_sections()
{
    StateWriter a;
    a.put_i64("step", 4);
    a.put_f64("energy", 123.456);
    StateWriter b;
    b.put_str("name", "rank 0");
    return {{"driver", a.str()}, {"gpu.0", b.str()}};
}

TEST(CheckpointIo, WriteReadRoundTrip)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "cafef00dcafef00d");
    writer.write(4, sample_sections());
    EXPECT_EQ(writer.checkpoints_written(), 1);

    const Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(snap.step, 4);
    EXPECT_EQ(snap.config_hash, "cafef00dcafef00d");
    ASSERT_EQ(snap.sections.size(), 2u);
    EXPECT_EQ(snap.reader("driver").get_i64("step"), 4);
    EXPECT_EQ(snap.reader("gpu.0").get_str("name"), "rank 0");
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_THROW(snap.reader("nope"), CheckpointError);
}

TEST(CheckpointIo, LatestWinsAndOldDataFilesArePruned)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h", /*keep_last=*/2);
    for (int step = 2; step <= 8; step += 2) {
        StateWriter w;
        w.put_i64("step", step);
        writer.write(step, {{"driver", w.str()}});
    }
    const Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(snap.step, 8);
    // keep_last=2: only the two newest data files survive the last commit.
    EXPECT_TRUE(slurp(dir.path() + "/checkpoint-000002.gsc").empty());
    EXPECT_TRUE(slurp(dir.path() + "/checkpoint-000004.gsc").empty());
    EXPECT_FALSE(slurp(dir.path() + "/checkpoint-000006.gsc").empty());
    EXPECT_FALSE(slurp(dir.path() + "/checkpoint-000008.gsc").empty());
}

TEST(CheckpointIo, PruningOrdersDataFilesByStepPastSixDigits)
{
    // Names pad steps to six digits only, so checkpoint-1000000.gsc sorts
    // before checkpoint-999999.gsc as text; pruning must go by step.
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h", /*keep_last=*/2);
    for (int step = 999998; step <= 1000002; ++step) {
        StateWriter w;
        w.put_i64("step", step);
        writer.write(step, {{"driver", w.take()}});
    }
    std::vector<std::string> kept;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        const std::string name = entry.path().filename().string();
        if (name != kManifestName) kept.push_back(name);
    }
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(kept, (std::vector<std::string>{"checkpoint-1000001.gsc",
                                              "checkpoint-1000002.gsc"}));
    EXPECT_EQ(read_latest(dir.path()).step, 1000002);
}

TEST(CheckpointIo, MissingDirectoryOrManifestRejected)
{
    EXPECT_THROW(read_latest("/nonexistent/gsph_dir"), CheckpointError);
    TempDir dir;
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
}

TEST(CheckpointIo, CorruptedSectionNamedInError)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    const std::string data_path = writer.write(4, sample_sections());

    std::string data = slurp(data_path);
    // Flip a payload byte in the gpu.0 section without changing the length.
    const auto pos = data.rfind("rank 0");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'R';
    ASSERT_TRUE(util::atomic_write_file(data_path, data));

    try {
        read_latest(dir.path());
        FAIL() << "expected CheckpointError";
    }
    catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("CRC"), std::string::npos) << what;
        EXPECT_NE(what.find("gpu.0"), std::string::npos) << what;
    }
}

TEST(CheckpointIo, TruncatedDataFileRejected)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    const std::string data_path = writer.write(4, sample_sections());
    const std::string data = slurp(data_path);
    ASSERT_TRUE(util::atomic_write_file(data_path, data.substr(0, data.size() / 2)));
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
}

TEST(CheckpointIo, VersionSkewRejected)
{
    // Both directions: a newer writer's layout, and the previous version's
    // (whose run config hash still covered the thread count).
    for (const int version : {kFormatVersion - 1, kFormatVersion + 1}) {
        TempDir dir;
        CheckpointWriter writer(dir.path(), "h");
        writer.write(4, sample_sections());

        const std::string manifest_path = dir.path() + "/" + kManifestName;
        telemetry::Json manifest = telemetry::Json::parse(slurp(manifest_path));
        manifest["format_version"] = version;
        ASSERT_TRUE(util::atomic_write_file(manifest_path, manifest.dump(2) + "\n"));

        try {
            read_latest(dir.path());
            FAIL() << "expected CheckpointError for version " << version;
        }
        catch (const CheckpointError& e) {
            EXPECT_NE(std::string(e.what()).find("format version " +
                                                 std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CheckpointIo, ForeignSchemaRejected)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(4, sample_sections());

    const std::string manifest_path = dir.path() + "/" + kManifestName;
    telemetry::Json manifest = telemetry::Json::parse(slurp(manifest_path));
    manifest["schema"] = "someone-else/v9";
    ASSERT_TRUE(util::atomic_write_file(manifest_path, manifest.dump(2) + "\n"));
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
}

TEST(CheckpointIo, InterruptedRewriteLeavesPreviousCheckpointValid)
{
    // The crash-consistency contract: a kill between the data-file rename
    // and the manifest rename leaves the old manifest pointing at the old,
    // intact data file.  Simulate by writing step 2, then placing a bogus
    // step-4 data file with no manifest update.
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(2, sample_sections());
    ASSERT_TRUE(util::atomic_write_file(dir.path() + "/checkpoint-000004.gsc",
                                        "greensph-checkpoint 1\ngarbage"));
    const Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(snap.step, 2);
}

TEST(CheckpointIo, StateRegistrySaveRestoreAndMissingSection)
{
    int restored = 0;
    StateRegistry registry;
    registry.add(
        "alpha", [](StateWriter& w) { w.put_i64("v", 7); },
        [&](const StateReader& r) { restored = static_cast<int>(r.get_i64("v")); });

    Snapshot snap;
    snap.sections = registry.save_all();
    ASSERT_EQ(snap.sections.size(), 1u);
    EXPECT_EQ(snap.sections[0].name, "alpha");
    registry.restore_all(snap);
    EXPECT_EQ(restored, 7);

    // An optional participant (observer attached only on the resumed run)
    // tolerates a missing section; a required one does not.
    bool optional_restored = false;
    registry.add(
        "gamma", [](StateWriter&) {},
        [&](const StateReader&) { optional_restored = true; }, /*optional=*/true);
    registry.restore_all(snap);
    EXPECT_FALSE(optional_restored);

    registry.add("beta", [](StateWriter&) {}, [](const StateReader&) {});
    try {
        registry.restore_all(snap); // beta absent from the snapshot
        FAIL() << "expected CheckpointError";
    }
    catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("beta"), std::string::npos) << e.what();
    }
}

} // namespace
} // namespace gsph::checkpoint
