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

#include <unistd.h>

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
    // The writer's files carry its generation, 1 in an empty directory.
    EXPECT_TRUE(slurp(dir.path() + "/checkpoint-1-000002.gsc").empty());
    EXPECT_TRUE(slurp(dir.path() + "/checkpoint-1-000004.gsc").empty());
    EXPECT_FALSE(slurp(dir.path() + "/checkpoint-1-000006.gsc").empty());
    EXPECT_FALSE(slurp(dir.path() + "/checkpoint-1-000008.gsc").empty());
    EXPECT_FALSE(slurp(dir.path() + "/log-1.gsl").empty());
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
    EXPECT_EQ(kept, (std::vector<std::string>{"checkpoint-1-1000001.gsc",
                                              "checkpoint-1-1000002.gsc", "log-1.gsl"}));
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

/// `key` of the manifest (or of its first section entry) set to `value`.
void set_manifest_number(const std::string& dir, const std::string& key,
                         const telemetry::Json& value)
{
    const std::string path = dir + "/" + kManifestName;
    telemetry::Json manifest = telemetry::Json::parse(slurp(path));
    if (key == "bytes") {
        telemetry::Json sections = telemetry::Json::array();
        for (const telemetry::Json& entry : manifest.at("sections").items()) {
            telemetry::Json copy = entry;
            if (sections.size() == 0) copy["bytes"] = value;
            sections.push_back(std::move(copy));
        }
        manifest["sections"] = std::move(sections);
    }
    else {
        manifest[key] = value;
    }
    ASSERT_TRUE(util::atomic_write_file(path, manifest.dump(2) + "\n"));
}

TEST(CheckpointIo, ManifestNumbersMustBeIntegralAndInRange)
{
    // Each would be cast from double unchecked: undefined past the target
    // type's range, and a fraction would truncate.
    const std::vector<telemetry::Json> bad = {-1, 1e300, 2.5, -1e300, "4"};
    for (const std::string key : {"format_version", "step", "log_bytes", "bytes"}) {
        for (const telemetry::Json& value : bad) {
            if (key == "format_version" && value.is_number() && value.as_number() == -1) {
                continue; // an integer: refused as an unsupported version instead
            }
            TempDir dir;
            CheckpointWriter writer(dir.path(), "h");
            writer.write(4, sample_sections());
            set_manifest_number(dir.path(), key, value);
            try {
                read_latest(dir.path());
                ADD_FAILURE() << key << " = " << value.dump() << " accepted";
            }
            catch (const CheckpointError& e) {
                EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
                    << e.what();
            }
        }
    }
}

/// Sections with log records: a growing `events` record list and a
/// section that logs nothing.
std::vector<Section> logged_sections(int first, int count)
{
    StateWriter events;
    for (int i = first; i < first + count; ++i) {
        events.log().put_i64("event." + std::to_string(i), 10 * i);
    }
    events.put_i64("events", first + count);
    StateWriter plain;
    plain.put_str("name", "rank 0");
    return {{"events", events.take(), events.take_log()}, {"plain", plain.take()}};
}

/// The events a snapshot's `events` section restores, checked against its
/// count.
std::vector<std::int64_t> logged_events(const Snapshot& snap)
{
    const StateReader reader = snap.reader("events");
    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i < reader.get_i64("events"); ++i) {
        out.push_back(reader.get_i64("event." + std::to_string(i)));
    }
    EXPECT_EQ(reader.keys_with_prefix("event.").size(), out.size());
    return out;
}

std::string log_path(const std::string& dir)
{
    const auto manifest = telemetry::Json::parse(slurp(dir + "/" + kManifestName));
    return dir + "/" + manifest.at("log_file").as_string();
}

TEST(CheckpointIo, LogRecordsAreWrittenOnceAndReadBackAheadOfTheText)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(2, logged_sections(0, 3));
    const std::size_t first_log = slurp(log_path(dir.path())).size();
    writer.write(4, logged_sections(3, 2));
    writer.write(6, logged_sections(5, 0));

    const Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(logged_events(snap), (std::vector<std::int64_t>{0, 10, 20, 30, 40}));
    EXPECT_EQ(snap.find("plain")->log, "");
    EXPECT_EQ(snap.reader("plain").get_str("name"), "rank 0");
    // The log grew by the two new records only; a commit with nothing new
    // left it as it was.
    const std::string log = slurp(log_path(dir.path()));
    EXPECT_LT(log.size() - first_log, first_log);
    EXPECT_EQ(log.find("event.0="), log.rfind("event.0="));
}

TEST(CheckpointIo, BytesPastTheCommittedLengthAreNeitherReadNorCarried)
{
    // A commit whose manifest never landed may have appended records: they
    // are not part of the checkpoint.
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(2, logged_sections(0, 2));
    const std::string path = log_path(dir.path());
    const std::string torn = "record events 13 00000000\nevent.9=90\n";
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << torn;
    }
    const Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(logged_events(snap), (std::vector<std::int64_t>{0, 10}));

    // A resumed writer's log starts with the committed records only.
    CheckpointWriter resumed(dir.path(), "h");
    resumed.carry(snap);
    resumed.write(4, logged_sections(2, 1));
    const std::string resumed_log = slurp(log_path(dir.path()));
    EXPECT_NE(log_path(dir.path()), path);
    EXPECT_EQ(resumed_log.find("event.9"), std::string::npos) << resumed_log;
    EXPECT_EQ(logged_events(read_latest(dir.path())),
              (std::vector<std::int64_t>{0, 10, 20}));
    // The earlier generation's log is pruned with its data files.
    EXPECT_TRUE(slurp(path).empty());
}

TEST(CheckpointIo, FlippedLogByteIsRejectedNamingItsSection)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(2, logged_sections(0, 2));
    writer.write(4, logged_sections(2, 2));
    const std::string path = log_path(dir.path());
    std::string log = slurp(path);
    const auto pos = log.find("event.1=10");
    ASSERT_NE(pos, std::string::npos);
    log[pos + 8] ^= 0x01;
    ASSERT_TRUE(util::atomic_write_file(path, log));
    try {
        read_latest(dir.path());
        FAIL() << "expected CheckpointError";
    }
    catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("CRC"), std::string::npos) << what;
        EXPECT_NE(what.find("'events'"), std::string::npos) << what;
    }

    // A record of a section the manifest does not list is rejected too.
    log[pos + 8] ^= 0x01;
    const auto name = log.find("record events");
    log.replace(name, 13, "record eventz");
    ASSERT_TRUE(util::atomic_write_file(path, log));
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
}

TEST(CheckpointIo, LogShorterThanTheManifestSaysIsRejected)
{
    TempDir dir;
    CheckpointWriter writer(dir.path(), "h");
    writer.write(2, logged_sections(0, 3));
    const std::string path = log_path(dir.path());
    const std::string log = slurp(path);
    ASSERT_TRUE(util::atomic_write_file(path, log.substr(0, log.size() - 1)));
    try {
        read_latest(dir.path());
        FAIL() << "expected CheckpointError";
    }
    catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("committed bytes"), std::string::npos)
            << e.what();
    }
    // The largest length a manifest can state is refused before anything
    // that long is allocated.
    ASSERT_TRUE(util::atomic_write_file(path, log));
    set_manifest_number(dir.path(), "log_bytes", 9007199254740992.0);
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
    std::filesystem::remove(path);
    EXPECT_THROW(read_latest(dir.path()), CheckpointError);
}

TEST(CheckpointIo, FreshWriterLeavesAnOlderCheckpointReadableUntilItsManifestLands)
{
    TempDir dir;
    {
        CheckpointWriter old_run(dir.path(), "h");
        old_run.write(2, logged_sections(0, 2));
        old_run.write(4, logged_sections(2, 2));
    }
    // A fresh run in the same directory whose manifest cannot be written:
    // its first commit writes its log and the data file of the very step
    // the old manifest names, then fails.
    const std::string blocker =
        dir.path() + "/" + kManifestName + ".tmp." + std::to_string(::getpid());
    ASSERT_TRUE(std::filesystem::create_directory(blocker));
    CheckpointWriter fresh(dir.path(), "h");
    EXPECT_THROW(fresh.write(4, logged_sections(0, 1)), CheckpointError);
    Snapshot snap = read_latest(dir.path());
    EXPECT_EQ(snap.step, 4);
    EXPECT_EQ(logged_events(snap), (std::vector<std::int64_t>{0, 10, 20, 30}));

    // Once it lands, the checkpoint is the fresh run's alone, the failed
    // commit's records included, and the old run's files are pruned.
    std::filesystem::remove(blocker);
    fresh.write(6, logged_sections(1, 1));
    snap = read_latest(dir.path());
    EXPECT_EQ(snap.step, 6);
    EXPECT_EQ(logged_events(snap), (std::vector<std::int64_t>{0, 10}));
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{"MANIFEST.json", "checkpoint-2-000004.gsc",
                                               "checkpoint-2-000006.gsc", "log-2.gsl"}));
}

TEST(CheckpointIo, ResumeIntoAnotherDirectoryCarriesEveryRecord)
{
    TempDir first;
    CheckpointWriter writer(first.path(), "h");
    writer.write(2, logged_sections(0, 2));
    writer.write(4, logged_sections(2, 1));
    const Snapshot snap = read_latest(first.path());

    TempDir second;
    CheckpointWriter resumed(second.path(), "h");
    resumed.carry(snap);
    // Records of a section the resumed run does not checkpoint are dropped.
    std::vector<Section> sections = logged_sections(3, 2);
    sections.pop_back();
    resumed.write(6, sections);
    const Snapshot carried = read_latest(second.path());
    EXPECT_EQ(carried.step, 6);
    EXPECT_EQ(logged_events(carried), (std::vector<std::int64_t>{0, 10, 20, 30, 40}));
    EXPECT_EQ(carried.find("plain"), nullptr);
    // The first directory still holds its own checkpoint.
    EXPECT_EQ(logged_events(read_latest(first.path())),
              (std::vector<std::int64_t>{0, 10, 20}));
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
