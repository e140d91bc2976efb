#include "checkpoint/checkpoint.hpp"

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

namespace gsph::checkpoint {

namespace fs = std::filesystem;

namespace {

const std::string kDataHeader =
    "greensph-checkpoint " + std::to_string(kFormatVersion) + "\n";

constexpr std::string_view kDataPrefix = "checkpoint-";
constexpr std::string_view kDataSuffix = ".gsc";

std::string data_file_name(int step)
{
    std::string digits = std::to_string(step);
    if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
    return std::string(kDataPrefix) + digits + std::string(kDataSuffix);
}

/// The step a data file name encodes; nullopt for any other name.  Steps
/// are zero-padded to six digits only, so names do not sort by step.
std::optional<long long> data_file_step(std::string_view name)
{
    if (!name.starts_with(kDataPrefix) || !name.ends_with(kDataSuffix)) return std::nullopt;
    name.remove_prefix(kDataPrefix.size());
    name.remove_suffix(kDataSuffix.size());
    long long step = 0;
    const auto [ptr, ec] = std::from_chars(name.data(), name.data() + name.size(), step);
    if (ec != std::errc() || ptr != name.data() + name.size()) return std::nullopt;
    return step;
}

/// Bytes of one `section <name> <bytes> <crc32>` line beyond the name.
constexpr std::size_t kSectionLineBytes = 40;

std::string read_file(const fs::path& path, const std::string& what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError(what + ": cannot open '" + path.string() + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        throw CheckpointError(what + ": read error on '" + path.string() + "'");
    }
    return buf.str();
}

} // namespace

const Section* Snapshot::find(std::string_view name) const
{
    for (const Section& section : sections) {
        if (section.name == name) return &section;
    }
    return nullptr;
}

StateReader Snapshot::reader(std::string_view name) const
{
    const Section* section = find(name);
    if (!section) {
        throw CheckpointError("checkpoint has no section '" + std::string(name) +
                              "'");
    }
    return StateReader(name, section->data);
}

CheckpointWriter::CheckpointWriter(std::string dir, std::string config_hash,
                                   int keep_last)
    : dir_(std::move(dir)),
      config_hash_(std::move(config_hash)),
      keep_last_(std::max(1, keep_last))
{
}

std::string CheckpointWriter::write(int step, const std::vector<Section>& sections)
{
    const auto t0 = std::chrono::steady_clock::now();

    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        throw CheckpointError("cannot create checkpoint dir '" + dir_ +
                              "': " + ec.message());
    }

    // 1. Data file: header + sections, each with its own byte count and CRC
    //    so readers can pinpoint exactly which block is damaged.
    std::size_t data_bytes = kDataHeader.size();
    for (const Section& section : sections) {
        data_bytes += kSectionLineBytes + section.name.size() + section.data.size();
    }
    std::string data;
    data.reserve(data_bytes);
    data += kDataHeader;
    telemetry::Json manifest_sections = telemetry::Json::array();
    for (const Section& section : sections) {
        const std::uint32_t crc = util::crc32(section.data);
        data += "section " + section.name + " " +
                std::to_string(section.data.size()) + " " + util::hex32(crc) +
                "\n";
        data += section.data;

        telemetry::Json entry = telemetry::Json::object();
        entry["name"] = section.name;
        entry["bytes"] = section.data.size();
        entry["crc32"] = util::hex32(crc);
        manifest_sections.push_back(std::move(entry));
    }

    const std::string file_name = data_file_name(step);
    const fs::path data_path = fs::path(dir_) / file_name;
    if (!util::atomic_write_file(data_path.string(), data)) {
        throw CheckpointError("cannot write checkpoint data file '" +
                              data_path.string() + "'");
    }

    // 2. Manifest: the commit point.  Until this rename lands, the previous
    //    manifest still names the previous (intact) data file.
    telemetry::Json manifest = telemetry::Json::object();
    manifest["schema"] = kManifestSchema;
    manifest["format_version"] = kFormatVersion;
    manifest["config_hash"] = config_hash_;
    manifest["step"] = step;
    manifest["data_file"] = file_name;
    manifest["sections"] = std::move(manifest_sections);

    const fs::path manifest_path = fs::path(dir_) / kManifestName;
    if (!util::atomic_write_file(manifest_path.string(), manifest.dump(2) + "\n")) {
        throw CheckpointError("cannot write checkpoint manifest '" +
                              manifest_path.string() + "'");
    }

    // 3. Prune: anything but the most recent keep_last_ data files is
    //    unreachable now that the manifest moved on.
    std::vector<std::pair<long long, fs::path>> old_files;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name == file_name) continue;
        if (const auto old_step = data_file_step(name)) {
            old_files.emplace_back(*old_step, entry.path());
        }
    }
    std::sort(old_files.begin(), old_files.end());
    const int excess = static_cast<int>(old_files.size()) - (keep_last_ - 1);
    for (int i = 0; i < excess; ++i) {
        fs::remove(old_files[static_cast<std::size_t>(i)].second, ec);
    }

    ++written_;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    auto& registry = telemetry::MetricsRegistry::global();
    registry.counter("checkpoint.writes").inc();
    registry.counter("checkpoint.bytes").inc(static_cast<double>(data.size()));
    registry.counter("checkpoint.write_seconds").inc(seconds);
    return data_path.string();
}

Snapshot read_latest(const std::string& dir)
{
    const fs::path manifest_path = fs::path(dir) / kManifestName;
    const std::string manifest_text =
        read_file(manifest_path, "checkpoint manifest");

    telemetry::Json manifest;
    try {
        manifest = telemetry::Json::parse(manifest_text);
    } catch (const std::exception& err) {
        throw CheckpointError("checkpoint manifest '" + manifest_path.string() +
                              "': invalid JSON: " + err.what());
    }

    const auto manifest_str = [&](const char* key) -> std::string {
        if (!manifest.contains(key) || !manifest.at(key).is_string()) {
            throw CheckpointError("checkpoint manifest '" +
                                  manifest_path.string() +
                                  "': missing string field '" + key + "'");
        }
        return manifest.at(key).as_string();
    };
    const auto manifest_num = [&](const char* key) -> double {
        if (!manifest.contains(key) || !manifest.at(key).is_number()) {
            throw CheckpointError("checkpoint manifest '" +
                                  manifest_path.string() +
                                  "': missing numeric field '" + key + "'");
        }
        return manifest.at(key).as_number();
    };

    if (const std::string schema = manifest_str("schema"); schema != kManifestSchema) {
        throw CheckpointError("checkpoint manifest '" + manifest_path.string() +
                              "': schema '" + schema + "' != '" +
                              kManifestSchema + "'");
    }
    if (const int version = static_cast<int>(manifest_num("format_version"));
        version != kFormatVersion) {
        throw CheckpointError(
            "checkpoint manifest '" + manifest_path.string() +
            "': format version " + std::to_string(version) +
            " is not supported (expected " + std::to_string(kFormatVersion) + ")");
    }

    Snapshot snap;
    snap.step = static_cast<int>(manifest_num("step"));
    snap.config_hash = manifest_str("config_hash");
    const std::string data_file = manifest_str("data_file");

    const fs::path data_path = fs::path(dir) / data_file;
    const std::string data = read_file(data_path, "checkpoint data file");

    // Parse the data file against the manifest's expectations; every
    // mismatch names the section so damage reports are actionable.
    std::size_t pos = 0;
    const std::string_view header(kDataHeader);
    if (data.compare(0, header.size(), header) != 0) {
        throw CheckpointError("checkpoint data file '" + data_path.string() +
                              "': bad or missing format header");
    }
    pos = header.size();

    if (!manifest.contains("sections") || !manifest.at("sections").is_array()) {
        throw CheckpointError("checkpoint manifest '" + manifest_path.string() +
                              "': missing 'sections' array");
    }
    for (const telemetry::Json& entry : manifest.at("sections").items()) {
        const std::string name = entry.at("name").as_string();
        const auto bytes = static_cast<std::size_t>(entry.at("bytes").as_number());
        const std::string crc_hex = entry.at("crc32").as_string();

        std::size_t line_end = data.find('\n', pos);
        if (line_end == std::string::npos) {
            throw CheckpointError("checkpoint data file '" + data_path.string() +
                                  "': truncated before section '" + name + "'");
        }
        const std::string expect_line = "section " + name + " " +
                                        std::to_string(bytes) + " " + crc_hex;
        const std::string_view got_line(data.data() + pos, line_end - pos);
        if (got_line != expect_line) {
            throw CheckpointError("checkpoint data file '" + data_path.string() +
                                  "': section header mismatch for '" + name +
                                  "' (manifest says '" + expect_line +
                                  "', file says '" + std::string(got_line) + "')");
        }
        pos = line_end + 1;
        if (pos + bytes > data.size()) {
            throw CheckpointError("checkpoint data file '" + data_path.string() +
                                  "': section '" + name + "' truncated (" +
                                  std::to_string(data.size() - pos) + " of " +
                                  std::to_string(bytes) + " bytes present)");
        }
        Section section;
        section.name = name;
        section.data = data.substr(pos, bytes);
        pos += bytes;

        const std::uint32_t crc = util::crc32(section.data);
        if (util::hex32(crc) != crc_hex) {
            throw CheckpointError("checkpoint data file '" + data_path.string() +
                                  "': CRC mismatch in section '" + name +
                                  "' (manifest " + crc_hex + ", computed " +
                                  util::hex32(crc) + ")");
        }
        snap.sections.push_back(std::move(section));
    }
    if (pos != data.size()) {
        throw CheckpointError("checkpoint data file '" + data_path.string() +
                              "': " + std::to_string(data.size() - pos) +
                              " trailing bytes after last section");
    }

    telemetry::MetricsRegistry::global().counter("checkpoint.restores").inc();
    return snap;
}

void StateRegistry::add(std::string section, SaveFn save, RestoreFn restore,
                        bool optional)
{
    participants_.push_back(
        {std::move(section), std::move(save), std::move(restore), optional});
}

std::vector<Section> StateRegistry::save_all() const
{
    std::vector<Section> out;
    out.reserve(participants_.size());
    for (const Participant& p : participants_) {
        StateWriter writer;
        p.save(writer);
        out.push_back({p.section, writer.take()});
    }
    return out;
}

void StateRegistry::restore_all(const Snapshot& snap) const
{
    for (const Participant& p : participants_) {
        if (p.optional && !snap.find(p.section)) continue;
        p.restore(snap.reader(p.section));
    }
}

} // namespace gsph::checkpoint
