#include "checkpoint/checkpoint.hpp"

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
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
const std::string kLogHeader =
    "greensph-checkpoint-log " + std::to_string(kFormatVersion) + "\n";

constexpr std::string_view kDataPrefix = "checkpoint-";
constexpr std::string_view kDataSuffix = ".gsc";
constexpr std::string_view kLogPrefix = "log-";
constexpr std::string_view kLogSuffix = ".gsl";

/// Largest count a manifest number holds exactly (2^53).
constexpr double kMaxManifestCount = 9007199254740992.0;

std::string data_file_name(long long generation, int step)
{
    std::string digits = std::to_string(step);
    if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
    return std::string(kDataPrefix) + std::to_string(generation) + "-" + digits +
           std::string(kDataSuffix);
}

std::string log_file_name(long long generation)
{
    return std::string(kLogPrefix) + std::to_string(generation) + std::string(kLogSuffix);
}

/// The whole of `text` as a non-negative decimal number.
std::optional<long long> parse_count(std::string_view text)
{
    long long value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() || value < 0) {
        return std::nullopt;
    }
    return value;
}

/// `name` between `prefix` and `suffix`, when it has both.
std::optional<std::string_view> file_stem(std::string_view name, std::string_view prefix,
                                          std::string_view suffix)
{
    if (!name.starts_with(prefix) || !name.ends_with(suffix)) return std::nullopt;
    name.remove_prefix(prefix.size());
    name.remove_suffix(suffix.size());
    return name;
}

/// The (generation, step) a data file name encodes; nullopt for any other
/// name.  Steps are zero-padded to six digits only, so names do not sort by
/// step.
std::optional<std::pair<long long, long long>> data_file_id(std::string_view name)
{
    const auto stem = file_stem(name, kDataPrefix, kDataSuffix);
    if (!stem) return std::nullopt;
    const std::size_t dash = stem->find('-');
    if (dash == std::string_view::npos) return std::nullopt;
    const auto generation = parse_count(stem->substr(0, dash));
    const auto step = parse_count(stem->substr(dash + 1));
    if (!generation || !step) return std::nullopt;
    return std::pair{*generation, *step};
}

/// The generation a log file name encodes; nullopt for any other name.
std::optional<long long> log_file_generation(std::string_view name)
{
    const auto stem = file_stem(name, kLogPrefix, kLogSuffix);
    return stem ? parse_count(*stem) : std::nullopt;
}

/// The generation of any data or log file `name` names.
std::optional<long long> file_generation(std::string_view name)
{
    if (const auto id = data_file_id(name)) return id->first;
    return log_file_generation(name);
}

/// Appends `<kind> <name> <bytes> <crc32>\n<payload>`; returns the CRC.
std::uint32_t append_frame(std::string& out, std::string_view kind, std::string_view name,
                           std::string_view payload)
{
    const std::uint32_t crc = util::crc32(payload);
    out.append(kind);
    out += ' ';
    out.append(name);
    out += ' ';
    out += std::to_string(payload.size());
    out += ' ';
    out += util::hex32(crc);
    out += '\n';
    out.append(payload);
    return crc;
}

/// Bytes of one `section <name> <bytes> <crc32>` line beyond the name.
constexpr std::size_t kSectionLineBytes = 40;

/// The first `limit` bytes of `path` (all of it when nullopt).
std::string read_file(const fs::path& path, const std::string& what,
                      std::optional<std::uint64_t> limit = std::nullopt)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError(what + ": cannot open '" + path.string() + "'");
    }
    if (limit) {
        // Checked before allocating: the limit comes from the manifest.
        in.seekg(0, std::ios::end);
        const auto size = static_cast<std::uint64_t>(in.tellg());
        if (size < *limit) {
            throw CheckpointError(what + " '" + path.string() + "' holds " +
                                  std::to_string(size) + " of the " +
                                  std::to_string(*limit) + " committed bytes");
        }
        in.seekg(0);
        std::string out(static_cast<std::size_t>(*limit), '\0');
        if (!in.read(out.data(), static_cast<std::streamsize>(out.size()))) {
            throw CheckpointError(what + ": read error on '" + path.string() + "'");
        }
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        throw CheckpointError(what + ": read error on '" + path.string() + "'");
    }
    return buf.str();
}

/// Attaches the records of the committed log `log` to their sections of
/// `snap`, in log order.
void read_log(const std::string& log, const fs::path& path, Snapshot& snap)
{
    const std::string where = "checkpoint log '" + path.string() + "'";
    if (!log.starts_with(kLogHeader)) {
        throw CheckpointError(where + ": bad or missing format header");
    }
    std::size_t pos = kLogHeader.size();
    while (pos < log.size()) {
        const std::size_t line_end = log.find('\n', pos);
        const std::string_view line(log.data() + pos,
                                    (line_end == std::string::npos ? log.size() : line_end) -
                                        pos);
        // record <name> <bytes> <crc32>: the name is everything between the
        // first space and the last two.
        const std::size_t crc_at = line.rfind(' ');
        const std::size_t bytes_at =
            crc_at == std::string_view::npos || crc_at == 0 ? std::string_view::npos
                                                             : line.rfind(' ', crc_at - 1);
        long long bytes = -1;
        if (line_end != std::string::npos && line.starts_with("record ") &&
            bytes_at != std::string_view::npos && bytes_at > 7) {
            bytes = parse_count(line.substr(bytes_at + 1, crc_at - bytes_at - 1)).value_or(-1);
        }
        if (bytes < 0) {
            throw CheckpointError(where + ": malformed record header at byte " +
                                  std::to_string(pos));
        }
        const std::string name(line.substr(7, bytes_at - 7));
        const std::string_view crc_hex = line.substr(crc_at + 1);
        pos = line_end + 1;
        if (static_cast<std::uint64_t>(bytes) > log.size() - pos) {
            throw CheckpointError(where + ": record of section '" + name +
                                  "' runs past the committed length");
        }
        const std::string_view payload(log.data() + pos, static_cast<std::size_t>(bytes));
        pos += payload.size();
        if (const std::string crc = util::hex32(util::crc32(payload)); crc != crc_hex) {
            throw CheckpointError(where + ": CRC mismatch in a record of section '" + name +
                                  "' (frame " + std::string(crc_hex) + ", computed " + crc +
                                  ")");
        }
        auto section = std::find_if(snap.sections.begin(), snap.sections.end(),
                                    [&](const Section& s) { return s.name == name; });
        if (section == snap.sections.end()) {
            throw CheckpointError(where + ": record of section '" + name +
                                  "', which the manifest does not list");
        }
        section->log.append(payload);
    }
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
    return StateReader(name, section->log + section->data);
}

CheckpointWriter::CheckpointWriter(std::string dir, std::string config_hash,
                                   int keep_last)
    : dir_(std::move(dir)),
      config_hash_(std::move(config_hash)),
      keep_last_(std::max(1, keep_last))
{
}

void CheckpointWriter::carry(const Snapshot& resumed)
{
    carried_.clear();
    for (const Section& section : resumed.sections) {
        if (!section.log.empty()) carried_.push_back({section.name, {}, section.log});
    }
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

    // 1. Log: this commit's records go after the committed length.  The
    //    first commit picks a generation no file in the directory has, so
    //    the files the current manifest names stay as they are until the
    //    new manifest lands, and starts the log with the carried records.
    if (generation_ == 0) {
        long long newest = 0;
        for (const auto& entry : fs::directory_iterator(dir_, ec)) {
            newest = std::max(newest, file_generation(entry.path().filename().string())
                                          .value_or(0));
        }
        generation_ = newest + 1;
        log_pending_ = kLogHeader;
        for (const Section& section : sections) {
            for (const Section& carried : carried_) {
                if (carried.name == section.name) {
                    append_frame(log_pending_, "record", section.name, carried.log);
                }
            }
        }
        carried_.clear();
    }
    for (const Section& section : sections) {
        if (!section.log.empty()) {
            append_frame(log_pending_, "record", section.name, section.log);
        }
    }
    const std::string log_name = log_file_name(generation_);
    const fs::path log_path = fs::path(dir_) / log_name;
    if (!util::write_file_at(log_path.string(), log_committed_, log_pending_)) {
        throw CheckpointError("cannot write checkpoint log '" + log_path.string() + "'");
    }
    const std::uint64_t log_bytes = log_committed_ + log_pending_.size();

    // 2. Data file: header + sections, each with its own byte count and CRC
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
        const std::uint32_t crc = append_frame(data, "section", section.name, section.data);
        telemetry::Json entry = telemetry::Json::object();
        entry["name"] = section.name;
        entry["bytes"] = section.data.size();
        entry["crc32"] = util::hex32(crc);
        manifest_sections.push_back(std::move(entry));
    }

    const std::string file_name = data_file_name(generation_, step);
    const fs::path data_path = fs::path(dir_) / file_name;
    if (!util::atomic_write_file(data_path.string(), data)) {
        throw CheckpointError("cannot write checkpoint data file '" +
                              data_path.string() + "'");
    }

    // 3. Manifest: the commit point.  Until this rename lands, the previous
    //    manifest still names the previous (intact) data file and log.
    telemetry::Json manifest = telemetry::Json::object();
    manifest["schema"] = kManifestSchema;
    manifest["format_version"] = kFormatVersion;
    manifest["config_hash"] = config_hash_;
    manifest["step"] = step;
    manifest["data_file"] = file_name;
    manifest["log_file"] = log_name;
    manifest["log_bytes"] = static_cast<double>(log_bytes);
    manifest["sections"] = std::move(manifest_sections);

    const fs::path manifest_path = fs::path(dir_) / kManifestName;
    if (!util::atomic_write_file(manifest_path.string(), manifest.dump(2) + "\n")) {
        throw CheckpointError("cannot write checkpoint manifest '" +
                              manifest_path.string() + "'");
    }
    const std::size_t log_growth = log_pending_.size();
    log_committed_ = log_bytes;
    log_pending_.clear();

    // 4. Prune: the files of other generations and all but the most recent
    //    keep_last_ data files of this one are unreachable now that the
    //    manifest moved on.
    std::vector<std::pair<long long, fs::path>> old_files;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name == file_name) continue;
        if (const auto id = data_file_id(name); id && id->first == generation_) {
            old_files.emplace_back(id->second, entry.path());
        }
        else if (file_generation(name).value_or(generation_) != generation_) {
            fs::remove(entry.path(), ec);
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
    registry.counter("checkpoint.bytes").inc(static_cast<double>(data.size() + log_growth));
    registry.counter("checkpoint.write_seconds").inc(seconds);
    return data_path.string();
}

Snapshot read_latest(const std::string& dir)
{
    const fs::path manifest_path = fs::path(dir) / kManifestName;
    const std::string manifest_text =
        read_file(manifest_path, "checkpoint manifest");
    const std::string where = "checkpoint manifest '" + manifest_path.string() + "'";

    telemetry::Json manifest;
    try {
        manifest = telemetry::Json::parse(manifest_text);
    } catch (const std::exception& err) {
        throw CheckpointError(where + ": invalid JSON: " + err.what());
    }

    // Fields of the manifest (context "") or of one of its section entries
    // (context " of section 'x'"): every error names the key.
    const auto field = [&](const telemetry::Json& object, const std::string& key,
                           const std::string& context) -> const telemetry::Json& {
        if (!object.is_object() || !object.contains(key)) {
            throw CheckpointError(where + ": missing field '" + key + "'" + context);
        }
        return object.at(key);
    };
    const auto string_field = [&](const telemetry::Json& object, const std::string& key,
                                  const std::string& context) -> std::string {
        const telemetry::Json& value = field(object, key, context);
        if (!value.is_string()) {
            throw CheckpointError(where + ": field '" + key + "'" + context +
                                  " is not a string");
        }
        return value.as_string();
    };
    // An integral number in [lo, hi]; anything else would be cast from
    // double unchecked.
    const auto integer_field = [&](const telemetry::Json& object, const std::string& key,
                                   const std::string& context, double lo,
                                   double hi) -> long long {
        const telemetry::Json& value = field(object, key, context);
        const double v = value.is_number() ? value.as_number() : std::nan("");
        if (!(v >= lo && v <= hi) || std::trunc(v) != v) {
            throw CheckpointError(where + ": field '" + key + "'" + context +
                                  " must be an integer in [" +
                                  std::to_string(static_cast<long long>(lo)) + ", " +
                                  std::to_string(static_cast<long long>(hi)) + "], not " +
                                  value.dump());
        }
        return static_cast<long long>(v);
    };
    const auto top_string = [&](const char* key) { return string_field(manifest, key, ""); };

    if (const std::string schema = top_string("schema"); schema != kManifestSchema) {
        throw CheckpointError(where + ": schema '" + schema + "' != '" + kManifestSchema +
                              "'");
    }
    if (const long long version =
            integer_field(manifest, "format_version", "", INT_MIN, INT_MAX);
        version != kFormatVersion) {
        throw CheckpointError(where + ": format version " + std::to_string(version) +
                              " is not supported (expected " +
                              std::to_string(kFormatVersion) + ")");
    }

    Snapshot snap;
    snap.step = static_cast<int>(integer_field(manifest, "step", "", 0, INT_MAX));
    snap.config_hash = top_string("config_hash");
    const std::string data_file = top_string("data_file");
    const std::string log_file = top_string("log_file");
    const auto log_bytes = static_cast<std::uint64_t>(
        integer_field(manifest, "log_bytes", "", 0, kMaxManifestCount));

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

    const telemetry::Json& sections = field(manifest, "sections", "");
    if (!sections.is_array()) {
        throw CheckpointError(where + ": field 'sections' is not an array");
    }
    for (const telemetry::Json& entry : sections.items()) {
        const std::string name = string_field(entry, "name", " of a section");
        const std::string of_section = std::string(" of section '") + name + "'";
        const auto bytes = static_cast<std::size_t>(
            integer_field(entry, "bytes", of_section, 0, kMaxManifestCount));
        const std::string crc_hex = string_field(entry, "crc32", of_section);

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
        if (bytes > data.size() - pos) {
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

    // Only the committed prefix of the log: a commit that did not land may
    // have appended past it.
    const fs::path log_path = fs::path(dir) / log_file;
    read_log(read_file(log_path, "checkpoint log", log_bytes), log_path, snap);

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
        out.push_back({p.section, writer.take(), writer.take_log()});
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
