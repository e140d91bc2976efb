#pragma once
/// \file state.hpp
/// \brief Key/value state serialization for checkpoint sections.
///
/// Checkpoint sections are line-oriented `key=value` text.  The format is
/// deliberately boring: it diffs well, survives partial human inspection,
/// and — critically — round-trips floating point *bit-exactly*.  Doubles
/// are stored as the raw 64-bit pattern in hex (`x3fe0000000000000`), not
/// as decimal text, because the whole point of the checkpoint subsystem is
/// that a resumed run replays the remaining steps to bit-identical energy
/// totals; a single ULP lost in decimal round-trip would defeat that.
///
/// Keys are dotted paths (`gpu.3.energy_j`).  Values:
///   * f64      -> `x` + 16 lower-case hex digits of the IEEE-754 pattern
///                 (NaN payloads, -0.0 and denormals survive unchanged)
///   * i64/u64  -> decimal
///   * bool     -> `0` / `1`
///   * string   -> percent-encoded (bytes outside printable ASCII, plus
///                 `%`, `=` and newline, become `%XX`)
///   * f64/i64/u64 vectors -> space-separated scalar encodings on one line

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gsph::checkpoint {

/// Raised by StateReader / checkpoint I/O on any malformed, missing or
/// mismatching state.  The message always names the offending section, key
/// or file so operators can see exactly which line of a checkpoint is bad.
class CheckpointError : public std::runtime_error {
public:
    explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

class StateWriter;

/// What a checkpoint participant keeps between saves, so that a save encodes
/// only what was recorded since the previous one: the encoded text of the
/// first size() entries of something that only grows.  An entry is one
/// vector item (push_f64/push_i64/push_u64, written out by
/// StateWriter::put_vec) or a group of whole lines (push_lines, written out
/// by StateWriter::put_lines).  Cache only entries that can no longer
/// change; an owner whose cached entries changed, or that was cleared or
/// restored, calls clear().
class EncodeCache {
public:
    /// Entries encoded so far.
    std::size_t size() const { return size_; }

    void push_f64(double value);
    void push_i64(std::int64_t value);
    void push_u64(std::uint64_t value);
    void push_lines(const StateWriter& lines);

    void clear();

private:
    friend class StateWriter;
    /// The separator before every vector item but the first.
    void separate();

    std::string text_;
    std::size_t size_ = 0;
};

/// Serializes one section's state as ordered `key=value` lines.
class StateWriter {
public:
    void put_f64(std::string_view key, double value);
    void put_i64(std::string_view key, std::int64_t value);
    void put_u64(std::string_view key, std::uint64_t value);
    void put_bool(std::string_view key, bool value);
    void put_str(std::string_view key, std::string_view value);
    void put_f64_vec(std::string_view key, const std::vector<double>& values);
    void put_i64_vec(std::string_view key, const std::vector<std::int64_t>& values);
    void put_u64_vec(std::string_view key, const std::vector<std::uint64_t>& values);
    /// `key=` followed by the items of `cached` and then those of `tail`,
    /// which holds entries that may still change and is encoded for this
    /// save only: the line put_*_vec writes for the same values.
    void put_vec(std::string_view key, const EncodeCache& cached,
                 const EncodeCache& tail = {});
    /// The lines held by `cached`, verbatim.
    void put_lines(const EncodeCache& cached);

    /// The serialized section payload.
    const std::string& str() const { return out_; }
    /// Moves the payload out, leaving the writer empty.
    std::string take();

private:
    /// Appends `key=`; each put_* then encodes its value straight into out_.
    void begin_line(std::string_view key);
    std::string out_;
};

/// Parses and validates a section payload written by StateWriter.  All
/// getters throw CheckpointError naming the key on a missing entry or a
/// malformed value.
class StateReader {
public:
    /// \param section  used only for error messages ("section 'gpu.0': ...").
    StateReader(std::string_view section, std::string_view payload);

    bool has(std::string_view key) const;
    double get_f64(std::string_view key) const;
    std::int64_t get_i64(std::string_view key) const;
    std::uint64_t get_u64(std::string_view key) const;
    bool get_bool(std::string_view key) const;
    std::string get_str(std::string_view key) const;
    std::vector<double> get_f64_vec(std::string_view key) const;
    std::vector<std::int64_t> get_i64_vec(std::string_view key) const;
    std::vector<std::uint64_t> get_u64_vec(std::string_view key) const;

    /// All keys starting with `prefix`, in file order.  Used to restore
    /// variable-size maps (fault energy offsets, tuner learners).
    std::vector<std::string> keys_with_prefix(std::string_view prefix) const;

private:
    const std::string& raw(std::string_view key) const;
    [[noreturn]] void fail(std::string_view key, const std::string& why) const;

    std::string section_;
    std::vector<std::string> order_;
    std::unordered_map<std::string, std::string> values_;
};

/// Bit-exact double <-> hex helpers (shared with tests).
std::string encode_f64(double value);
double decode_f64(std::string_view text); ///< throws CheckpointError

} // namespace gsph::checkpoint
