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
#include <memory>
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
    /// Items [from, to) of `values` (to clamped to values.size()), encoded
    /// as put_*_vec encodes them.  T is double or a 32- or 64-bit integer.
    template <typename T>
    void put_vec(std::string_view key, const std::vector<T>& values, std::size_t from = 0,
                 std::size_t to = static_cast<std::size_t>(-1));

    /// The writer of this section's log records.  What it holds when the
    /// checkpoint commits is appended to the checkpoint's log, and every
    /// later read of that checkpoint, or of one a resumed run commits, hands
    /// it back ahead of the section text, in one StateReader.  So a
    /// participant writes each record once, at the first save after it was
    /// made, under a key no other record of its section uses.
    StateWriter& log();

    /// The serialized section payload.
    const std::string& str() const { return out_; }
    /// Moves the payload out, leaving the writer empty.
    std::string take();
    /// Moves the log records out (empty when log() was never called).
    std::string take_log();

private:
    /// Appends `key=`; each put_* then encodes its value straight into out_.
    void begin_line(std::string_view key);
    std::string out_;
    std::unique_ptr<StateWriter> log_;
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
