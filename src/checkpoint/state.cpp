#include "checkpoint/state.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <type_traits>

namespace gsph::checkpoint {

namespace {

bool plain_byte(unsigned char c)
{
    return c > 0x20 && c < 0x7F && c != '%' && c != '=';
}

constexpr const char* kHex = "0123456789abcdef";

void append_str(std::string& out, std::string_view value)
{
    // Runs of bytes that need no escape are appended whole.
    std::size_t plain_from = 0;
    for (std::size_t i = 0; i < value.size(); ++i) {
        const auto byte = static_cast<unsigned char>(value[i]);
        // Spaces are legal inside scalar string values (vectors encode
        // their own separators before this point is reached).
        if (plain_byte(byte) || byte == ' ') continue;
        out.append(value.substr(plain_from, i - plain_from));
        out.push_back('%');
        out.push_back(kHex[byte >> 4]);
        out.push_back(kHex[byte & 0xF]);
        plain_from = i + 1;
    }
    out.append(value.substr(plain_from));
}

void append_f64(std::string& out, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[17];
    buf[0] = 'x';
    for (int i = 16; i >= 1; --i) {
        buf[i] = kHex[bits & 0xFu];
        bits >>= 4;
    }
    out.append(buf, sizeof(buf));
}

template <typename Int>
void append_int(std::string& out, Int value)
{
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, result.ptr);
}

int hex_nibble(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

/// Parses the whole of `text` as a decimal integer: no sign on unsigned
/// types, no '+', no surrounding space, nothing left over.
template <typename Int>
bool parse_int(std::string_view text, Int& value)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    return ec == std::errc() && ptr == end;
}

/// Items of a vector value.  A leading, doubled or trailing space yields
/// an empty item, which no item parser accepts.
std::vector<std::string_view> split_spaces(std::string_view text)
{
    std::vector<std::string_view> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t next = text.find(' ', pos);
        if (next == std::string_view::npos) {
            out.push_back(text.substr(pos));
            return out;
        }
        out.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
}

} // namespace

std::string encode_f64(double value)
{
    std::string out;
    append_f64(out, value);
    return out;
}

double decode_f64(std::string_view text)
{
    if (text.size() != 17 || text[0] != 'x') {
        throw CheckpointError("malformed f64 encoding '" + std::string(text) + "'");
    }
    std::uint64_t bits = 0;
    for (std::size_t i = 1; i < text.size(); ++i) {
        const int nib = hex_nibble(text[i]);
        if (nib < 0) {
            throw CheckpointError("malformed f64 encoding '" + std::string(text) + "'");
        }
        bits = (bits << 4) | static_cast<std::uint64_t>(nib);
    }
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

void StateWriter::begin_line(std::string_view key)
{
    out_.append(key);
    out_.push_back('=');
}

void StateWriter::put_f64(std::string_view key, double value)
{
    begin_line(key);
    append_f64(out_, value);
    out_.push_back('\n');
}

void StateWriter::put_i64(std::string_view key, std::int64_t value)
{
    begin_line(key);
    append_int(out_, value);
    out_.push_back('\n');
}

void StateWriter::put_u64(std::string_view key, std::uint64_t value)
{
    begin_line(key);
    append_int(out_, value);
    out_.push_back('\n');
}

void StateWriter::put_bool(std::string_view key, bool value)
{
    begin_line(key);
    out_.push_back(value ? '1' : '0');
    out_.push_back('\n');
}

void StateWriter::put_str(std::string_view key, std::string_view value)
{
    begin_line(key);
    append_str(out_, value);
    out_.push_back('\n');
}

void StateWriter::put_f64_vec(std::string_view key, const std::vector<double>& values)
{
    put_vec(key, values);
}

void StateWriter::put_i64_vec(std::string_view key,
                              const std::vector<std::int64_t>& values)
{
    put_vec(key, values);
}

void StateWriter::put_u64_vec(std::string_view key,
                              const std::vector<std::uint64_t>& values)
{
    put_vec(key, values);
}

template <typename T>
void StateWriter::put_vec(std::string_view key, const std::vector<T>& values,
                          std::size_t from, std::size_t to)
{
    to = std::min(to, values.size());
    begin_line(key);
    for (std::size_t i = from; i < to; ++i) {
        if (i != from) out_.push_back(' ');
        if constexpr (std::is_floating_point_v<T>) {
            append_f64(out_, values[i]);
        }
        else {
            append_int(out_, values[i]);
        }
    }
    out_.push_back('\n');
}

template void StateWriter::put_vec(std::string_view, const std::vector<double>&,
                                   std::size_t, std::size_t);
template void StateWriter::put_vec(std::string_view, const std::vector<std::int32_t>&,
                                   std::size_t, std::size_t);
template void StateWriter::put_vec(std::string_view, const std::vector<std::uint32_t>&,
                                   std::size_t, std::size_t);
template void StateWriter::put_vec(std::string_view, const std::vector<std::int64_t>&,
                                   std::size_t, std::size_t);
template void StateWriter::put_vec(std::string_view, const std::vector<std::uint64_t>&,
                                   std::size_t, std::size_t);

StateWriter& StateWriter::log()
{
    if (!log_) log_ = std::make_unique<StateWriter>();
    return *log_;
}

std::string StateWriter::take()
{
    std::string out = std::move(out_);
    out_.clear();
    return out;
}

std::string StateWriter::take_log()
{
    return log_ ? log_->take() : std::string();
}

StateReader::StateReader(std::string_view section, std::string_view payload)
    : section_(section)
{
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos < payload.size()) {
        ++line_no;
        std::size_t end = payload.find('\n', pos);
        if (end == std::string_view::npos) end = payload.size();
        const std::string_view line = payload.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            throw CheckpointError("section '" + section_ + "' line " +
                                  std::to_string(line_no) + ": missing '='");
        }
        std::string key(line.substr(0, eq));
        if (values_.count(key)) {
            throw CheckpointError("section '" + section_ + "' line " +
                                  std::to_string(line_no) + ": duplicate key '" +
                                  key + "'");
        }
        order_.push_back(key);
        values_.emplace(std::move(key), std::string(line.substr(eq + 1)));
    }
}

void StateReader::fail(std::string_view key, const std::string& why) const
{
    throw CheckpointError("section '" + section_ + "' key '" + std::string(key) +
                          "': " + why);
}

const std::string& StateReader::raw(std::string_view key) const
{
    const auto it = values_.find(std::string(key));
    if (it == values_.end()) fail(key, "missing");
    return it->second;
}

bool StateReader::has(std::string_view key) const
{
    return values_.count(std::string(key)) != 0;
}

double StateReader::get_f64(std::string_view key) const
{
    try {
        return decode_f64(raw(key));
    } catch (const CheckpointError& err) {
        fail(key, err.what());
    }
}

std::int64_t StateReader::get_i64(std::string_view key) const
{
    const std::string& text = raw(key);
    std::int64_t value = 0;
    if (!parse_int(text, value)) fail(key, "malformed integer '" + text + "'");
    return value;
}

std::uint64_t StateReader::get_u64(std::string_view key) const
{
    const std::string& text = raw(key);
    std::uint64_t value = 0;
    if (!parse_int(text, value)) fail(key, "malformed unsigned integer '" + text + "'");
    return value;
}

bool StateReader::get_bool(std::string_view key) const
{
    const std::string& text = raw(key);
    if (text == "1") return true;
    if (text == "0") return false;
    fail(key, "malformed bool '" + text + "'");
}

std::string StateReader::get_str(std::string_view key) const
{
    const std::string& text = raw(key);
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%') {
            out.push_back(text[i]);
            continue;
        }
        if (i + 2 >= text.size()) fail(key, "truncated percent escape");
        const int hi = hex_nibble(text[i + 1]);
        const int lo = hex_nibble(text[i + 2]);
        if (hi < 0 || lo < 0) fail(key, "malformed percent escape");
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
    }
    return out;
}

std::vector<double> StateReader::get_f64_vec(std::string_view key) const
{
    std::vector<double> out;
    const std::string& text = raw(key);
    if (text.empty()) return out;
    for (const std::string_view item : split_spaces(text)) {
        try {
            out.push_back(decode_f64(item));
        } catch (const CheckpointError& err) {
            fail(key, err.what());
        }
    }
    return out;
}

std::vector<std::uint64_t> StateReader::get_u64_vec(std::string_view key) const
{
    std::vector<std::uint64_t> out;
    const std::string& text = raw(key);
    if (text.empty()) return out;
    for (const std::string_view item : split_spaces(text)) {
        std::uint64_t value = 0;
        if (!parse_int(item, value)) {
            fail(key, "malformed unsigned integer '" + std::string(item) + "'");
        }
        out.push_back(value);
    }
    return out;
}

std::vector<std::int64_t> StateReader::get_i64_vec(std::string_view key) const
{
    std::vector<std::int64_t> out;
    const std::string& text = raw(key);
    if (text.empty()) return out;
    for (const std::string_view item : split_spaces(text)) {
        std::int64_t value = 0;
        if (!parse_int(item, value)) fail(key, "malformed integer '" + std::string(item) + "'");
        out.push_back(value);
    }
    return out;
}

std::vector<std::string> StateReader::keys_with_prefix(std::string_view prefix) const
{
    std::vector<std::string> out;
    for (const std::string& key : order_) {
        if (key.size() >= prefix.size() &&
            std::string_view(key).substr(0, prefix.size()) == prefix) {
            out.push_back(key);
        }
    }
    return out;
}

} // namespace gsph::checkpoint
