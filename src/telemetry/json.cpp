#include "telemetry/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gsph::telemetry {

namespace {

constexpr int kMaxDepth = 128;

[[noreturn]] void fail(const char* what, std::size_t offset)
{
    throw std::invalid_argument("json: " + std::string(what) + " at offset " +
                                std::to_string(offset));
}

/// Length of the valid UTF-8 sequence starting at s[i], or 0 when the bytes
/// are not well-formed UTF-8 (truncated sequence, bad continuation byte,
/// overlong encoding, surrogate, or a code point past U+10FFFF).
std::size_t utf8_sequence_length(std::string_view s, std::size_t i)
{
    const auto byte = [&](std::size_t k) -> unsigned {
        return static_cast<unsigned char>(s[k]);
    };
    const auto continuation = [&](std::size_t k) {
        return k < s.size() && (byte(k) & 0xC0u) == 0x80u;
    };
    const unsigned b0 = byte(i);
    if (b0 < 0x80u) return 1;
    if ((b0 & 0xE0u) == 0xC0u) {
        if (b0 < 0xC2u) return 0; // overlong 2-byte encoding
        return continuation(i + 1) ? 2 : 0;
    }
    if ((b0 & 0xF0u) == 0xE0u) {
        if (!continuation(i + 1) || !continuation(i + 2)) return 0;
        const unsigned b1 = byte(i + 1);
        if (b0 == 0xE0u && b1 < 0xA0u) return 0; // overlong
        if (b0 == 0xEDu && b1 >= 0xA0u) return 0; // UTF-16 surrogate range
        return 3;
    }
    if ((b0 & 0xF8u) == 0xF0u) {
        if (!continuation(i + 1) || !continuation(i + 2) || !continuation(i + 3))
            return 0;
        const unsigned b1 = byte(i + 1);
        if (b0 == 0xF0u && b1 < 0x90u) return 0; // overlong
        if (b0 == 0xF4u && b1 >= 0x90u) return 0; // > U+10FFFF
        if (b0 > 0xF4u) return 0;
        return 4;
    }
    return 0; // lone continuation byte or 0xF8..0xFF
}

} // namespace

void append_json_number(std::string& out, double v)
{
    if (!std::isfinite(v)) { // NaN/Inf are not representable in JSON
        out += "null";
        return;
    }
    char buf[32];
    // Integers dominate telemetry dumps (counters, call counts); print them
    // without an exponent or trailing ".0" so downstream tools see ints.
    // Below 1e15 they convert to int64 exactly; -0.0 keeps its sign, as
    // "%.0f" printed it.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char* first = buf;
        if (v == 0.0 && std::signbit(v)) *first++ = '-';
        const auto result =
            std::to_chars(first, buf + sizeof(buf), static_cast<long long>(v));
        out.append(buf, result.ptr);
        return;
    }
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec == std::errc()) {
        out.append(buf, ptr);
    }
    else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += buf;
    }
}

void append_json_escaped(std::string& out, std::string_view s)
{
    const auto needs_escape = [](unsigned char byte) {
        return byte < 0x20 || byte >= 0x80 || byte == '"' || byte == '\\';
    };
    for (std::size_t i = 0; i < s.size();) {
        // Plain ASCII runs are copied in one append.
        std::size_t run = i;
        while (run < s.size() && !needs_escape(static_cast<unsigned char>(s[run]))) {
            ++run;
        }
        out.append(s, i, run - i);
        i = run;
        if (i == s.size()) break;

        const char c = s[i];
        switch (c) {
            case '"': out += "\\\""; ++i; continue;
            case '\\': out += "\\\\"; ++i; continue;
            case '\b': out += "\\b"; ++i; continue;
            case '\f': out += "\\f"; ++i; continue;
            case '\n': out += "\\n"; ++i; continue;
            case '\r': out += "\\r"; ++i; continue;
            case '\t': out += "\\t"; ++i; continue;
            default: break;
        }
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
            out += buf;
            ++i;
            continue;
        }
        // Multi-byte input: pass well-formed UTF-8 through untouched, and
        // replace anything else with U+FFFD.  Emitting the raw bytes (the old
        // behaviour) produced output that strict JSON consumers (trace
        // viewers, this file's own parser) reject outright.
        if (const std::size_t len = utf8_sequence_length(s, i); len != 0) {
            out.append(s, i, len);
            i += len;
        }
        else {
            out += "\\ufffd";
            ++i;
        }
    }
}

std::string well_formed_utf8(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size();) {
        if (const std::size_t len = utf8_sequence_length(s, i); len != 0) {
            out.append(s, i, len);
            i += len;
        }
        else {
            out += "\xEF\xBF\xBD"; // U+FFFD
            ++i;
        }
    }
    return out;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    append_json_escaped(out, s);
    return out;
}

bool Json::as_bool() const
{
    if (type_ != Type::kBool) throw std::logic_error("json: not a bool");
    return bool_;
}

double Json::as_number() const
{
    if (type_ != Type::kNumber) throw std::logic_error("json: not a number");
    return number_;
}

const std::string& Json::as_string() const
{
    if (type_ != Type::kString) throw std::logic_error("json: not a string");
    return string_;
}

std::size_t Json::size() const
{
    if (type_ == Type::kArray) return array_.size();
    if (type_ == Type::kObject) return object_.size();
    return 0;
}

const Json& Json::at(std::size_t index) const
{
    if (type_ != Type::kArray) throw std::logic_error("json: not an array");
    if (index >= array_.size()) throw std::out_of_range("json: index out of range");
    return array_[index];
}

const Json& Json::at(const std::string& key) const
{
    if (type_ != Type::kObject) throw std::logic_error("json: not an object");
    for (const auto& [k, v] : object_) {
        if (k == key) return v;
    }
    throw std::out_of_range("json: missing key '" + key + "'");
}

bool Json::contains(const std::string& key) const
{
    if (type_ != Type::kObject) return false;
    for (const auto& [k, v] : object_) {
        (void)v;
        if (k == key) return true;
    }
    return false;
}

Json& Json::operator[](const std::string& key)
{
    if (type_ == Type::kNull) type_ = Type::kObject;
    if (type_ != Type::kObject) throw std::logic_error("json: not an object");
    for (auto& [k, v] : object_) {
        if (k == key) return v;
    }
    object_.emplace_back(key, Json());
    return object_.back().second;
}

void Json::push_back(Json value)
{
    if (type_ == Type::kNull) type_ = Type::kArray;
    if (type_ != Type::kArray) throw std::logic_error("json: not an array");
    array_.push_back(std::move(value));
}

void Json::dump_to(std::string& out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int d) {
        if (!pretty) return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (type_) {
        case Type::kNull: out += "null"; return;
        case Type::kBool: out += bool_ ? "true" : "false"; return;
        case Type::kNumber: append_json_number(out, number_); return;
        case Type::kString:
            out += '"';
            append_json_escaped(out, string_);
            out += '"';
            return;
        case Type::kArray: {
            if (array_.empty()) {
                out += "[]";
                return;
            }
            out += '[';
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                array_[i].dump_to(out, indent, depth + 1);
            }
            newline(depth);
            out += ']';
            return;
        }
        case Type::kObject: {
            if (object_.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i) out += ',';
                newline(depth + 1);
                out += '"';
                append_json_escaped(out, object_[i].first);
                out += pretty ? "\": " : "\":";
                object_[i].second.dump_to(out, indent, depth + 1);
            }
            newline(depth);
            out += '}';
            return;
        }
    }
}

std::string Json::dump(int indent) const
{
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json run()
    {
        skip_ws();
        Json value = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters", pos_);
        return value;
    }

private:
    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void skip_ws()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void expect(char c)
    {
        if (peek() != c) fail("unexpected character", pos_);
        ++pos_;
    }

    bool consume_literal(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n]) ++n;
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    Json parse_value(int depth)
    {
        if (depth > kMaxDepth) fail("nesting too deep", pos_);
        switch (peek()) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return Json(parse_string());
            case 't':
                if (consume_literal("true")) return Json(true);
                fail("invalid literal", pos_);
            case 'f':
                if (consume_literal("false")) return Json(false);
                fail("invalid literal", pos_);
            case 'n':
                if (consume_literal("null")) return Json();
                fail("invalid literal", pos_);
            default: return parse_number();
        }
    }

    Json parse_object(int depth)
    {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') fail("expected object key", pos_);
            std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            obj[key] = parse_value(depth + 1);
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json parse_array(int depth)
    {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            skip_ws();
            arr.push_back(parse_value(depth + 1));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string", pos_);
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20) {
                    fail("raw control character in string", pos_ - 1);
                }
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape", pos_);
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
                    unsigned int code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned int>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned int>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned int>(h - 'A' + 10);
                        else
                            fail("bad \\u escape", pos_ - 1);
                    }
                    // Encode the BMP code point as UTF-8 (surrogate pairs are
                    // passed through as two 3-byte sequences; telemetry names
                    // are ASCII in practice).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    }
                    else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("unknown escape", pos_ - 1);
            }
        }
    }

    Json parse_number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (pos_ == start) fail("expected value", pos_);
        double value = 0.0;
        const auto [ptr, ec] =
            std::from_chars(text_.data() + start, text_.data() + pos_, value);
        if (ec != std::errc() || ptr != text_.data() + pos_) {
            fail("malformed number", start);
        }
        return Json(value);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

} // namespace

Json Json::parse(const std::string& text)
{
    return Parser(text).run();
}

} // namespace gsph::telemetry
