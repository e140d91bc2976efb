#pragma once
/// \file json.hpp
/// \brief Minimal JSON value type: build, serialize, parse.
///
/// The telemetry layer exports machine-readable artifacts (Chrome trace
/// events, metrics dumps, run summaries) that external tools consume
/// (Perfetto, CI scripts, plotting).  This is a deliberately small,
/// dependency-free JSON model: ordered objects (insertion order is
/// preserved so dumps are diffable), doubles serialized with shortest
/// round-trip formatting, and a strict recursive-descent parser used by
/// tests to validate schema round-trips.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gsph::telemetry {

class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() = default; ///< null
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(double v) : type_(Type::kNumber), number_(v) {}
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(long v) : Json(static_cast<double>(v)) {}
    Json(long long v) : Json(static_cast<double>(v)) {}
    Json(unsigned int v) : Json(static_cast<double>(v)) {}
    Json(std::size_t v) : Json(static_cast<double>(v)) {}
    Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
    Json(const char* s) : type_(Type::kString), string_(s) {}

    static Json object()
    {
        Json j;
        j.type_ = Type::kObject;
        return j;
    }
    static Json array()
    {
        Json j;
        j.type_ = Type::kArray;
        return j;
    }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw std::logic_error on kind mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;

    /// Array/object element count (0 for scalars).
    std::size_t size() const;

    /// Array element access; throws std::out_of_range.
    const Json& at(std::size_t index) const;
    /// Object member access; throws std::out_of_range when missing.
    const Json& at(const std::string& key) const;
    bool contains(const std::string& key) const;

    /// Object member lookup/insert (converts null to object on first use).
    Json& operator[](const std::string& key);

    /// Array append (converts null to array on first use).
    void push_back(Json value);

    /// Object members in insertion order.
    const std::vector<std::pair<std::string, Json>>& members() const { return object_; }
    /// Array items.
    const std::vector<Json>& items() const { return array_; }

    /// Serialize; `indent` < 0 produces compact one-line output, >= 0
    /// pretty-prints with that many spaces per level.
    std::string dump(int indent = -1) const;

    /// Strict parser; throws std::invalid_argument with a byte offset on
    /// malformed input (trailing garbage included).
    static Json parse(const std::string& text);

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/// The scalar encoders Json::dump uses, for writers that emit JSON text
/// directly (SpanTracer::to_chrome_json) and must match dump() byte for byte.
///
/// Appends `v`: integers below 1e15 in plain decimal ("-0" for -0.0), other
/// finite values in shortest round-trip form, NaN and infinities as null.
void append_json_number(std::string& out, double v);
/// Appends `s` escaped for embedding in JSON (without surrounding quotes);
/// bytes that are not well-formed UTF-8 become \ufffd.
void append_json_escaped(std::string& out, std::string_view s);

/// `s` as Json::parse reads back append_json_escaped's text of it: each
/// byte that is not part of well-formed UTF-8 becomes U+FFFD.
std::string well_formed_utf8(std::string_view s);

/// Escape a string for embedding in JSON (without surrounding quotes).
std::string json_escape(const std::string& s);

} // namespace gsph::telemetry
