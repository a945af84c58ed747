/**
 * @file
 * The JSON module: a strict RFC 8259 reader and the two primitives every
 * hand-rolled JSON writer in this codebase shares.
 *
 * The report, trace, run manifest, event log, journals, sweep frontier
 * and server replies are all written by hand, field by field, and the
 * server, resume and tests read JSON back.  jsonParse() is the one
 * reader: strict (no trailing commas, bare NaN/Infinity, unescaped
 * control characters or trailing data), with object keys kept in
 * source order so round-trip tests stay deterministic.  jsonEscape()
 * and jsonNumber() are the one string escaper and the one round-trip
 * number formatter the writers use.
 */

#ifndef MCPAT_COMMON_JSON_HH
#define MCPAT_COMMON_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace mcpat {
namespace common {

/** One parsed JSON value; a tree for arrays and objects. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Key/value pairs in source order (later duplicates shadow). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /**
     * Look up @p key in an object; nullptr when absent or when this
     * value is not an object.  The last occurrence wins, matching what
     * most real parsers do with duplicate keys.
     */
    const JsonValue *find(const std::string &key) const;

    /** The member's string value, or @p dflt when absent/not a string. */
    std::string getString(const std::string &key,
                          const std::string &dflt = std::string()) const;

    /** The member's bool value, or @p dflt when absent/not a bool. */
    bool getBool(const std::string &key, bool dflt = false) const;

    /** The member's numeric value, or @p dflt when absent/not a number. */
    double getNumber(const std::string &key, double dflt = 0.0) const;
};

/**
 * Parse one complete JSON document (with optional surrounding
 * whitespace).  Returns false — with a one-line description and byte
 * offset in @p error when non-null — on any syntax violation,
 * including trailing garbage after the value, and on nesting deeper
 * than 128 levels below the top-level value.
 */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

/**
 * Escape @p s for the inside of a JSON string literal: `"` and `\`
 * get a backslash, newline and tab become `\n` and `\t`, every other
 * byte below 0x20 becomes `\u00XX`, and all other bytes (UTF-8
 * included) pass through.
 */
std::string jsonEscape(const std::string &s);

/**
 * Format a double for JSON so it parses back to the same bits: 17
 * significant digits (max_digits10, `%.17g`).  JSON has no NaN or
 * Infinity literals, so a non-finite value becomes `null`.
 */
std::string jsonNumber(double v);

} // namespace common
} // namespace mcpat

#endif // MCPAT_COMMON_JSON_HH
