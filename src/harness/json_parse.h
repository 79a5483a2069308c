/**
 * @file
 * Minimal JSON reader for the harness's own file formats.
 *
 * The repository writes all of its JSON by hand (sweep exports, explain
 * documents, Chrome traces) but until now never read any back.  The
 * sweep loader (rnr-sweep-v1/v2), the explain tests and the
 * bench-regression gate (`micro_hotpath compare`) all need to, so this
 * header provides a tiny DOM parser — no dependencies, a few hundred
 * lines, tolerant of the subset of JSON those writers emit plus
 * anything a conforming producer (google-benchmark, python json.dump)
 * generates.
 *
 * Design notes:
 *  - Numbers are kept as raw token text and converted lazily (asDouble /
 *    asU64), so exact 64-bit counters survive a round trip untouched by
 *    double rounding.
 *  - Objects keep their members in a vector of (key, value) pairs in
 *    file order; find() is a linear scan.  Harness files have tens of
 *    keys per object, not thousands.
 *  - No writer: writing stays hand-rolled at each call site, where the
 *    exact field order is part of the format documentation.
 */
#ifndef RNR_HARNESS_JSON_PARSE_H
#define RNR_HARNESS_JSON_PARSE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rnr {

/** One parsed JSON value; a tree of these is a parsed document. */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** String contents (unescaped) for String, raw token for Number. */
    std::string text;
    std::vector<JsonValue> items;                            ///< Array
    std::vector<std::pair<std::string, JsonValue>> members;  ///< Object

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Member lookup on an object; null for other kinds / missing key. */
    const JsonValue *find(const std::string &key) const;

    /** Number/string-as-number to double; 0.0 for other kinds. */
    double asDouble() const;

    /** Number to uint64 (truncating negatives to 0); 0 otherwise. */
    std::uint64_t asU64() const;
};

/**
 * Parses @p text into @p out.  Returns false (and sets @p error, when
 * non-null, to a message with a byte offset) on malformed input or
 * trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

/** Convenience: slurps @p path and parses it. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string *error = nullptr);

} // namespace rnr

#endif // RNR_HARNESS_JSON_PARSE_H
