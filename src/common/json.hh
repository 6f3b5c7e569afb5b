/**
 * @file
 * Minimal JSON support: the string escaper every exporter writes
 * through, and a document parser.
 *
 * The escaper escapes exactly what RFC 8259 requires: quote,
 * backslash, and control characters below 0x20 (with short forms for
 * the common ones). The parser reads back what the exporters write
 * (introspection snapshots, trace files): the full value grammar,
 * escape decoding, and a tiny ordered-object DOM. Numbers parse as
 * double, which is exact for every integer the exporters emit.
 */

#ifndef HYDRA_COMMON_JSON_HH
#define HYDRA_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hh"

namespace hydra::json {

/** Escape @p text as JSON string contents (no surrounding quotes). */
void escape(std::ostream &out, std::string_view text);

/** Write @p text as a complete, quoted JSON string. */
void writeString(std::ostream &out, std::string_view text);

/** One parsed JSON value (a tagged union, insertion-ordered object). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Number as u64 (0 when not a number or negative). */
    std::uint64_t asU64() const;
};

/** Parse one JSON document; trailing non-space input is an error. */
Result<Value> parse(const std::string &text);

} // namespace hydra::json

#endif // HYDRA_COMMON_JSON_HH
