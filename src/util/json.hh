/**
 * @file
 * Minimal JSON document model: deterministic emission plus a strict
 * recursive-descent parser.
 *
 * Built for the experiment harness (src/driver), whose contract is
 * that an aggregated results file is *byte-identical* across runner
 * thread counts at the same seed, so CI can diff result artifacts.
 * Determinism therefore drives the design:
 *
 *  - objects preserve insertion order (no hash maps);
 *  - integers are kept exactly (signed/unsigned 64-bit);
 *  - doubles are emitted with std::to_chars shortest round-trip
 *    form, so emission is locale-independent and parse(emit(x))
 *    reproduces x bit-exactly.
 *
 * No external dependencies; the parser exists mainly so tests and
 * tools can round-trip the emitted artifacts.
 */

#ifndef OSP_UTIL_JSON_HH
#define OSP_UTIL_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace osp
{

/** See file comment. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Uint,
        Double,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool v) : kind_(Kind::Bool), bool_(v) {}
    JsonValue(long v) : kind_(Kind::Int), int_(v) {}
    JsonValue(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    JsonValue(unsigned long v) : kind_(Kind::Uint), uint_(v) {}
    JsonValue(double v) : kind_(Kind::Double), double_(v) {}
    JsonValue(const char *v) : kind_(Kind::String), string_(v) {}
    JsonValue(std::string v)
        : kind_(Kind::String), string_(std::move(v))
    {
    }

    /** Empty aggregate factories. */
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool
    isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Double;
    }

    bool asBool() const { return bool_; }
    const std::string &asString() const { return string_; }

    /** Numeric access with integer/double conversion. */
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;

    /** Array/object element count (0 for scalars). */
    std::size_t size() const;

    /** Array element (unchecked index). */
    const JsonValue &at(std::size_t i) const;

    /** Append to an array (converts a Null value to an array). */
    JsonValue &append(JsonValue v);

    /** Append a key/value pair to an object (converts Null). Keys
     *  are kept in insertion order and may not repeat. */
    JsonValue &add(std::string key, JsonValue v);

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Object member access; osp_panic when absent. */
    const JsonValue &operator[](std::string_view key) const;

    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return object_;
    }

    const std::vector<JsonValue> &elements() const { return array_; }

    /**
     * Serialize. @p indent < 0 emits the compact single-line form;
     * >= 0 pretty-prints with that many spaces per level. Both forms
     * are deterministic byte-for-byte given equal documents.
     */
    void write(std::ostream &os, int indent = 2) const;

    /** write() into a string. */
    std::string dump(int indent = 2) const;

    /**
     * Strict parse of a complete JSON document (trailing garbage is
     * an error). On failure returns a Null value, sets *ok to false
     * and, when given, fills @p error with a position-tagged
     * message.
     */
    static JsonValue parse(std::string_view text, bool *ok,
                           std::string *error = nullptr);

  private:
    void writeIndented(std::ostream &os, int indent,
                       int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** Exact (shortest round-trip) double formatting used by write(). */
std::string jsonNumberToString(double value);

/**
 * Checked readers for decoders of documents this program wrote:
 * each throws JsonShapeError unless the value has the shape its
 * writer gives it, so a decoder built from them accepts only values
 * that re-encode to the document they came from, up to number
 * spelling.
 */
struct JsonShapeError
{
};

/** An unsigned integer (Uint kind: not negative, not a fraction). */
std::uint64_t jsonUint(const JsonValue &v);

/** Any number, provided the double holds it exactly. */
double jsonDouble(const JsonValue &v);

bool jsonBool(const JsonValue &v);

const std::string &jsonString(const JsonValue &v);

/** An array's elements; of exactly @p size unless it is ~0. */
const std::vector<JsonValue> &
jsonArray(const JsonValue &v, std::size_t size = ~std::size_t(0));

/** An object's members, read in the order its writer adds them: a
 *  missing, extra or reordered key throws JsonShapeError. */
class JsonFields
{
  public:
    explicit JsonFields(const JsonValue &object);

    /** The next member, which must be @p key. */
    const JsonValue &operator()(std::string_view key);

    /** True if the next member is @p key (an optional one). */
    bool
    next(std::string_view key) const
    {
        return i < members.size() && members[i].first == key;
    }

    /** Every member must have been read. */
    void end() const;

  private:
    const std::vector<std::pair<std::string, JsonValue>> &members;
    std::size_t i = 0;
};

} // namespace osp

#endif // OSP_UTIL_JSON_HH
