#include "json.hh"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace osp
{

std::string
jsonNumberToString(double value)
{
    if (!std::isfinite(value)) {
        // JSON has no NaN/Inf; emitting null keeps documents valid
        // and makes the hole visible to consumers.
        return "null";
    }
    std::array<char, 64> buf{};
    auto res =
        std::to_chars(buf.data(), buf.data() + buf.size(), value);
    std::string s(buf.data(), res.ptr);
    // to_chars shortest form may lack any float marker ("42");
    // that is fine for JSON, whose numbers carry no type.
    return s;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

double
JsonValue::asDouble() const
{
    switch (kind_) {
      case Kind::Int: return static_cast<double>(int_);
      case Kind::Uint: return static_cast<double>(uint_);
      case Kind::Double: return double_;
      default: osp_panic("JsonValue: not a number");
    }
}

std::int64_t
JsonValue::asInt() const
{
    switch (kind_) {
      case Kind::Int: return int_;
      case Kind::Uint: return static_cast<std::int64_t>(uint_);
      case Kind::Double: return static_cast<std::int64_t>(double_);
      default: osp_panic("JsonValue: not a number");
    }
}

std::uint64_t
JsonValue::asUint() const
{
    switch (kind_) {
      case Kind::Int: return static_cast<std::uint64_t>(int_);
      case Kind::Uint: return uint_;
      case Kind::Double: return static_cast<std::uint64_t>(double_);
      default: osp_panic("JsonValue: not a number");
    }
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (kind_ != Kind::Array || i >= array_.size())
        osp_panic("JsonValue: bad array access ", i);
    return array_[i];
}

JsonValue &
JsonValue::append(JsonValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        osp_panic("JsonValue: append on non-array");
    array_.push_back(std::move(v));
    return *this;
}

JsonValue &
JsonValue::add(std::string key, JsonValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        osp_panic("JsonValue: add on non-object");
    for (const auto &[k, unused] : object_) {
        (void)unused;
        if (k == key)
            osp_panic("JsonValue: duplicate key ", key.c_str());
    }
    object_.emplace_back(std::move(key), std::move(v));
    return *this;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::operator[](std::string_view key) const
{
    const JsonValue *v = find(key);
    if (!v)
        osp_panic("JsonValue: missing key ",
                  std::string(key).c_str());
    return *v;
}

namespace
{

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xF]
                   << hex[c & 0xF];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
JsonValue::writeIndented(std::ostream &os, int indent,
                         int depth) const
{
    switch (kind_) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::Int:
        os << int_;
        break;
      case Kind::Uint:
        os << uint_;
        break;
      case Kind::Double:
        os << jsonNumberToString(double_);
        break;
      case Kind::String:
        writeEscaped(os, string_);
        break;
      case Kind::Array:
        if (array_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                os << ',';
            if (indent >= 0)
                newlineIndent(os, indent, depth + 1);
            array_[i].writeIndented(os, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (object_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                os << ',';
            if (indent >= 0)
                newlineIndent(os, indent, depth + 1);
            writeEscaped(os, object_[i].first);
            os << (indent >= 0 ? ": " : ":");
            object_[i].second.writeIndented(os, indent, depth + 1);
        }
        if (indent >= 0)
            newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
JsonValue::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
JsonValue::dump(int indent) const
{
    std::ostringstream oss;
    write(oss, indent);
    return oss.str();
}

namespace
{

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    static constexpr int maxDepth = 64;

    bool
    fail(const char *what)
    {
        if (error_ && error_->empty()) {
            *error_ = "json parse error at offset " +
                      std::to_string(pos_) + ": " + what;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("bad escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Basic-plane UTF-8 encoding; the harness only
                // emits the escapes handled above, so surrogate
                // pairs are out of scope.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    digitAt() const
    {
        return pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]));
    }

    /** Skip one or more digits; false if there is none. */
    bool
    digits()
    {
        if (!digitAt())
            return false;
        while (digitAt())
            ++pos_;
        return true;
    }

    /**
     * JSON's number grammar: an optional minus, 0 or a digit run
     * without a leading zero, an optional fraction and exponent,
     * each with at least one digit. "01", ".5", "1." and "1e" are
     * errors, as in any other JSON reader.
     */
    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        consume('-');
        if (!consume('0') && !digits())
            return fail("expected number");
        bool integral = true;
        if (consume('.')) {
            integral = false;
            if (!digits())
                return fail("bad number");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("bad number");
        }
        std::string_view token = text_.substr(start, pos_ - start);
        const char *first = token.data();
        const char *last = token.data() + token.size();
        if (integral && token[0] != '-') {
            std::uint64_t u = 0;
            auto r = std::from_chars(first, last, u);
            if (r.ec == std::errc() && r.ptr == last) {
                out = JsonValue(u);
                return true;
            }
        } else if (integral) {
            // "-0" is how write() spells the double -0.0; an Int
            // would drop the sign, so it falls through to a double.
            std::int64_t i = 0;
            auto r = std::from_chars(first, last, i);
            if (r.ec == std::errc() && r.ptr == last && i != 0) {
                out = JsonValue(i);
                return true;
            }
        }
        double d = 0.0;
        auto r = std::from_chars(first, last, d);
        if (r.ec != std::errc() || r.ptr != last)
            return fail("bad number");
        out = JsonValue(d);
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out = JsonValue::object();
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                if (out.find(key))
                    return fail("duplicate object key");
                out.add(std::move(key), std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out = JsonValue::array();
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.append(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = JsonValue(true);
            return true;
        }
        if (literal("false")) {
            out = JsonValue(false);
            return true;
        }
        if (literal("null")) {
            out = JsonValue(nullptr);
            return true;
        }
        return parseNumber(out);
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
JsonValue::parse(std::string_view text, bool *ok,
                 std::string *error)
{
    JsonValue out;
    Parser p(text, error);
    bool good = p.parseDocument(out);
    if (ok)
        *ok = good;
    if (!good)
        return JsonValue();
    return out;
}

std::uint64_t
jsonUint(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Uint)
        throw JsonShapeError{};
    return v.asUint();
}

double
jsonDouble(const JsonValue &v)
{
    if (!v.isNumber())
        throw JsonShapeError{};
    // An integral double is written without a fraction and parses
    // back as an integer; one the double cannot hold exactly would
    // re-encode to other digits.
    const double d = v.asDouble();
    const bool exact =
        v.kind() == JsonValue::Kind::Double ||
        (v.kind() == JsonValue::Kind::Uint
             ? d < 0x1p64 && static_cast<std::uint64_t>(d) == v.asUint()
             : static_cast<std::int64_t>(d) == v.asInt());
    if (!exact)
        throw JsonShapeError{};
    return d;
}

bool
jsonBool(const JsonValue &v)
{
    if (!v.isBool())
        throw JsonShapeError{};
    return v.asBool();
}

const std::string &
jsonString(const JsonValue &v)
{
    if (!v.isString())
        throw JsonShapeError{};
    return v.asString();
}

const std::vector<JsonValue> &
jsonArray(const JsonValue &v, std::size_t size)
{
    if (!v.isArray() ||
        (size != ~std::size_t(0) && v.elements().size() != size))
        throw JsonShapeError{};
    return v.elements();
}

JsonFields::JsonFields(const JsonValue &object)
    : members(object.isObject() ? object.members()
                                : throw JsonShapeError{})
{
}

const JsonValue &
JsonFields::operator()(std::string_view key)
{
    if (!next(key))
        throw JsonShapeError{};
    return members[i++].second;
}

void
JsonFields::end() const
{
    if (i != members.size())
        throw JsonShapeError{};
}

} // namespace osp
