#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hydra::json {

void
escape(std::ostream &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\b': out << "\\b"; break;
          case '\f': out << "\\f"; break;
          case '\n': out << "\\n"; break;
          case '\r': out << "\\r"; break;
          case '\t': out << "\\t"; break;
          default:
            // Cast through unsigned char: a plain (signed) char would
            // sign-extend bytes >= 0x80 into bogus \uffxx escapes.
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

void
writeString(std::ostream &out, std::string_view text)
{
    out << '"';
    escape(out, text);
    out << '"';
}

namespace {

constexpr int kMaxDepth = 128;

Value
boolean(bool value)
{
    Value out;
    out.kind = Value::Kind::Bool;
    out.boolean = value;
    return out;
}

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    bool
    atEnd() const
    {
        return pos >= text.size();
    }

    char
    peek() const
    {
        return text[pos];
    }

    void
    skipSpace()
    {
        while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t' ||
                            text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    Error
    fail(const std::string &what) const
    {
        return Error(ErrorCode::ParseError,
                     "json: " + what + " at offset " +
                         std::to_string(pos));
    }

    Result<Value>
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': return parseString();
          case 't': return parseLiteral("true", boolean(true));
          case 'f': return parseLiteral("false", boolean(false));
          case 'n': return parseLiteral("null", Value{});
          default: return parseNumber();
        }
    }

    Result<Value>
    parseLiteral(const char *word, Value value)
    {
        for (const char *c = word; *c; ++c)
            if (!consume(*c))
                return fail(std::string("expected '") + word + "'");
        return value;
    }

    Result<Value>
    parseNumber()
    {
        const std::size_t start = pos;
        if (!atEnd() && peek() == '-')
            ++pos;
        while (!atEnd() && ((peek() >= '0' && peek() <= '9') ||
                            peek() == '.' || peek() == 'e' ||
                            peek() == 'E' || peek() == '+' ||
                            peek() == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        const std::string slice = text.substr(start, pos - start);
        char *end = nullptr;
        const double parsed = std::strtod(slice.c_str(), &end);
        if (end != slice.c_str() + slice.size() || !std::isfinite(parsed))
            return fail("bad number '" + slice + "'");
        Value value;
        value.kind = Value::Kind::Number;
        value.number = parsed;
        return value;
    }

    Result<Value>
    parseString()
    {
        auto raw = parseRawString();
        if (!raw)
            return raw.error();
        Value value;
        value.kind = Value::Kind::String;
        value.string = std::move(raw).value();
        return value;
    }

    Result<std::string>
    parseRawString()
    {
        if (!consume('"'))
            return fail("expected '\"'");
        std::string out;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (atEnd())
                return fail("dangling escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (atEnd())
                        return fail("truncated \\u escape");
                    const char h = text[pos++];
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
                // UTF-8 encode the BMP code point (surrogate pairs
                // are beyond what our exporters ever emit).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default: return fail("unknown escape");
            }
        }
    }

    Result<Value>
    parseArray(int depth)
    {
        consume('[');
        Value value;
        value.kind = Value::Kind::Array;
        skipSpace();
        if (consume(']'))
            return value;
        while (true) {
            auto element = parseValue(depth + 1);
            if (!element)
                return element;
            value.array.push_back(std::move(element).value());
            skipSpace();
            if (consume(']'))
                return value;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    Result<Value>
    parseObject(int depth)
    {
        consume('{');
        Value value;
        value.kind = Value::Kind::Object;
        skipSpace();
        if (consume('}'))
            return value;
        while (true) {
            skipSpace();
            auto key = parseRawString();
            if (!key)
                return key.error();
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            auto member = parseValue(depth + 1);
            if (!member)
                return member;
            value.object.emplace_back(std::move(key).value(),
                                      std::move(member).value());
            skipSpace();
            if (consume('}'))
                return value;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, member] : object)
        if (name == key)
            return &member;
    return nullptr;
}

std::uint64_t
Value::asU64() const
{
    if (kind != Kind::Number || number < 0.0)
        return 0;
    return static_cast<std::uint64_t>(number);
}

Result<Value>
parse(const std::string &text)
{
    Parser parser{text};
    auto value = parser.parseValue(0);
    if (!value)
        return value;
    parser.skipSpace();
    if (!parser.atEnd())
        return parser.fail("trailing characters");
    return value;
}

} // namespace hydra::json
