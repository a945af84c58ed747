/**
 * @file
 * Recursive-descent JSON parser behind common::jsonParse, and the
 * shared string escaper and number formatter.
 */

#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mcpat {
namespace common {

namespace {

/** Parser cursor over the input with located-error reporting. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &what)
    {
        if (error.empty()) {
            error = what + " at byte " + std::to_string(pos);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("invalid literal"));
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos;
                continue;
            }
            // Escape sequence.
            ++pos;
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
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
                  if (pos + 4 > text.size())
                      return fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text[pos + i];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= h - '0';
                      else if (h >= 'a' && h <= 'f')
                          code |= h - 'a' + 10;
                      else if (h >= 'A' && h <= 'F')
                          code |= h - 'A' + 10;
                      else
                          return fail("bad \\u escape digit");
                  }
                  pos += 4;
                  // Encode the code point as UTF-8.  Surrogate pairs
                  // are passed through as the individual code units —
                  // the writers in this codebase never emit them.
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
              default:
                return fail("invalid escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (consume('-')) {}
        if (consume('0')) {
            // No leading zeros.
        } else if (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        } else {
            return fail("invalid number");
        }
        if (consume('.')) {
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("digit required after '.'");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("digit required in exponent");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(text.substr(start, pos - start).c_str(),
                                 nullptr);
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > 128)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out.kind = JsonValue::Kind::Object;
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
                out.object.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        }
        return parseNumber(out);
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const JsonValue *found = nullptr;
    for (const auto &kv : object)
        if (kv.first == key)
            found = &kv.second;
    return found;
}

std::string
JsonValue::getString(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str : dflt;
}

bool
JsonValue::getBool(const std::string &key, bool dflt) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->boolean : dflt;
}

double
JsonValue::getNumber(const std::string &key, double dflt) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number : dflt;
}

bool
jsonParse(const std::string &text, JsonValue &out, std::string *error)
{
    Parser p(text);
    out = JsonValue();
    if (!p.parseValue(out, 0)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing data at byte " + std::to_string(p.pos);
        return false;
    }
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace common
} // namespace mcpat
