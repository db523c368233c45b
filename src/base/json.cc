#include "base/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "base/number.h"

namespace fsmoe::json {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    bool parse(Value *out, std::string *error)
    {
        skipWs();
        if (!value(out))
            return fail(error);
        skipWs();
        if (pos_ != s_.size())
            return fail(error, "trailing characters");
        return true;
    }

  private:
    bool fail(std::string *error, const char *what = "malformed JSON")
    {
        if (error) {
            std::ostringstream oss;
            oss << what << " at byte " << pos_;
            *error = oss.str();
        }
        return false;
    }

    bool value(Value *out)
    {
        // Recursion guard: reject pathological nesting instead of
        // overflowing the stack on attacker-shaped input.
        if (depth_ >= 64)
            return false;
        ++depth_;
        const bool ok = valueInner(out);
        --depth_;
        return ok;
    }

    bool valueInner(Value *out)
    {
        skipWs();
        switch (peek()) {
          case '{': return object(out);
          case '[': return array(out);
          case '"':
            out->kind = Value::Kind::String;
            return string(&out->string);
          case 't': return literal("true", out, true);
          case 'f': return literal("false", out, false);
          case 'n':
            out->kind = Value::Kind::Null;
            return word("null");
          default: return number(out);
        }
    }

    bool object(Value *out)
    {
        out->kind = Value::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string name;
            if (!string(&name))
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            Value member;
            if (!value(&member))
                return false;
            out->object.emplace_back(std::move(name), std::move(member));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array(Value *out)
    {
        out->kind = Value::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            Value element;
            if (!value(&element))
                return false;
            out->array.push_back(std::move(element));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string(std::string *out)
    {
        if (peek() != '"')
            return false;
        ++pos_;
        out->clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= s_.size())
                return false;
            char esc = s_[pos_++];
            switch (esc) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // Our writers only emit \u00xx control escapes;
                // reject anything wider rather than mis-decode it.
                if (code > 0xff)
                    return false;
                *out += static_cast<char>(code);
                break;
              }
              default: return false;
            }
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number(Value *out)
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        out->kind = Value::Kind::Number;
        return static_cast<bool>(parseNumber(
            std::string_view(s_).substr(start, pos_ - start),
            &out->number));
    }

    bool literal(const char *text, Value *out, bool value)
    {
        out->kind = Value::Kind::Bool;
        out->boolean = value;
        return word(text);
    }

    bool word(const char *text)
    {
        size_t n = std::strlen(text);
        if (s_.compare(pos_, n, text) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
parse(const std::string &text, Value *out, std::string *error)
{
    return Parser(text).parse(out, error);
}

bool
asString(const Value *v, std::string *out)
{
    if (v == nullptr || v->kind != Value::Kind::String)
        return false;
    *out = v->string;
    return true;
}

bool
asNumber(const Value *v, double *out)
{
    if (v == nullptr || v->kind != Value::Kind::Number)
        return false;
    *out = v->number;
    return true;
}

bool
asInt(const Value *v, int64_t *out)
{
    // 2^63 is exact in a double, and int64 holds [-2^63, 2^63).
    constexpr double kLimit = 9223372036854775808.0;
    double d;
    if (!asNumber(v, &d) || d != std::trunc(d) || d < -kLimit ||
        d >= kLimit)
        return false;
    *out = static_cast<int64_t>(d);
    return true;
}

bool
asBool(const Value *v, bool *out)
{
    if (v == nullptr || v->kind != Value::Kind::Bool)
        return false;
    *out = v->boolean;
    return true;
}

std::string
fmtDouble(double v)
{
    // The bytes of snprintf's "%.17g" in the C locale, which the
    // standard defines this call to produce, without printf's format
    // parsing and locale lookups.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, 17);
    return std::string(buf, r.ptr);
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace fsmoe::json
