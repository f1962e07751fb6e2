#include "base/json_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace turbosyn {

void json_escape(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
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
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  json_escape(out, s);
  out += '"';
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_string(out, s);
  return out;
}

std::string json_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

namespace {

/// Cursor over one protocol line; every helper reports failure by setting
/// `error` and returning false, and the caller unwinds.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(std::string message) {
    if (error.empty()) error = std::move(message);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' || text[pos] == '\n')) {
      ++pos;
    }
  }
  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  bool consume(char ch) {
    skip_ws();
    if (pos >= text.size() || text[pos] != ch) {
      return fail(std::string("expected '") + ch + "' at offset " + std::to_string(pos));
    }
    ++pos;
    return true;
  }
  bool peek_is(char ch) {
    skip_ws();
    return pos < text.size() && text[pos] == ch;
  }
};

int hex_digit(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

bool parse_string(Cursor& c, std::string& out) {
  if (!c.consume('"')) return false;
  out.clear();
  while (c.pos < c.text.size()) {
    // The run up to the next quote, backslash or control character is
    // copied in one append.
    std::size_t end = c.pos;
    while (end < c.text.size() && c.text[end] != '"' && c.text[end] != '\\' &&
           static_cast<unsigned char>(c.text[end]) >= 0x20) {
      ++end;
    }
    out.append(c.text.substr(c.pos, end - c.pos));
    c.pos = end;
    if (c.pos >= c.text.size()) break;
    const char ch = c.text[c.pos++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) {
      return c.fail("unescaped control character in string");
    }
    if (c.pos >= c.text.size()) break;  // ch is a '\' that ends the text
    const char esc = c.text[c.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (c.pos + 4 > c.text.size()) return c.fail("truncated \\u escape");
        int code = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = hex_digit(c.text[c.pos + static_cast<std::size_t>(i)]);
          if (digit < 0) return c.fail("bad \\u escape digits");
          code = code * 16 + digit;
        }
        c.pos += 4;
        // The emitters only produce \u00XX for control characters; decoding
        // is bounded to ASCII so a multi-byte codepoint is an explicit error
        // instead of mojibake.
        if (code >= 0x80) return c.fail("\\u escape above 0x7f is not supported");
        out += static_cast<char>(code);
        break;
      }
      default:
        return c.fail(std::string("unknown escape '\\") + esc + "'");
    }
  }
  return c.fail("unterminated string");
}

bool parse_scalar(Cursor& c, JsonScalar& out) {
  c.skip_ws();
  if (c.pos >= c.text.size()) return c.fail("missing value");
  const char ch = c.text[c.pos];
  if (ch == '"') {
    out.kind = JsonScalar::Kind::kString;
    return parse_string(c, out.text);
  }
  if (ch == '{' || ch == '[') return c.fail("nested objects/arrays are not supported");
  // Bare literal: number, true, false, null — everything up to a delimiter.
  const std::size_t start = c.pos;
  while (c.pos < c.text.size() && c.text[c.pos] != ',' && c.text[c.pos] != '}' &&
         c.text[c.pos] != ' ' && c.text[c.pos] != '\t') {
    ++c.pos;
  }
  const std::string_view token = c.text.substr(start, c.pos - start);
  if (token == "true" || token == "false") {
    out.kind = JsonScalar::Kind::kBool;
    out.boolean = token == "true";
    out.text = token;
    return true;
  }
  if (token == "null") {
    out.kind = JsonScalar::Kind::kNull;
    out.text = token;
    return true;
  }
  if (token.empty()) return c.fail("missing value");
  for (const char t : token) {
    const bool numeric = (t >= '0' && t <= '9') || t == '-' || t == '+' || t == '.' ||
                         t == 'e' || t == 'E';
    if (!numeric) return c.fail("bad literal '" + std::string(token) + "'");
  }
  out.kind = JsonScalar::Kind::kNumber;
  out.text = token;
  return true;
}

}  // namespace

bool parse_flat_json_object(std::string_view line,
                            std::vector<std::pair<std::string, JsonScalar>>& fields,
                            std::string* error) {
  fields.clear();
  Cursor c{line};
  const auto report = [&](bool ok) {
    if (!ok && error != nullptr) *error = c.error.empty() ? "malformed object" : c.error;
    return ok;
  };
  if (!c.consume('{')) return report(false);
  if (!c.peek_is('}')) {
    while (true) {
      std::string key;
      if (!parse_string(c, key)) return report(false);
      if (!c.consume(':')) return report(false);
      JsonScalar value;
      if (!parse_scalar(c, value)) return report(false);
      fields.emplace_back(std::move(key), std::move(value));
      if (c.peek_is(',')) {
        c.consume(',');
        continue;
      }
      break;
    }
  }
  if (!c.consume('}')) return report(false);
  if (!c.at_end()) return report(c.fail("trailing garbage after object"));
  return true;
}

}  // namespace turbosyn
