#include "oracles/json_check.h"

#include <cctype>

namespace nimbus::oracles {
namespace {

// Recursive-descent validator over the RFC 8259 grammar.  `p` advances
// past the parsed construct; any failure returns false immediately.
struct Parser {
  const char* p;
  const char* end;
  int depth = 0;

  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool lit(const char* s) {
    const char* q = p;
    while (*s != '\0') {
      if (q == end || *q != *s) return false;
      ++q;
      ++s;
    }
    p = q;
    return true;
  }

  bool string() {
    if (p == end || *p != '"') return false;
    ++p;
    while (p != end) {
      unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p == end) return false;
        char e = *p;
        if (e == 'u') {
          ++p;
          for (int i = 0; i < 4; ++i) {
            if (p == end || !std::isxdigit(static_cast<unsigned char>(*p))) {
              return false;
            }
            ++p;
          }
          continue;
        }
        if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
            e != 'n' && e != 'r' && e != 't') {
          return false;
        }
        ++p;
        continue;
      }
      if (c < 0x20) return false;  // unescaped control char
      ++p;
    }
    return false;  // unterminated
  }

  bool digits() {
    if (p == end || !std::isdigit(static_cast<unsigned char>(*p))) return false;
    while (p != end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    return true;
  }

  bool number() {
    if (p != end && *p == '-') ++p;
    if (p == end) return false;
    if (*p == '0') {
      ++p;
    } else if (!digits()) {
      return false;
    }
    if (p != end && *p == '.') {
      ++p;
      if (!digits()) return false;
    }
    if (p != end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p != end && (*p == '+' || *p == '-')) ++p;
      if (!digits()) return false;
    }
    return true;
  }

  bool value() {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    bool ok = false;
    if (p == end) {
      ok = false;
    } else if (*p == '{') {
      ok = object();
    } else if (*p == '[') {
      ok = array();
    } else if (*p == '"') {
      ok = string();
    } else if (*p == 't') {
      ok = lit("true");
    } else if (*p == 'f') {
      ok = lit("false");
    } else if (*p == 'n') {
      ok = lit("null");
    } else {
      ok = number();
    }
    --depth;
    return ok;
  }

  bool object() {
    ++p;  // past '{'
    skip_ws();
    if (p != end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p == end || *p != ':') return false;
      ++p;
      if (!value()) return false;
      skip_ws();
      if (p == end) return false;
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == '}') {
        ++p;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++p;  // past '['
    skip_ws();
    if (p != end && *p == ']') {
      ++p;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (p == end) return false;
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == ']') {
        ++p;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

bool json_valid(const std::string& text) {
  Parser ps{text.data(), text.data() + text.size()};
  if (!ps.value()) return false;
  ps.skip_ws();
  return ps.p == ps.end;
}

}  // namespace nimbus::oracles
