#ifndef FLOWERCDN_UTIL_JSON_STRING_H_
#define FLOWERCDN_UTIL_JSON_STRING_H_

#include <cstdio>
#include <ostream>
#include <string_view>

namespace flowercdn {

/// Writes `s` as a JSON string literal: quoted, with `"` and `\` escaped,
/// newline and tab as `\n` and `\t`, and every other control character
/// (below 0x20, which JSON forbids raw) as `\u00XX`. Runner JSON and
/// scenario JSON write every string this way.
inline void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_JSON_STRING_H_
