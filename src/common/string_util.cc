#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace popdb {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

namespace {
// Recursive matcher over (text position, pattern position). The pattern
// grammar is tiny, so plain recursion with the greedy '%' loop is clear and
// fast enough.
bool LikeMatchImpl(std::string_view text, size_t ti, std::string_view pat,
                   size_t pi) {
  while (pi < pat.size()) {
    const char pc = pat[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < pat.size() && pat[pi] == '%') ++pi;
      if (pi == pat.size()) return true;
      for (size_t k = ti; k <= text.size(); ++k) {
        if (LikeMatchImpl(text, k, pat, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pc != '_' && pc != text[ti]) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}
}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  return LikeMatchImpl(text, 0, pattern, 0);
}

bool StartsWith(std::string_view text, std::string_view piece) {
  return text.size() >= piece.size() &&
         text.substr(0, piece.size()) == piece;
}

bool EndsWith(std::string_view text, std::string_view piece) {
  return text.size() >= piece.size() &&
         text.substr(text.size() - piece.size()) == piece;
}

bool Contains(std::string_view text, std::string_view piece) {
  return text.find(piece) != std::string_view::npos;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace popdb
