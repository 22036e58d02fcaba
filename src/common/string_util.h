#ifndef POPDB_COMMON_STRING_UTIL_H_
#define POPDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace popdb {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// SQL LIKE matching with '%' (any run) and '_' (any single char)
/// wildcards. Case sensitive, no escape support.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// True if `text` starts with / ends with / contains `piece`.
bool StartsWith(std::string_view text, std::string_view piece);
bool EndsWith(std::string_view text, std::string_view piece);
bool Contains(std::string_view text, std::string_view piece);

/// 64-bit FNV-1a hash of `bytes`.
uint64_t Fnv1a64(std::string_view bytes);

}  // namespace popdb

#endif  // POPDB_COMMON_STRING_UTIL_H_
