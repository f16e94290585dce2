#include "common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace wcp::common {

namespace {

template <typename T, typename Convert>
T parse(std::string_view prog, std::string_view key, const std::string& value,
        T lo, T hi, std::string_view expects, Convert convert) {
  errno = 0;
  char* end = nullptr;
  const T v = convert(value.c_str(), &end);
  std::ostringstream os;
  os << prog << ": --" << key << ' ';
  if (end == value.c_str() || *end != '\0' || errno != 0) {
    os << "expects " << expects << ", got \"" << value << '"';
  } else if (!(v >= lo && v <= hi)) {  // also rejects NaN
    os << "must be in [" << lo << ", " << hi << "], got " << v;
  } else {
    return v;
  }
  throw FlagError(os.str());
}

}  // namespace

std::int64_t parse_flag_int(std::string_view prog, std::string_view key,
                            const std::string& value, std::int64_t lo,
                            std::int64_t hi) {
  return parse<std::int64_t>(
      prog, key, value, lo, hi, "an integer",
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double parse_flag_double(std::string_view prog, std::string_view key,
                         const std::string& value, double lo, double hi) {
  return parse<double>(prog, key, value, lo, hi, "a number", std::strtod);
}

}  // namespace wcp::common
