// Strict numeric flag values for every front end (wcp_cli, wcp_served):
// empty values, trailing garbage ("--port xyz"), overflow and out-of-range
// values throw FlagError naming the program and the flag, never parse as 0.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wcp::common {

/// A flag value that does not parse; front ends map it to a usage error.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Base-10 integer in [lo, hi]; errors read "<prog>: --<key> ...".
std::int64_t parse_flag_int(std::string_view prog, std::string_view key,
                            const std::string& value, std::int64_t lo,
                            std::int64_t hi);

/// Decimal number in [lo, hi] (NaN is rejected).
double parse_flag_double(std::string_view prog, std::string_view key,
                         const std::string& value, double lo, double hi);

}  // namespace wcp::common
