// FNV-1a hash over the components of a global-state cut.
//
// The one shared definition of the cut hash used by every detector that
// keys hash containers on cuts (the definitely BFS visited set, slice
// quotient interning, the online lattice checker — all through the flat
// CutTable, which stores the hash of each cut it interns).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace wcp {

struct CutHash {
  std::size_t operator()(std::span<const StateIndex> cut) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (StateIndex k : cut) {
      h ^= static_cast<std::size_t>(k);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  std::size_t operator()(const std::vector<StateIndex>& cut) const noexcept {
    return (*this)(std::span<const StateIndex>(cut));
  }
};

}  // namespace wcp
