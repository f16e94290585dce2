// Test-only reference for the possibly(WCP) lattice search: the original
// std::queue + std::unordered_set<std::vector<StateIndex>> breadth-first
// search over consistent cuts, with pairwise happened_before consistency
// checks, kept as the oracle the production searches are compared against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cut_hash.h"
#include "trace/computation.h"

namespace wcp::detect {

struct RefLatticeResult {
  bool detected = false;
  bool truncated = false;
  std::vector<StateIndex> cut;
  std::int64_t cuts_explored = 0;
  std::int64_t max_frontier = 0;
  /// When detected: the advanced slot of every BFS step from the bottom cut.
  std::vector<std::uint32_t> witness_path;
  /// Distinct cuts the visited set held when the search stopped.
  std::int64_t cuts_interned = 0;
};

inline RefLatticeResult ref_detect_lattice(const Computation& comp,
                                           std::int64_t max_cuts) {
  using Cut = std::vector<StateIndex>;
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  RefLatticeResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  // Visited set, mapping each cut to its BFS parent and the advanced slot.
  std::unordered_map<Cut, std::pair<Cut, std::uint32_t>, CutHash> parent;
  const Cut initial(n, 1);
  std::queue<Cut> frontier;
  frontier.push(initial);
  parent.emplace(initial, std::make_pair(initial, 0u));

  while (!frontier.empty()) {
    res.max_frontier = std::max(
        res.max_frontier, static_cast<std::int64_t>(frontier.size()));
    Cut cut = std::move(frontier.front());
    frontier.pop();
    ++res.cuts_explored;
    if (satisfies(cut)) {
      res.detected = true;
      for (Cut c = cut; c != initial;) {
        const auto& [p, slot] = parent.at(c);
        res.witness_path.push_back(slot);
        c = p;
      }
      std::reverse(res.witness_path.begin(), res.witness_path.end());
      res.cut = std::move(cut);
      break;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      break;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (cut[s] + 1 > comp.num_states(procs[s])) continue;
      Cut next = cut;
      next[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], next[s], procs[t], next[t]) ||
            comp.happened_before(procs[t], next[t], procs[s], next[s]))
          consistent = false;
      }
      if (consistent &&
          parent.emplace(next, std::make_pair(cut, static_cast<std::uint32_t>(s)))
              .second)
        frontier.push(std::move(next));
    }
  }
  res.cuts_interned = static_cast<std::int64_t>(parent.size());
  return res;
}

}  // namespace wcp::detect
