#include "slice/online_slicer.h"

#include <utility>

#include "common/error.h"

namespace wcp::slice {

SlicerCore::SlicerCore(const app::StateStream& stream, app::CoreHooks hooks)
    : stream_(stream), hooks_(std::move(hooks)) {
  WCP_REQUIRE(stream_.slots() >= 1, "empty predicate");
  candidate_.assign(stream_.slots(), 1);
}

void SlicerCore::on_state(std::size_t s) {
  (void)s;
  if (done_) return;
  advance();
}

void SlicerCore::on_eos(std::size_t s) {
  (void)s;
  if (done_) return;
  advance();
}

void SlicerCore::advance() {
  const auto arrived = [&](std::size_t s) {
    return candidate_[s] <= stream_.last(s);
  };

  // Run the jil.h fixpoint over whatever has arrived. Every advance is
  // forced by arrived data only (a false state, or a state causally
  // dominated by another candidate component), so the candidate is always
  // a lower bound of the true least satisfying cut.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < n() && !changed; ++s) {
      if (!arrived(s)) {
        if (stream_.eos(s)) {
          done_ = true;  // the stream ended below the candidate
          detected_ = false;
          return;
        }
        continue;
      }
      if (!stream_.pred(s, candidate_[s])) {
        ++candidate_[s];
        ++jil_advances_;
        changed = true;
        break;
      }
      for (std::size_t t = 0; t < n() && !changed; ++t) {
        if (t == s || !arrived(t)) continue;
        ++clock_lookups_;
        hooks_.add_work(1);
        // (s, cut[s]) -> (t, cut[t]): advance s past what t has seen.
        const StateIndex floor = stream_.clock(t, candidate_[t], s);
        if (candidate_[s] <= floor) {
          jil_advances_ += floor + 1 - candidate_[s];
          candidate_[s] = floor + 1;
          changed = true;
        }
      }
    }
  }

  // Stable and fully arrived: the candidate is the least satisfying
  // consistent cut.
  for (std::size_t s = 0; s < n(); ++s)
    if (!arrived(s)) return;
  done_ = true;
  detected_ = true;
}

}  // namespace wcp::slice
