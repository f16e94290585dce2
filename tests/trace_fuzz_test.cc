// Randomized trace round-trip properties and the malformed-trace corpus:
// every generated computation must survive text and binary serialization
// clock-for-clock with identical detector verdicts at every thread count,
// and every corrupt input must die with a descriptive parse error.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "detect/lattice.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace wcp {
namespace {

constexpr std::int64_t kCutCap = 20'000;

void expect_same_clocks(const Computation& a, const Computation& b) {
  ASSERT_EQ(a.num_processes(), b.num_processes());
  for (std::size_t p = 0; p < a.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    ASSERT_EQ(a.num_states(pid), b.num_states(pid));
    for (StateIndex k = 1; k <= a.num_states(pid); ++k) {
      ASSERT_EQ(a.local_pred(pid, k), b.local_pred(pid, k))
          << "p=" << p << " k=" << k;
      ASSERT_EQ(a.ground_truth_clock(pid, k), b.ground_truth_clock(pid, k))
          << "p=" << p << " k=" << k;
    }
  }
}

void expect_same_verdicts(const Computation& a, const Computation& b) {
  ASSERT_EQ(a.first_wcp_cut(), b.first_wcp_cut());
  const auto la = detect::detect_lattice(a, kCutCap);
  const auto lb = detect::detect_lattice(b, kCutCap);
  ASSERT_EQ(la.detected, lb.detected);
  ASSERT_EQ(la.truncated, lb.truncated);
  ASSERT_EQ(la.cut, lb.cut);
  ASSERT_EQ(la.cuts_explored, lb.cuts_explored);
  ASSERT_EQ(la.witness_path, lb.witness_path);
  const auto da = detect::detect_definitely(a, kCutCap);
  const auto db = detect::detect_definitely(b, kCutCap);
  ASSERT_EQ(da.definitely, db.definitely);
  ASSERT_EQ(da.truncated, db.truncated);
  ASSERT_EQ(da.witness, db.witness);
  ASSERT_EQ(da.witness_path, db.witness_path);
}

TEST(TraceFuzz, RandomComputationsRoundTripBothFormats) {
  // Sweep the workload space, including the all-false and all-true
  // predicate extremes and traces that leave messages in flight.
  const double pred_probs[] = {0.0, 0.25, 0.6, 1.0};
  const double drain_probs[] = {0.4, 1.0};
  std::uint64_t seed = 0;
  for (std::size_t np = 3; np <= 6; ++np)
    for (const double pp : pred_probs)
      for (const double dp : drain_probs) {
        workload::RandomSpec spec;
        spec.num_processes = np;
        spec.num_predicate = np >= 4 ? np / 2 : np;
        spec.events_per_process = 4 + static_cast<int>(seed % 7);
        spec.local_pred_prob = pp;
        spec.drain_prob = dp;
        spec.seed = 101 + seed++;
        const auto original = workload::make_random(spec);

        SCOPED_TRACE("spec N=" + std::to_string(np) +
                     " pp=" + std::to_string(pp) +
                     " dp=" + std::to_string(dp));
        // Text round trip.
        const auto from_text = trace_from_string(trace_to_string(original));
        expect_same_clocks(original, from_text);
        // Binary round trip.
        std::ostringstream os;
        save_tracebin(os, original);
        std::istringstream is(os.str());
        const auto from_bin = load_tracebin(is);
        expect_same_clocks(original, from_bin);
        // The loader serves columns straight from the parsed bytes (message
        // ids keep their file order), so save-then-load is a byte-level
        // fixed point from the very first generation.
        std::ostringstream os2;
        save_tracebin(os2, from_bin);
        ASSERT_EQ(os.str(), os2.str());
        std::istringstream is2(os2.str());
        const auto gen2 = load_tracebin(is2);
        std::ostringstream os3;
        save_tracebin(os3, gen2);
        ASSERT_EQ(os2.str(), os3.str());
      }
}

TEST(TraceFuzz, RoundTripsPreserveDetectorVerdicts) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 10;
    spec.local_pred_prob = seed % 2 ? 0.5 : 0.2;
    spec.drain_prob = 0.7;
    spec.seed = 900 + seed;
    const auto original = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));

    const auto from_text = trace_from_string(trace_to_string(original));
    expect_same_verdicts(original, from_text);
    std::ostringstream os;
    save_tracebin(os, original);
    std::istringstream is(os.str());
    const auto from_bin = load_tracebin(is);
    expect_same_verdicts(original, from_bin);
  }
}

TEST(TraceFuzz, VerdictsAndWitnessesAreThreadInvariant) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 6;
    spec.num_predicate = 3;
    spec.events_per_process = 9;
    spec.local_pred_prob = 0.45;
    spec.seed = 500 + seed;
    const auto c = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));

    const auto l1 = detect::detect_lattice(c, kCutCap, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto lt = detect::detect_lattice(c, kCutCap, threads);
      ASSERT_EQ(lt.detected, l1.detected);
      ASSERT_EQ(lt.cut, l1.cut);
      ASSERT_EQ(lt.cuts_explored, l1.cuts_explored);
      ASSERT_EQ(lt.witness_path, l1.witness_path) << threads << " threads";
      ASSERT_EQ(lt.trace_store.peak_bytes, l1.trace_store.peak_bytes);
      ASSERT_EQ(lt.trace_store.delta_entries, l1.trace_store.delta_entries);
    }
  }
}

TEST(TraceFuzz, MappedLoaderMatchesHeapLoaderAtAllThreadCounts) {
  // The mmap fast path must be invisible to the detectors: verdicts,
  // explored-cut counts, and witness paths are byte-for-byte identical
  // whether the columns live in heap vectors or in the page cache, with
  // and without the replay check, at every thread count.
  const std::string path =
      ::testing::TempDir() + "/wcp_fuzz_mapped.tracebin";
  TraceLoadOptions trusted;
  trusted.verify_replay = false;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 9;
    spec.local_pred_prob = seed % 2 ? 0.5 : 0.25;
    spec.drain_prob = 0.7;
    spec.seed = 1300 + seed;
    const auto original = workload::make_random(spec);
    SCOPED_TRACE("seed " + std::to_string(spec.seed));
    save_tracebin_file(path, original);

    const auto verified = load_any_trace_file(path);
    const auto fast = load_any_trace_file(path, trusted);
    expect_same_clocks(original, verified);
    expect_same_clocks(original, fast);

    const auto l1 = detect::detect_lattice(original, kCutCap, 1);
    const auto d1 = detect::detect_definitely(original, kCutCap);
    for (const Computation* c : {&verified, &fast}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const auto lt = detect::detect_lattice(*c, kCutCap, threads);
        ASSERT_EQ(lt.detected, l1.detected) << threads << " threads";
        ASSERT_EQ(lt.cut, l1.cut);
        ASSERT_EQ(lt.cuts_explored, l1.cuts_explored);
        ASSERT_EQ(lt.witness_path, l1.witness_path);
      }
      const auto dt = detect::detect_definitely(*c, kCutCap);
      ASSERT_EQ(dt.definitely, d1.definitely);
      ASSERT_EQ(dt.witness, d1.witness);
      ASSERT_EQ(dt.witness_path, d1.witness_path);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFuzz, MalformedTraceCorpusFailsWithLineErrors) {
  // Every entry exercises a distinct reader rejection; all must throw
  // std::invalid_argument whose message names the offending line.
  const char* corpus[] = {
      "wcp-trace 1\nprocesses 0\nend\n",              // zero processes
      "wcp-trace 1\nprocesses -3\nend\n",             // negative count
      "wcp-trace 1\nprocesses 99999999999999\nend\n", // > int32 max
      "wcp-trace 1\nprocesses 2\nprocesses 2\nend\n", // duplicate directive
      "wcp-trace 1\npredicate 0\nend\n",              // predicate before N
      "wcp-trace 1\nprocesses 2\npredicate 0 0\nend\n",  // duplicate pid
      "wcp-trace 1\nprocesses 2\npredicate 2\nend\n",    // pid out of range
      "wcp-trace 1\nprocesses 2\ndefault 0 7\nend\n",    // value not in {0,1}
      "wcp-trace 1\nprocesses 2\ndefault 5 1\nend\n",    // pid out of range
      "wcp-trace 1\nprocesses 2\nsend 0\nend\n",         // missing receiver
      "wcp-trace 1\nprocesses 2\nsend 0 0\nend\n",       // self-send
      "wcp-trace 1\nprocesses 2\nsend 0 3\nend\n",       // receiver >= N
      "wcp-trace 1\nprocesses 2\nrecv 0\nend\n",         // recv before send
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv 1\nend\n",  // unsent id
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv -1\nend\n", // negative id
      "wcp-trace 1\nprocesses 2\nsend 0 1\nrecv 0\nrecv 0\nend\n",  // double
      "wcp-trace 1\nprocesses 2\nmark 0\nend\n",         // missing value
      "wcp-trace 1\nprocesses 2\nmark 0 1 1\nend\n",     // trailing token
      "wcp-trace 1\nprocesses 2\nmark zero 1\nend\n",    // unparseable pid
      "wcp-trace 1\nprocesses 2\nsend 0x0 1\nend\n",     // hex garbage
      "wcp-trace 1\nprocesses 2\nbogus 1 2\nend\n",      // unknown directive
      "wcp-trace 1\nprocesses 2\nsend 0 1\n",            // missing end
      "wcp-trace 1\nprocesses 2\nend 1\n",               // token after end
      "wcp-trace 1\nprocesses 2\nend\nmark 0 1\n",       // content after end
  };
  for (const char* text : corpus) {
    SCOPED_TRACE(text);
    try {
      (void)trace_from_string(text);
      FAIL() << "expected parse error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace wcp
