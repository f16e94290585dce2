// Golden pins for the four coordinator-hosted online detectors: the
// centralized WCP checker, the online GCP checker, the online
// Cooper-Marzullo lattice checker and the online slicer. Each case replays a
// fixed computation under a fixed seed and compares the complete run output
// — verdict, cut, times, simulator statistics, every app/monitor metric,
// exploration counters, cut storage and slice counters — against a recorded
// digest. A refactor of the simulator host or the runners must leave every
// digest unchanged.
//
// On a mismatch the test prints the observed entry in table form, so a
// deliberate change of behaviour can be re-pinned by pasting it over the
// old one.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "detect/centralized.h"
#include "detect/gcp_online.h"
#include "detect/lattice_online.h"
#include "detect/sliced.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

struct Observed {
  std::string summary;  // human-readable verdict line
  std::string full;     // complete serialization, pinned by digest
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string cut_string(const std::vector<StateIndex>& cut) {
  std::ostringstream os;
  write_cut(os, cut);
  return os.str();
}

Computation random_comp(std::uint64_t seed, std::size_t N, std::size_t n,
                        std::int64_t events, double pred_prob,
                        double drain_prob = 1.0) {
  workload::RandomSpec spec;
  spec.num_processes = N;
  spec.num_predicate = n;
  spec.events_per_process = events;
  spec.local_pred_prob = pred_prob;
  spec.drain_prob = drain_prob;
  spec.seed = seed;
  return workload::make_random(spec);
}

RunOptions run_opts(std::uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  return o;
}

RunOptions faulty_opts(std::uint64_t seed) {
  RunOptions o = run_opts(seed);
  o.faults = sim::FaultPlan::lossy_dup(0.2, 0.1, seed + 50);
  return o;
}

Observed observe(const DetectionResult& r) {
  std::ostringstream os;
  json::Writer w(os, 0);
  r.write_json(w, /*include_wall_clock=*/false, /*per_process=*/true);
  return {(r.detected ? "detected " + cut_string(r.cut) : "undetected") +
              " t=" + std::to_string(r.detect_time) +
              " end=" + std::to_string(r.end_time) +
              " events=" + std::to_string(r.sim_events),
          os.str()};
}

void write_storage(json::Writer& w, const CutStorageStats& s) {
  w.key("storage").begin_object();
  w.field("peak_bytes", s.peak_bytes);
  w.field("cuts_interned", s.cuts_interned);
  w.field("table_probes", s.table_probes);
  w.field("heap_allocs", s.heap_allocs);
  w.end_object();
}

void write_cut_field(json::Writer& w, const std::vector<StateIndex>& cut) {
  w.key("cut").begin_array();
  for (const StateIndex k : cut) w.value(static_cast<std::int64_t>(k));
  w.end_array();
}

Observed observe(const LatticeOnlineResult& r) {
  std::ostringstream os;
  json::Writer w(os, 0);
  w.begin_object();
  w.field("detected", r.detected);
  w.field("truncated", r.truncated);
  write_cut_field(w, r.cut);
  w.field("cuts_explored", r.cuts_explored);
  w.field("max_frontier", r.max_frontier);
  w.field("detect_time", static_cast<std::int64_t>(r.detect_time));
  w.key("app");
  r.app_metrics.write_json(w, /*per_process=*/true);
  w.key("monitor");
  r.monitor_metrics.write_json(w, /*per_process=*/true);
  write_storage(w, r.storage);
  w.end_object();
  return {(r.detected ? "detected " + cut_string(r.cut)
                      : std::string(r.truncated ? "truncated" : "undetected")) +
              " t=" + std::to_string(r.detect_time) +
              " cuts=" + std::to_string(r.cuts_explored),
          os.str()};
}

Observed observe(const SliceOnlineResult& r) {
  std::ostringstream os;
  json::Writer w(os, 0);
  w.begin_object();
  w.field("detected", r.detected);
  write_cut_field(w, r.cut);
  w.field("detect_time", static_cast<std::int64_t>(r.detect_time));
  w.field("states_received", r.states_received);
  w.field("jil_advances", r.jil_advances);
  w.field("clock_lookups", r.clock_lookups);
  w.field("slice_groups", r.slice_groups);
  w.field("slice_edges", r.slice_edges);
  w.field("slice_cuts", r.slice_cuts);
  w.field("slice_cuts_saturated", r.slice_cuts_saturated);
  w.key("app");
  r.app_metrics.write_json(w, /*per_process=*/true);
  w.key("monitor");
  r.monitor_metrics.write_json(w, /*per_process=*/true);
  w.end_object();
  return {(r.detected ? "detected " : "undetected ") + cut_string(r.cut) +
              " t=" + std::to_string(r.detect_time) +
              " states=" + std::to_string(r.states_received),
          os.str()};
}

struct Case {
  std::string name;
  std::function<Observed()> run;
};

/// GCP run on `comp` whose cut differs from the plain WCP cut: proof that a
/// channel predicate vetoed a pairwise-concurrent head cut at least once.
Observed gcp_vetoed(const Computation& comp,
                    std::vector<ChannelPredicate> channels,
                    std::uint64_t seed) {
  const auto r = run_gcp_centralized(comp, channels, run_opts(seed));
  const auto wcp = comp.first_wcp_cut();
  EXPECT_TRUE(wcp.has_value());
  EXPECT_TRUE(!r.detected || !wcp || r.cut != *wcp)
      << "channel predicate never vetoed a head cut";
  return observe(r);
}

std::vector<Case> cases() {
  std::vector<Case> v;
  // Centralized WCP checker.
  for (const std::uint64_t seed : {1, 2, 3}) {
    v.push_back({"checker/seed" + std::to_string(seed), [seed] {
                   return observe(run_centralized(
                       random_comp(seed + 100, 5, 3, 10, 0.3), run_opts(seed)));
                 }});
  }
  v.push_back({"checker/dense", [] {
                 return observe(run_centralized(
                     random_comp(129, 5, 3, 12, 0.6), run_opts(6)));
               }});
  v.push_back({"checker/never", [] {
                 return observe(run_centralized(
                     random_comp(7, 4, 3, 10, 0.0), run_opts(7)));
               }});
  v.push_back({"checker/compressed", [] {
                 RunOptions o = run_opts(4);
                 o.compress_clocks = true;
                 o.fifo_all = true;
                 return observe(
                     run_centralized(random_comp(104, 5, 4, 12, 0.3), o));
               }});
  v.push_back({"checker/faults", [] {
                 return observe(run_centralized(
                     random_comp(105, 5, 3, 10, 0.3), faulty_opts(5)));
               }});

  // Online GCP checker: all-empty channels, and one channel predicate of
  // each kind forcing its own veto path.
  for (const std::uint64_t seed : {1, 2}) {
    v.push_back({"gcp/all_empty/seed" + std::to_string(seed), [seed] {
                   return observe(run_gcp_centralized(
                       random_comp(seed + 200, 4, 4, 12, 0.4, 0.8),
                       ChannelPredicate::all_channels_empty(4),
                       run_opts(seed)));
                 }});
  }
  v.push_back({"gcp/empty", [] {
                 return gcp_vetoed(
                     random_comp(205, 3, 3, 10, 0.6),
                     {ChannelPredicate::empty(ProcessId(0), ProcessId(1))}, 3);
               }});
  v.push_back({"gcp/at_most", [] {
                 return gcp_vetoed(
                     random_comp(219, 3, 3, 10, 0.6),
                     {ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 0)},
                     3);
               }});
  v.push_back({"gcp/at_least", [] {
                 return gcp_vetoed(
                     random_comp(204, 3, 3, 10, 0.6),
                     {ChannelPredicate::at_least(ProcessId(1), ProcessId(2), 1)},
                     2);
               }});
  v.push_back({"gcp/never", [] {
                 return observe(run_gcp_centralized(
                     random_comp(214, 3, 3, 10, 0.0),
                     ChannelPredicate::all_channels_empty(3), run_opts(6)));
               }});
  v.push_back({"gcp/faults", [] {
                 return observe(run_gcp_centralized(
                     random_comp(215, 4, 4, 10, 0.4),
                     ChannelPredicate::all_channels_empty(4), faulty_opts(7)));
               }});

  // Online Cooper-Marzullo lattice checker.
  for (const std::uint64_t seed : {1, 2}) {
    v.push_back({"lattice/seed" + std::to_string(seed), [seed] {
                   return observe(run_lattice_online(
                       random_comp(seed + 300, 4, 4, 9, 0.3), run_opts(seed)));
                 }});
  }
  v.push_back({"lattice/never", [] {
                 return observe(run_lattice_online(
                     random_comp(303, 4, 3, 8, 0.0), run_opts(3)));
               }});
  v.push_back({"lattice/truncated", [] {
                 return observe(run_lattice_online(
                     random_comp(304, 4, 4, 9, 0.0), run_opts(4),
                     /*max_cuts=*/20));
               }});
  v.push_back({"lattice/compress_ignored", [] {
                 RunOptions o = run_opts(5);
                 o.compress_clocks = true;
                 o.fifo_all = true;
                 return observe(
                     run_lattice_online(random_comp(305, 4, 4, 9, 0.3), o));
               }});
  v.push_back({"lattice/faults", [] {
                 return observe(run_lattice_online(
                     random_comp(306, 4, 3, 9, 0.3), faulty_opts(6)));
               }});

  // Online slicer.
  for (const std::uint64_t seed : {1, 2}) {
    v.push_back({"slicer/seed" + std::to_string(seed), [seed] {
                   return observe(run_slice_online(
                       random_comp(seed + 400, 5, 4, 10, 0.3), run_opts(seed)));
                 }});
  }
  v.push_back({"slicer/never", [] {
                 return observe(run_slice_online(
                     random_comp(403, 4, 3, 10, 0.0), run_opts(3)));
               }});
  v.push_back({"slicer/capped", [] {
                 return observe(run_slice_online(
                     random_comp(404, 4, 4, 10, 0.9), run_opts(4),
                     /*count_cap=*/5));
               }});
  v.push_back({"slicer/faults", [] {
                 return observe(run_slice_online(
                     random_comp(405, 5, 3, 10, 0.3), faulty_opts(5)));
               }});
  return v;
}

struct Pin {
  const char* name;
  const char* summary;
  std::uint64_t digest;
};

// Recorded output of every case (see file comment).
constexpr Pin kPins[] = {
    {"checker/seed1", "detected [1,4,5] t=14 end=14 events=36", 0xa0e341ac9e3ac757ULL},
    {"checker/seed2", "detected [13,8,11] t=29 end=29 events=109", 0x819a92b5e786afdcULL},
    {"checker/seed3", "detected [3,4,1] t=17 end=17 events=51", 0x3996aeb736365a71ULL},
    {"checker/dense", "detected [3,7,4] t=19 end=19 events=65", 0xaa6a08b8292a087eULL},
    {"checker/never", "undetected t=0 end=43 events=91", 0x83ec4b8332eaecddULL},
    {"checker/compressed", "detected [9,2,10,7] t=26 end=26 events=92", 0x61cec83d993c35a4ULL},
    {"checker/faults", "detected [4,3,2] t=16 end=16 events=41", 0xe5c29b02f07511a8ULL},
    {"gcp/all_empty/seed1", "undetected t=0 end=54 events=125", 0xab312f97daa12d02ULL},
    {"gcp/all_empty/seed2", "detected [4,5,3,2] t=23 end=23 events=69", 0xab7ba216cc93fa1eULL},
    {"gcp/empty", "detected [2,3,1] t=13 end=13 events=29", 0x19e4181b60261b19ULL},
    {"gcp/at_most", "detected [5,10,8] t=21 end=21 events=69", 0x5318f063bf88234bULL},
    {"gcp/at_least", "detected [11,10,9] t=31 end=31 events=75", 0x43c4cc57002a69a1ULL},
    {"gcp/never", "undetected t=0 end=47 events=70", 0x5100303d8c8edfa3ULL},
    {"gcp/faults", "detected [2,1,2,1] t=77 end=77 events=61", 0xf39709024f22967bULL},
    {"lattice/seed1", "detected [8,3,4,7] t=26 cuts=677", 0x7b1fad51634dd361ULL},
    {"lattice/seed2", "detected [5,5,3,1] t=18 cuts=322", 0xbdb0e70fd2008163ULL},
    {"lattice/never", "undetected t=0 cuts=682", 0x5a74e1052ec3485aULL},
    {"lattice/truncated", "truncated t=0 cuts=21", 0x74c407f90cadcdaeULL},
    {"lattice/compress_ignored", "undetected t=0 cuts=5098", 0xc65be0240a348388ULL},
    {"lattice/faults", "detected [6,4,3] t=83 cuts=203", 0x0056407eb28532efULL},
    {"slicer/seed1", "detected [14,9,3,12] t=27 states=43", 0xe0238c55ae457055ULL},
    {"slicer/seed2", "detected [1,7,8,2] t=22 states=31", 0x0fd2d3c4b28627aaULL},
    {"slicer/never", "undetected [11,10,13] t=0 states=31", 0xad1125eea8a53ba6ULL},
    {"slicer/capped", "detected [1,1,2,1] t=7 states=6", 0xa4c060a7c9171f97ULL},
    {"slicer/faults", "detected [1,1,4] t=10 states=8", 0x3426797b4d3a0b64ULL},
};

const Pin* find_pin(const std::string& name) {
  for (const Pin& p : kPins)
    if (name == p.name) return &p;
  return nullptr;
}

TEST(CoordinatorHost, RunnerOutputsMatchPins) {
  for (const Case& c : cases()) {
    const Observed o = c.run();
    const std::uint64_t digest = fnv1a(o.full);
    const Pin* pin = find_pin(c.name);
    char line[256];
    std::snprintf(line, sizeof line, "{\"%s\", \"%s\", 0x%016" PRIx64 "ULL},",
                  c.name.c_str(), o.summary.c_str(), digest);
    if (pin == nullptr) {
      ADD_FAILURE() << "unpinned case " << line;
      continue;
    }
    EXPECT_EQ(o.summary, pin->summary) << "observed " << line;
    EXPECT_EQ(digest, pin->digest) << "observed " << line << "\n" << o.full;
  }
}

TEST(CoordinatorHost, EveryPinHasACase) {
  const auto all = cases();
  for (const Pin& p : kPins) {
    bool found = false;
    for (const Case& c : all) found = found || c.name == p.name;
    EXPECT_TRUE(found) << "stale pin " << p.name;
  }
}

}  // namespace
}  // namespace wcp::detect
