// The detector registry (detect/registry.h): every entry must answer its
// modality correctly on the committed example traces, unknown names must
// be rejected with the valid vocabulary, and sweep rows must be exactly the
// registry's verdicts.
#include "detect/registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/json.h"
#include "detect/batch.h"
#include "detect/lattice.h"
#include "trace/trace_store.h"

namespace wcp::detect {
namespace {

std::vector<Computation> committed_traces() {
  const std::filesystem::path dir = WCP_EXAMPLE_TRACES;
  std::vector<Computation> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    out.push_back(load_any_trace_file(entry.path().string()));
  return out;
}

TEST(Registry, EveryEntryAnswersItsModalityOnCommittedTraces) {
  const auto traces = committed_traces();
  ASSERT_GE(traces.size(), 4u) << "committed example traces went missing";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Computation& comp = traces[i];
    const auto oracle = comp.first_wcp_cut();
    const DefinitelyResult def = detect_definitely(comp, -1);
    for (const Detector& d : detectors()) {
      DetectParams p;
      p.threads = 2;
      const Verdict v = run_detector(comp, d.name, p);
      ASSERT_EQ(v.detector, &d);
      if (d.modality == Modality::kPossibly) {
        EXPECT_EQ(v.detected, oracle.has_value()) << d.name << " trace " << i;
        EXPECT_EQ(v.cut, oracle.value_or(std::vector<StateIndex>{}))
            << d.name << " trace " << i;
      } else {
        EXPECT_EQ(v.detected, def.definitely) << d.name << " trace " << i;
        // The sliced search may find a different avoiding observation, but
        // a witness exists exactly when definitely(WCP) fails.
        EXPECT_EQ(v.cut.empty(), def.witness.empty())
            << d.name << " trace " << i;
        if (d.name == "definitely") {
          EXPECT_EQ(v.cut, def.witness);
        }
      }
    }
  }
}

// The report's bound is the entry's work bound from the paper, and ratio
// the headline cost over it.
json::Value report_of(const Computation& comp, std::string_view name) {
  std::ostringstream oss;
  json::Writer w(oss, 0);
  write_verdict_report(w, "test", run_detector(comp, name, {}),
                       /*include_wall_clock=*/false);
  return json::parse(oss.str()).value();
}

TEST(Registry, WorkBoundsFollowThePaper) {
  const auto comp = committed_traces().front();
  const ReportParams rp = report_params(comp, 1);
  const double n = static_cast<double>(rp.n);
  const double m = static_cast<double>(rp.m);
  ASSERT_GT(m, 0);
  const auto token = report_of(comp, "token");
  EXPECT_EQ(token.find("bound")->as_number(), n * n * m);
  EXPECT_DOUBLE_EQ(token.find("ratio")->as_number(),
                   run_detector(comp, "token", {}).cost / (n * n * m));
  EXPECT_EQ(report_of(comp, "dd").find("bound")->as_number(),
            static_cast<double>(rp.N) * m);
  EXPECT_EQ(report_of(comp, "lattice").find("bound")->kind,
            json::Value::Kind::kNull);
}

TEST(Registry, UnknownNameListsTheValidNames) {
  const auto comp = committed_traces().front();
  EXPECT_EQ(find_detector("nope"), nullptr);
  try {
    (void)run_detector(comp, "nope", {});
    FAIL() << "unknown detector accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
    for (const Detector& d : detectors())
      EXPECT_NE(what.find(std::string(d.name)), std::string::npos)
          << d.name << " missing from: " << what;
  }
}

TEST(Registry, SweepRowsAreTheRegistryVerdicts) {
  const auto comp = committed_traces().front();
  std::vector<std::string> names;
  for (const Detector& d : detectors()) names.emplace_back(d.name);
  const auto jobs = cross_jobs(names, {1, 2});
  const auto rows = run_sweep(comp, jobs, /*threads=*/2);
  ASSERT_EQ(rows.size(), jobs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Verdict v = run_detector(comp, jobs[i].algo, jobs[i].params);
    EXPECT_EQ(rows[i].algo, jobs[i].algo);
    EXPECT_EQ(rows[i].seed, jobs[i].params.seed);
    EXPECT_EQ(rows[i].verdict.detector, v.detector) << jobs[i].algo;
    EXPECT_EQ(rows[i].verdict.detected, v.detected) << jobs[i].algo;
    EXPECT_EQ(rows[i].verdict.cut, v.cut) << jobs[i].algo;
    EXPECT_EQ(rows[i].verdict.cost, v.cost) << jobs[i].algo;
    std::ostringstream oss;
    json::Writer w(oss, 0);
    write_verdict_report(w, "sweep:" + jobs[i].algo, v,
                         /*include_wall_clock=*/false);
    EXPECT_EQ(rows[i].report, oss.str()) << jobs[i].algo;
  }
}

TEST(Registry, DefinitelyVerdictLineCarriesNoWitness) {
  // The wcp-verdict/1 line of a definitely-family entry reports the
  // definitely verdict with an empty cut; the witness lives in --json.
  for (const Computation& comp : committed_traces()) {
    const Verdict v = run_detector(comp, "definitely", {});
    std::ostringstream oss;
    write_verdict_line(oss, v.detected, v.cut);
    EXPECT_NE(oss.str().find("\"cut\": []"), std::string::npos) << oss.str();
  }
}

}  // namespace
}  // namespace wcp::detect
