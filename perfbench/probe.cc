// wcp_probe — the benchmark's own program, driven by perfbench/run.py.
//
//   wcp_probe stamp
//       Build facts of this binary (compiler, optimisation, NDEBUG) as JSON.
//   wcp_probe gen-lattice <out.tracebin> --seed s [--N k] [--events k]
//       The `lattice` workload's input: one pinned random communication
//       pattern, relabelled by the seed (see gen_lattice below).
//   wcp_probe serve-load <wcp_served> --traces a,b,.. --rate r
//                        [--gc-every k] [--spans out.json] [--run id]
//       Starts the daemon as a child, opens one connection per trace and
//       streams every trace as SNAPSHOT frames on an open-loop schedule;
//       prints ACK latencies, verdicts and the daemon's CPU time and RSS.
//   wcp_probe layers <in.tracebin> --lattice-trace <l.tracebin> --seed s
//                    --threads p [--spans out.json] [--run id]
//       Times calls into each layer's public functions on one trace; the
//       lattice search runs on the lattice workload's trace (see cmd_layers).
//
// Every command prints one JSON object on stdout. With --spans, the spans
// recorded around layer calls are kept in memory and written once at exit.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "detect/lattice.h"
#include "detect/offline.h"
#include "detect/stream_core.h"
#include "detect/token_vc.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/stream_buffer.h"
#include "serve/tcp.h"
#include "slice/online_slicer.h"
#include "trace/computation.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

extern char** environ;

namespace {

using namespace wcp;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span recorder; off unless --spans names an output file.
class Tracer {
 public:
  void enable(std::string path, std::string run) {
    path_ = std::move(path);
    run_ = std::move(run);
  }
  [[nodiscard]] bool on() const { return !path_.empty(); }

  int begin(std::string name, int parent, std::int64_t start = 0) {
    if (!on()) return -1;
    spans_.push_back({std::move(name), start ? start : now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, std::int64_t end = 0) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns =
        end ? end : now_ns();
  }

  /// Writes every span once: {"run", "spans": [{name, start_ns, end_ns,
  /// parent}]}, parent being an index into the same list (-1 = root).
  void write() const {
    if (!on()) return;
    std::ofstream os(path_);
    json::Writer w(os, 0);
    w.begin_object();
    w.field("run", std::string_view(run_));
    w.key("spans").begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", std::string_view(s.name));
      w.field("start_ns", s.start_ns);
      w.field("end_ns", s.end_ns);
      w.field("parent", s.parent);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    if (!os) throw std::runtime_error("cannot write spans to " + path_);
  }

 private:
  std::string path_;
  std::string run_;
  std::vector<Span> spans_;
};

Tracer g_trace;

/// Results of timed loops land here so the loops cannot be optimised away.
volatile std::int64_t g_sink = 0;

class ScopedSpan {
 public:
  ScopedSpan(std::string name, int parent)
      : id_(g_trace.begin(std::move(name), parent)) {}
  ~ScopedSpan() { g_trace.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_;
};

// ---- arguments -------------------------------------------------------------

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& def = "") const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : it->second;
  }
  [[nodiscard]] std::int64_t num(const std::string& k,
                                 std::int64_t def) const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : std::stoll(it->second);
  }
  [[nodiscard]] double real(const std::string& k, double def) const {
    const auto it = flags.find(k);
    return it == flags.end() ? def : std::stod(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      if (i + 1 >= argc) throw std::invalid_argument(s + " needs a value");
      a.flags[s.substr(2)] = argv[++i];
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

// ---- stamp -----------------------------------------------------------------

int cmd_stamp() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  json::Writer w(std::cout, 0);
  w.begin_object();
  w.field("compiler", std::string_view(__VERSION__));
  w.field("optimized", optimized);
  w.field("ndebug", ndebug);
  w.field("hardware_threads",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---- gen-lattice -----------------------------------------------------------

/// The lattice search visits every consistent cut, and their number is
/// exponential in the communication pattern: two random patterns of one
/// shape differ in cut count by 5x. So the pattern is drawn once from a
/// pinned seed and the benchmark seed draws a relabelling of the processes
/// and the local predicate values — a different input to the engine (cut
/// hashes, table layout, search order) over an isomorphic lattice of the
/// same size. One seed-chosen process never satisfies its predicate, so the
/// WCP never holds and the search is exhaustive.
constexpr std::uint64_t kLatticePatternSeed = 1;

int cmd_gen_lattice(const Args& a) {
  if (a.positional.size() < 2) throw std::invalid_argument("missing <out>");
  workload::RandomSpec spec;
  spec.num_processes = static_cast<std::size_t>(a.num("N", 6));
  spec.num_predicate = spec.num_processes;
  spec.events_per_process = a.num("events", 12);
  spec.local_pred_prob = 0.0;
  spec.seed = kLatticePatternSeed;
  const Computation base = workload::make_random(spec);
  const std::size_t N = spec.num_processes;

  Rng rng(static_cast<std::uint64_t>(a.num("seed", 1)));
  std::vector<int> label(N);
  std::iota(label.begin(), label.end(), 0);
  rng.shuffle(label);
  const std::size_t never = rng.index(N);

  ComputationBuilder b(N);
  std::vector<ProcessId> preds;
  for (std::size_t p = 0; p < N; ++p) preds.emplace_back(static_cast<int>(p));
  b.set_predicate_processes(preds);
  const auto roll = [&](ProcessId q) {
    if (q.idx() != never && rng.bernoulli(0.5)) b.mark_pred(q, true);
  };
  const auto relabel = [&](ProcessId p) { return ProcessId(label[p.idx()]); };
  for (std::size_t p = 0; p < N; ++p) roll(ProcessId(static_cast<int>(p)));

  // Replay the pattern in any causally valid order: each process advances
  // until it meets a receive whose send has not been replayed yet.
  std::vector<std::size_t> next(N, 0);
  std::vector<MessageId> renamed(base.messages().size(), -1);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t p = 0; p < N; ++p) {
      const ProcessId pid(static_cast<int>(p));
      const EventView events = base.events(pid);
      while (next[p] < events.size()) {
        const Event e = events[next[p]];
        if (e.kind == EventKind::kSend) {
          renamed[static_cast<std::size_t>(e.msg)] =
              b.send(relabel(pid), relabel(base.message(e.msg).to));
        } else {
          const MessageId m = renamed[static_cast<std::size_t>(e.msg)];
          if (m < 0) break;
          b.receive(m);
        }
        ++next[p];
        roll(relabel(pid));
        progress = true;
      }
    }
  }
  for (std::size_t p = 0; p < N; ++p)
    if (next[p] != base.events(ProcessId(static_cast<int>(p))).size())
      throw std::logic_error("gen-lattice: pattern replay stalled");
  const Computation comp = b.build();
  save_tracebin_file(a.positional[1], comp);
  json::Writer w(std::cout, 0);
  w.begin_object();
  w.field("states", comp.total_states());
  w.field("messages", static_cast<std::int64_t>(comp.messages().size()));
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---- serve-load ------------------------------------------------------------

/// The three streaming subscriptions every connection opens, in sub_id order.
constexpr serve::StreamAlgo kSubs[] = {serve::StreamAlgo::kToken,
                                       serve::StreamAlgo::kChecker,
                                       serve::StreamAlgo::kSlicer};

/// A trace's whole client stream, as replay.h orders it: HELLO, the
/// subscriptions, snapshots round-robin by state index, EOS, FINISH.
std::vector<serve::Frame> stream_frames(const Computation& comp) {
  const std::span<const ProcessId> preds = comp.predicate_processes();
  const std::size_t n = preds.size();
  std::vector<serve::Frame> out;
  out.push_back(serve::make_hello(static_cast<std::uint32_t>(n), 1));
  for (std::uint32_t i = 0; i < std::size(kSubs); ++i)
    out.push_back(serve::make_subscribe(i, kSubs[i], 0));
  StateIndex max_states = 0;
  for (const ProcessId p : preds)
    max_states = std::max(max_states, comp.num_states(p));
  for (StateIndex k = 1; k <= max_states; ++k)
    for (std::size_t s = 0; s < n; ++s) {
      if (k > comp.num_states(preds[s])) continue;
      std::vector<StateIndex> clock(n);
      for (std::size_t t = 0; t < n; ++t)
        clock[t] = comp.clock_component(preds[s], k, preds[t]);
      out.push_back(serve::make_snapshot(static_cast<std::uint32_t>(s),
                                         comp.local_pred(preds[s], k) ? 1 : 0,
                                         std::move(clock)));
    }
  out.push_back(serve::make_eos());
  out.push_back(serve::make_finish());
  return out;
}

struct Conn {
  std::string trace;
  std::unique_ptr<serve::TcpTransport> tcp;
  std::vector<std::vector<std::uint8_t>> frames;  // encoded; seq == index
  std::vector<std::int64_t> due_ns;
  std::vector<bool> snapshot;
  std::vector<int> span;  // per frame, while tracing
  std::size_t next = 0;   // next frame to send
  std::uint64_t acked = 0;
  std::vector<serve::VerdictBody> verdicts;
  std::optional<serve::ServeStats> stats;
  std::string error;
  std::int64_t last_verdict_ns = 0;
  int conn_span = -1;

  [[nodiscard]] bool done() const {
    return stats.has_value() || !error.empty();
  }
};

/// The daemon under test, started with its stdout on a pipe.
class Daemon {
 public:
  Daemon(const std::string& path, std::vector<std::string> args) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    args.insert(args.begin(), path);
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      ::close(out_);
      throw std::runtime_error("cannot start " + path + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Next stdout line, or nullopt on EOF or after `timeout_ms`.
  std::optional<std::string> line(int timeout_ms) {
    const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000LL;
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string l = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return l;
      }
      const std::int64_t left = (deadline - now_ns()) / 1'000'000;
      if (left <= 0) return std::nullopt;
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// On-CPU time of all the daemon's threads so far (schedstat, in ns).
  [[nodiscard]] std::int64_t cpu_ns() const {
    std::int64_t total = 0;
    std::error_code ec;
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
      std::ifstream f(e.path() / "schedstat");
      std::int64_t on_cpu = 0;
      if (f >> on_cpu) total += on_cpu;
    }
    return total;
  }

  /// Waits up to `timeout_ms` for exit (then kills). Returns the exit
  /// status (-1 when it had to be killed) and fills `ru`.
  int reap(int timeout_ms, rusage& ru) {
    const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000LL;
    int status = 0;
    while (::wait4(pid_, &status, WNOHANG, &ru) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &ru);
        reaped_ = true;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reaped_ = true;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::string buf_;
  bool reaped_ = false;
};

/// One acknowledged SNAPSHOT: when it was due, and how long its ACK took.
struct AckSample {
  std::int64_t due_ns;
  double ms;
};

void handle_frame(Conn& c, const serve::Frame& f, std::int64_t now,
                  std::vector<AckSample>& acks) {
  switch (f.type) {
    case serve::FrameType::kAck:
      for (std::uint64_t s = c.acked; s < f.ack.next_seq && s < c.frames.size();
           ++s) {
        if (!c.snapshot[s]) continue;
        acks.push_back(
            {c.due_ns[s], static_cast<double>(now - c.due_ns[s]) / 1e6});
        if (!c.span.empty()) g_trace.end(c.span[s], now);
      }
      c.acked = std::max(c.acked, f.ack.next_seq);
      break;
    case serve::FrameType::kVerdict:
      c.verdicts.push_back(f.verdict);
      c.last_verdict_ns = now;
      break;
    case serve::FrameType::kStats:
      c.stats = f.stats.stats;
      break;
    case serve::FrameType::kError:
      c.error = "ERROR frame: " + f.error.message;
      break;
    default:
      c.error = std::string("unexpected frame ") + serve::to_string(f.type);
  }
}

/// Statistics are taken per one-second window of due times and the median
/// across windows reported: a stall of the shared host that spoils one or
/// two windows then moves the result no more than any other window does.
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::size_t kMinWindowSamples = 100;

struct Windows {
  double p50_ms = 0, p90_ms = 0, cpu_us_per_snapshot = 0;
};

Windows windows(const std::vector<AckSample>& acks,
                const std::vector<std::pair<std::int64_t, std::size_t>>& cpu,
                std::int64_t t0) {
  std::map<std::int64_t, std::vector<double>> by_window;
  for (const AckSample& x : acks)
    by_window[(x.due_ns - t0) / kWindowNs].push_back(x.ms);
  std::vector<double> p50, p90;
  for (const auto& [k, ms] : by_window) {
    if (ms.size() < kMinWindowSamples) continue;
    p50.push_back(percentile(ms, 0.50));
    p90.push_back(percentile(ms, 0.90));
  }
  std::vector<double> per_snap;
  for (std::size_t i = 1; i < cpu.size(); ++i) {
    const std::size_t n = cpu[i].second - cpu[i - 1].second;
    if (n >= kMinWindowSamples)
      per_snap.push_back(static_cast<double>(cpu[i].first - cpu[i - 1].first) /
                         1e3 / static_cast<double>(n));
  }
  if (p50.empty() && !acks.empty()) {  // a run shorter than one window
    std::vector<double> ms;
    for (const AckSample& x : acks) ms.push_back(x.ms);
    p50.push_back(percentile(ms, 0.50));
    p90.push_back(percentile(ms, 0.90));
  }
  if (per_snap.empty() && cpu.size() >= 2 &&
      cpu.back().second > cpu.front().second)
    per_snap.push_back(
        static_cast<double>(cpu.back().first - cpu.front().first) / 1e3 /
        static_cast<double>(cpu.back().second - cpu.front().second));
  return {median(p50), median(p90), median(per_snap)};
}

int cmd_serve_load(const Args& a) {
  if (a.positional.size() < 2) throw std::invalid_argument("missing daemon");
  const std::vector<std::string> traces = split(a.str("traces"));
  const double rate = a.real("rate", 20000);  // aggregate snapshots/s
  if (traces.empty() || rate <= 0)
    throw std::invalid_argument("need --traces and a positive --rate");
  const std::size_t conns = traces.size();
  const int root = g_trace.begin("bench.serve_load", -1);

  // Client side first, so the daemon's clock starts with the load.
  std::vector<Conn> cs(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    TraceLoadOptions lo;
    lo.verify_replay = false;
    const Computation comp = load_any_trace_file(traces[i], lo);
    cs[i].trace = traces[i];
    const std::vector<serve::Frame> frames = stream_frames(comp);
    for (std::size_t s = 0; s < frames.size(); ++s) {
      cs[i].frames.push_back(serve::encode_frame(frames[s], s));
      cs[i].snapshot.push_back(frames[s].type == serve::FrameType::kSnapshot);
    }
  }

  Daemon daemon(a.positional[1],
                {"--port", "0", "--once", std::to_string(conns), "--gc-every",
                 a.str("gc-every", "64")});
  const std::optional<std::string> listening = daemon.line(10'000);
  const std::string marker = "listening on 127.0.0.1:";
  const std::size_t at =
      listening ? listening->find(marker) : std::string::npos;
  if (at == std::string::npos)
    throw std::runtime_error("daemon did not report a listening port");
  const auto port = static_cast<std::uint16_t>(
      std::stoul(listening->substr(at + marker.size())));

  // Open loop: connection i's k-th snapshot is due at t0 + (k + i/conns)
  // intervals and is sent when due, whatever the server is doing; control
  // frames go with the neighbouring snapshot.
  const double interval_ns = 1e9 * static_cast<double>(conns) / rate;
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us late
  const std::int64_t t0 = now_ns() + 20'000'000;
  std::int64_t last_due = t0;
  for (std::size_t i = 0; i < conns; ++i) {
    Conn& c = cs[i];
    c.tcp = serve::tcp_connect("127.0.0.1", port);
    c.tcp->set_nonblocking();
    std::int64_t k = 0;
    for (std::size_t s = 0; s < c.frames.size(); ++s) {
      c.due_ns.push_back(
          t0 + static_cast<std::int64_t>(
                   interval_ns * (static_cast<double>(k) +
                                  static_cast<double>(i) /
                                      static_cast<double>(conns))));
      if (c.snapshot[s]) ++k;
    }
    last_due = std::max(last_due, c.due_ns.back());
    if (g_trace.on()) {
      c.conn_span = g_trace.begin("serve.connection", root, t0);
      c.span.assign(c.frames.size(), -1);
    }
  }

  std::vector<AckSample> acks;
  std::vector<double> late_ms;
  // Daemon CPU time and ACK count at each window boundary.
  std::vector<std::pair<std::int64_t, std::size_t>> cpu_marks;
  std::int64_t next_mark = t0;
  const std::int64_t deadline = last_due + 60'000'000'000LL;
  std::vector<pollfd> pfds(conns);
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= next_mark) {
      cpu_marks.emplace_back(daemon.cpu_ns(), acks.size());
      next_mark += kWindowNs;
    }
    bool all_done = true;
    std::int64_t next_due = now + 50'000'000;
    for (Conn& c : cs) {
      if (c.done()) continue;
      all_done = false;
      try {
        while (c.next < c.frames.size() && c.due_ns[c.next] <= now) {
          if (c.snapshot[c.next]) {
            late_ms.push_back(static_cast<double>(now - c.due_ns[c.next]) /
                              1e6);
            if (!c.span.empty())
              c.span[c.next] =
                  g_trace.begin("serve.snapshot", c.conn_span, now);
          }
          c.tcp->send(c.frames[c.next]);
          ++c.next;
        }
      } catch (const std::exception& e) {
        c.error = std::string("send failed: ") + e.what();
      }
      if (c.next < c.frames.size())
        next_due = std::min(next_due, c.due_ns[c.next]);
    }
    if (all_done) break;
    if (now > deadline) {
      for (Conn& c : cs)
        if (!c.done()) c.error = "timed out";
      break;
    }

    for (std::size_t i = 0; i < conns; ++i) {
      const bool live = !cs[i].done();
      pfds[i].fd = live ? cs[i].tcp->fd() : -1;
      pfds[i].events = static_cast<short>(
          POLLIN | (live && cs[i].tcp->pending_out() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, next_due - now);
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    now = now_ns();
    for (std::size_t i = 0; i < conns; ++i) {
      Conn& c = cs[i];
      if (c.done() || pfds[i].revents == 0) continue;
      try {
        if (pfds[i].revents & POLLOUT) c.tcp->flush();
        while (!c.done()) {
          const std::optional<std::vector<std::uint8_t>> raw =
              c.tcp->receive(false);
          if (!raw) break;
          handle_frame(c, serve::decode_frame(*raw), now, acks);
        }
        if (!c.done() && c.tcp->closed()) c.error = "connection dropped";
      } catch (const std::exception& e) {
        c.error = std::string("receive failed: ") + e.what();
      }
    }
  }
  if (cpu_marks.size() < 2)  // a stream shorter than one window
    cpu_marks.emplace_back(daemon.cpu_ns(), acks.size());
  for (Conn& c : cs) {
    g_trace.end(c.conn_span, c.last_verdict_ns ? c.last_verdict_ns : 0);
    c.tcp->close();
  }

  // The daemon exits once it has served every connection (after printing
  // a report line each, drained here); its rusage holds its peak RSS.
  while (daemon.line(10'000)) {
  }
  rusage ru{};
  const int exit_code = daemon.reap(10'000, ru);
  g_trace.end(root);

  std::int64_t sent = 0;
  for (const Conn& c : cs)
    for (std::size_t s = 0; s < c.next; ++s) sent += c.snapshot[s] ? 1 : 0;

  json::Writer w(std::cout, 0);
  w.begin_object();
  w.field("daemon_exit", exit_code);
  w.field("daemon_maxrss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
  w.field("snapshots_sent", sent);
  w.field("snapshots_acked", static_cast<std::int64_t>(acks.size()));
  const Windows win = windows(acks, cpu_marks, t0);
  w.field("ack_p50_ms", win.p50_ms);
  w.field("ack_p90_ms", win.p90_ms);
  w.field("cpu_us_per_snapshot", win.cpu_us_per_snapshot);
  w.field("gen_late_p99_ms", percentile(late_ms, 0.99));
  w.key("connections").begin_array();
  for (const Conn& c : cs) {
    w.begin_object();
    w.field("trace", std::string_view(c.trace));
    w.field("error", std::string_view(c.error));
    w.field("stream_s",
            c.last_verdict_ns
                ? static_cast<double>(c.last_verdict_ns - t0) / 1e9
                : 0.0);
    w.key("verdicts").begin_array();
    for (const serve::VerdictBody& v : c.verdicts) {
      w.begin_object();
      w.field("sub", static_cast<std::int64_t>(v.sub_id));
      w.field("algo", serve::to_string(kSubs[v.sub_id % std::size(kSubs)]));
      w.field("detected", v.detected);
      w.field("truncated", v.truncated);
      w.key("cut").begin_array();
      for (const StateIndex k : v.cut) w.value(k);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << "\n";
  return 0;
}

// ---- layers ----------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

template <class F>
double time_ms(const char* span, int parent, F&& f) {
  ScopedSpan sp(span, parent);
  const std::int64_t t = now_ns();
  f();
  return static_cast<double>(now_ns() - t) / 1e6;
}

/// Median wall time of `reps` calls of f, in ms.
template <class F>
double median_ms(int reps, const char* span, int parent, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_ms(span, parent, f));
  return median(v);
}

void trace_layer(const std::string& path, std::uint64_t seed, int parent,
                 Metrics& m) {
  TraceLoadOptions trusted;
  trusted.verify_replay = false;
  TraceStoreStats ts;
  const double load = median_ms(3, "trace.load", parent, [&] {
    ts = load_any_trace_file(path).trace_store_stats();
  });
  const double load_trusted = median_ms(3, "trace.load_trusted", parent, [&] {
    (void)load_any_trace_file(path, trusted).num_processes();
  });
  m.emplace_back("trace.load_ms", load);
  m.emplace_back("trace.load_trusted_ms", load_trusted);
  m.emplace_back("trace.verify_ms", load - load_trusted);
  m.emplace_back("trace_store.peak_bytes", static_cast<double>(ts.peak_bytes));
  m.emplace_back("trace_store.delta_ratio", ts.delta_ratio);

  // A fixed seeded batch of happened_before queries between random states.
  const Computation comp = load_any_trace_file(path, trusted);
  const std::size_t N = comp.num_processes();
  Rng rng(seed);
  struct Q {
    ProcessId i, j;
    StateIndex a, b;
  };
  std::vector<Q> qs(1 << 18);
  for (Q& q : qs) {
    q.i = ProcessId(static_cast<int>(rng.index(N)));
    q.j = ProcessId(static_cast<int>(rng.index(N)));
    q.a = 1 + static_cast<StateIndex>(
                  rng.index(static_cast<std::size_t>(comp.num_states(q.i))));
    q.b = 1 + static_cast<StateIndex>(
                  rng.index(static_cast<std::size_t>(comp.num_states(q.j))));
  }
  std::int64_t hits = 0;
  const double hb = median_ms(5, "trace.happened_before", parent, [&] {
    for (const Q& q : qs) hits += comp.happened_before(q.i, q.a, q.j, q.b);
  });
  g_sink = hits;
  m.emplace_back("trace.hb_ns", hb * 1e6 / static_cast<double>(qs.size()));
}

void lattice_layer(const Computation& comp, std::size_t threads, int parent,
                   Metrics& m) {
  const std::int64_t cap = 10'000'000;  // as `wcp_cli detect --algo lattice`
  detect::LatticeResult serial, parallel;
  const double t1 = time_ms("detect.lattice.serial", parent, [&] {
    serial = detect::detect_lattice(comp, cap, 1);
  });
  const double tp = time_ms("detect.lattice.parallel", parent, [&] {
    parallel = detect::detect_lattice(comp, cap, threads);
  });
  if (serial.detected != parallel.detected || serial.cut != parallel.cut ||
      serial.cuts_explored != parallel.cuts_explored || parallel.truncated)
    throw std::runtime_error("1-lane and parallel lattice searches disagree");
  const auto cuts = static_cast<double>(parallel.cuts_explored);
  m.emplace_back("detect.lattice.serial_ms", t1);
  m.emplace_back("detect.lattice.parallel_ms", tp);
  m.emplace_back("detect.lattice.speedup", t1 / tp);
  m.emplace_back("detect.lattice.ns_per_cut", tp * 1e6 / cuts);
  m.emplace_back("detect.lattice.cuts_explored", cuts);
  m.emplace_back("detect.lattice.max_frontier",
                 static_cast<double>(parallel.max_frontier));
  const CutStorageStats& st = parallel.storage;
  m.emplace_back("common.cut_storage.table_probes",
                 static_cast<double>(st.table_probes));
  m.emplace_back("common.cut_storage.probes_per_cut",
                 static_cast<double>(st.table_probes) / cuts);
  m.emplace_back("common.cut_storage.peak_bytes",
                 static_cast<double>(st.peak_bytes));
  m.emplace_back("common.cut_storage.heap_allocs",
                 static_cast<double>(st.heap_allocs));
}

void token_layer(const Computation& comp, int parent, Metrics& m) {
  detect::RunOptions opts;  // as `wcp_cli detect --algo token`
  opts.seed = 1;
  opts.latency = sim::LatencyModel::uniform(1, 6);
  detect::DetectionResult online;
  const double run = time_ms("sim.run_token_vc", parent, [&] {
    online = detect::run_token_vc(comp, opts);
  });
  const auto events = static_cast<double>(online.stats.events_processed);
  m.emplace_back("sim.run_ms", run);
  m.emplace_back("sim.events_processed", events);
  m.emplace_back("sim.ns_per_event", run * 1e6 / events);
  m.emplace_back("sim.peak_queue_depth",
                 static_cast<double>(online.stats.peak_queue_depth));
  m.emplace_back("detect.token.hops", static_cast<double>(online.token_hops));
  m.emplace_back("app.msgs_total",
                 static_cast<double>(online.app_metrics.total_messages()));
  m.emplace_back("app.bits_total",
                 static_cast<double>(online.app_metrics.total_bits()));
  m.emplace_back("detect.token_offline_ms",
                 median_ms(3, "detect.token_offline", parent, [&] {
                   (void)detect::detect_token_vc_offline(comp);
                 }));
}

/// Feeds `snaps` through a fresh StreamBuffer, driving `make_core`'s core
/// (none when null) exactly as a Session does; returns wall ns.
template <class Make>
double drive_core(std::size_t slots, const std::vector<serve::Frame>& snaps,
                  Make&& make_core) {
  serve::StreamBuffer buf(slots);
  std::unique_ptr<app::StreamCore> core = make_core(buf);
  const std::int64_t t = now_ns();
  for (const serve::Frame& f : snaps) {
    buf.append(f.snapshot.slot, f.snapshot.clock, f.snapshot.pred_mask);
    if (core && !core->done()) core->on_state(f.snapshot.slot);
  }
  for (std::size_t s = 0; s < slots; ++s) {
    buf.set_eos(s);
    if (core && !core->done()) core->on_eos(s);
  }
  return static_cast<double>(now_ns() - t);
}

void serve_layer(const Computation& comp, int parent, Metrics& m) {
  const std::vector<serve::Frame> frames = stream_frames(comp);
  std::vector<serve::Frame> snaps;
  for (const serve::Frame& f : frames)
    if (f.type == serve::FrameType::kSnapshot) snaps.push_back(f);
  const auto per_snap = static_cast<double>(snaps.size());
  const auto slots = static_cast<std::uint32_t>(frames[0].hello.slots);

  std::vector<std::vector<std::uint8_t>> wire(frames.size());
  const double enc = median_ms(3, "serve.protocol.encode", parent, [&] {
    for (std::size_t s = 0; s < frames.size(); ++s)
      wire[s] = serve::encode_frame(frames[s], s);
  });
  std::int64_t sink = 0;
  const double dec = median_ms(3, "serve.protocol.decode", parent, [&] {
    for (const auto& bytes : wire)
      sink += static_cast<std::int64_t>(serve::decode_frame(bytes, slots).seq);
  });
  g_sink = sink;
  m.emplace_back("serve.protocol.encode_ns",
                 enc * 1e6 / static_cast<double>(frames.size()));
  m.emplace_back("serve.protocol.decode_ns",
                 dec * 1e6 / static_cast<double>(frames.size()));

  // The whole session in process: resequencer, decode, apply, three cores,
  // frontier GC every 64 snapshots (the daemon default), ACK encoding.
  std::optional<serve::ServeStats> stats;
  const double sess = time_ms("serve.session", parent, [&] {
    serve::Session session(serve::ServeOptions{},
                           [&](std::vector<std::uint8_t> out) {
                             if (serve::peek_header(out).type ==
                                 serve::FrameType::kStats)
                               stats = serve::decode_frame(out).stats.stats;
                           });
    for (const auto& bytes : wire) session.on_frame(bytes);
  });
  if (!stats) throw std::runtime_error("session emitted no STATS frame");
  m.emplace_back("serve.session.on_frame_ns",
                 sess * 1e6 / static_cast<double>(wire.size()));
  m.emplace_back("serve.gc_rounds", static_cast<double>(stats->gc_rounds));
  m.emplace_back("serve.states_retired",
                 static_cast<double>(stats->states_retired));
  m.emplace_back("serve.peak_retained_states",
                 static_cast<double>(stats->peak_retained_states));
  m.emplace_back("serve.store_peak_bytes",
                 static_cast<double>(stats->store_peak_bytes));
  m.emplace_back("serve.checker_peak_bytes",
                 static_cast<double>(stats->checker_peak_bytes));

  // Each core alone over a StreamBuffer, net of the buffer appends (the
  // median of 5 drives each; a core cheaper than the timing noise can come
  // out slightly negative).
  const auto drive = [&](const char* span, auto make) {
    std::vector<double> ns;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan sp(span, parent);
      ns.push_back(drive_core(slots, snaps, make));
    }
    return median(ns);
  };
  const double base_ns =
      drive("serve.stream_buffer.append", [](const serve::StreamBuffer&) {
        return std::unique_ptr<app::StreamCore>();
      });
  const auto core_ns = [&](const char* span, auto make) {
    return (drive(span, make) - base_ns) / per_snap;
  };
  m.emplace_back("detect.stream_core.token_ns",
                 core_ns("detect.stream_core.token",
                         [](const serve::StreamBuffer& b) {
                           return std::unique_ptr<app::StreamCore>(
                               new detect::TokenCore(b, app::CoreHooks{}));
                         }));
  m.emplace_back("detect.stream_core.checker_ns",
                 core_ns("detect.stream_core.checker",
                         [](const serve::StreamBuffer& b) {
                           return std::unique_ptr<app::StreamCore>(
                               new detect::CentralizedCore(b,
                                                           app::CoreHooks{}));
                         }));
  m.emplace_back("slice.slicer_core_ns",
                 core_ns("slice.slicer_core", [](const serve::StreamBuffer& b) {
                   return std::unique_ptr<app::StreamCore>(
                       new slice::SlicerCore(b, app::CoreHooks{}));
                 }));
}

/// The lattice layer always searches the lattice workload's trace: the
/// lattices of the other workloads' traces (8 or 16 processes, thousands of
/// states each) are far beyond any search, and a capped search of them does
/// not stay small either — on a 16-process trace, detect_lattice with
/// max_cuts = 20000 ran 47 s on 4 lanes of a 4-core Xeon VM and peaked at
/// 5 GB of cut storage (the serial engine stops after 0.3 s).
int cmd_layers(const Args& a) {
  if (a.positional.size() < 2 || !a.flags.contains("lattice-trace"))
    throw std::invalid_argument("missing trace or --lattice-trace");
  const std::string path = a.positional[1];
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const auto threads = static_cast<std::size_t>(a.num("threads", 1));
  TraceLoadOptions trusted;
  trusted.verify_replay = false;

  Metrics m;
  {
    ScopedSpan root("bench.layers", -1);
    trace_layer(path, seed, root.id(), m);
    const Computation comp = load_any_trace_file(path, trusted);
    lattice_layer(load_any_trace_file(a.str("lattice-trace"), trusted),
                  threads, root.id(), m);
    token_layer(comp, root.id(), m);
    serve_layer(comp, root.id(), m);
  }
  json::Writer w(std::cout, 0);
  w.begin_object();
  for (const auto& [name, value] : m) w.field(name, value);
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.positional.empty()) throw std::invalid_argument("missing command");
    if (a.flags.contains("spans"))
      g_trace.enable(a.str("spans"), a.str("run", "0"));
    const std::string& cmd = a.positional[0];
    int rc = 2;
    if (cmd == "stamp") rc = cmd_stamp();
    else if (cmd == "gen-lattice") rc = cmd_gen_lattice(a);
    else if (cmd == "serve-load") rc = cmd_serve_load(a);
    else if (cmd == "layers") rc = cmd_layers(a);
    else throw std::invalid_argument("unknown command " + cmd);
    g_trace.write();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "wcp_probe: " << e.what() << "\n";
    return 1;
  }
}
