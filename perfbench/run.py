#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload lattice|token_long|serve_paced \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds wcp_cli, wcp_served and the
benchmark's own wcp_probe from source (perfbench/CMakeLists.txt, Release,
into $CARGO_TARGET_DIR or .bench_build), generates the workload's inputs
from --seed, measures for about --seconds, checks every verdict against an
oracle, and prints as its last stdout line

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured on the
real binaries run as children of this process. --trace 1 runs the same
inputs again with spans recorded (around each child here, and around calls
into each layer inside wcp_probe), reports the per-layer metrics and the
tracing overhead, and writes every span once at exit to
<build>/spans/<workload>-seed<N>.json. See perfbench/README.md for what each
metric means on each workload.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CLI = os.path.join(BUILD, "wcp_examples", "wcp_cli")
DAEMON = os.path.join(BUILD, "wcp_examples", "wcp_served")
PROBE = os.path.join(BUILD, "wcp_probe")

# Seeds. Tune on DEV_SEED; check a claimed gain again on HOLDOUT_SEED, which
# no change should be developed against.
DEV_SEED = 1
HOLDOUT_SEED = 7919

# setup_s is the median of repeated full set-ups: SETUP_REPS of them, or
# as many as fit in SETUP_SECONDS, but at least 3.
SETUP_REPS = 15
SETUP_SECONDS = 3.0
LATTICE_LABELLINGS = 8


def nproc():
    return len(os.sched_getaffinity(0))


def workload_spec(name, seed, seconds, tiny):
    """Generator parameters of a workload; recorded beside its results."""
    if name == "lattice":
        # Labellings of one pattern differ in engine cost (hash probes, work
        # split), so a run cycles through LATTICE_LABELLINGS of them.
        return {"generator": "wcp_probe gen-lattice", "N": 6, "n": 6,
                "events": 6 if tiny else 12, "pred_prob": 0.5,
                "pattern_seed": 1, "seed": seed, "algo": "lattice",
                "seeds": [seed * 1000 + i for i in range(LATTICE_LABELLINGS)]}
    if name == "token_long":
        return {"generator": "wcp_cli generate", "N": 8 if tiny else 32,
                "n": 4 if tiny else 16, "events": 500 if tiny else 10000,
                "pred_prob": 0.03, "detectable": 1, "seed": seed,
                "seeds": [seed], "algo": "token"}
    if name == "serve_paced":
        conns = min(4, nproc())
        rate = 20000.0  # aggregate SNAPSHOT frames per second
        n = 8
        # Each connection's stream lasts about 0.8 * seconds at its rate.
        events = max(50, int(rate / conns * 0.8 * seconds / n))
        return {"generator": "wcp_cli generate", "N": n, "n": n,
                "events": events, "pred_prob": 0.01, "detectable": 1,
                "seeds": [seed * 100 + i for i in range(conns)],
                "seed": seed, "connections": conns, "rate": rate,
                "gc_every": 64, "subscriptions": ["token", "checker", "slicer"]}
    raise SystemExit(f"unknown workload {name!r}")


# ---- processes --------------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["WCP_THREADS"] = str(nproc())  # --threads 0 resolves to nproc lanes
    return env


def check_output(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=child_env(), timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}: "
                           f"{r.stderr.strip()}")
    return r.stdout


def timed_child(cmd):
    """Runs cmd to completion: (stdout, exit code, wall s, cpu s, maxrss KB,
    spawn s).

    Wall time runs from the launch to the end of its output (the verdict
    line); CPU and peak RSS come from the child's own rusage; spawn is how
    long the launch itself took here.
    """
    with tempfile.TemporaryFile() as errf:
        t0 = time.monotonic()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errf,
                             env=child_env())
        spawn = time.monotonic() - t0
        out = p.stdout.read()
        wall = time.monotonic() - t0
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        if p.returncode != 0:
            errf.seek(0)
            log(f"perfbench: {' '.join(cmd)} exited {p.returncode}: "
                f"{errf.read().decode(errors='replace').strip()}")
    return (out.decode(errors="replace"), p.returncode, wall,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss, spawn)


# ---- build and stamp --------------------------------------------------------

def build():
    """Configures (once) and builds; the build log is shown only on failure."""
    steps = [["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
              "wcp_cli", "wcp_served", "wcp_probe"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout)
            raise SystemExit(f"perfbench: {' '.join(cmd)} failed")


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def stamp():
    """Host and build facts; refuses to go on with an unoptimised build."""
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                         cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout.split()
    # A checkout without .git has no commit (and must not borrow the commit
    # of some repository around it); the source digest still names the code.
    commit = git[1] if len(git) == 2 and os.path.samefile(git[0], ROOT) \
        else None
    probe = json.loads(check_output([PROBE, "stamp"]))
    s = {"nproc": nproc(), "hardware_threads": probe["hardware_threads"],
         "cpu_model": cpu,
         "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
         "compiler": cmake_cache("CMAKE_CXX_COMPILER") + " " + probe["compiler"],
         "optimized": probe["optimized"], "ndebug": probe["ndebug"],
         "git_commit": commit, "source_digest": source_digest()}
    if not (s["optimized"] and s["ndebug"] and
            s["build_type"] in ("Release", "RelWithDebInfo", "MinSizeRel")):
        raise SystemExit("perfbench: REFUSING TO RECORD: the build is not "
                         f"optimised ({s})")
    return s


# ---- spans ------------------------------------------------------------------

class Spans:
    """Spans recorded here (around children) plus those wcp_probe wrote."""

    def __init__(self, on, run):
        self.on, self.run, self.spans = on, run, []

    def begin(self, name, parent=-1):
        if not self.on:
            return -1
        self.spans.append({"name": name, "start_ns": time.monotonic_ns(),
                           "end_ns": 0, "parent": parent, "run": self.run})
        return len(self.spans) - 1

    def end(self, i):
        if i >= 0:
            self.spans[i]["end_ns"] = time.monotonic_ns()

    def adopt(self, path, parent):
        """Appends a wcp_probe span file under `parent`."""
        with open(path) as f:
            probe = json.load(f)
        base = len(self.spans)
        for s in probe["spans"]:
            s["parent"] = parent if s["parent"] < 0 else s["parent"] + base
            s["run"] = self.run
            self.spans.append(s)
        os.remove(path)

    def self_times(self):
        """Per span name: count, total ms, and self ms (the span minus the
        union of its children's intervals)."""
        kids = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        out = {}
        for i, s in enumerate(self.spans):
            covered, cur_s, cur_e = 0, None, None
            for c in sorted(kids.get(i, []), key=lambda c: c["start_ns"]):
                a = max(c["start_ns"], s["start_ns"])
                b = min(c["end_ns"], s["end_ns"])
                if b <= a:
                    continue
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
            dur = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur / 1e6
            row[2] += (dur - covered) / 1e6
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run": self.run, "spans": self.spans}, f)
            f.write("\n")


# ---- workloads --------------------------------------------------------------

def median(v):
    return statistics.median(v) if v else 0.0


def percentile(v, q):
    """Nearest-rank percentile, as wcp_probe computes it."""
    v = sorted(v)
    return v[max(1, math.ceil(q * len(v))) - 1] if v else 0.0


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def generate(name, spec, inputs):
    """Writes the workload's trace files; returns {path: states}."""
    out = {}
    if name == "lattice":
        for s in spec["seeds"]:
            path = os.path.join(inputs, f"lattice-{s}.tracebin")
            info = json.loads(check_output(
                [PROBE, "gen-lattice", path, "--seed", str(s),
                 "--N", str(spec["N"]), "--events", str(spec["events"])]))
            out[path] = info["states"]
        return out
    for s in spec["seeds"]:
        path = os.path.join(inputs, f"{name}-{s}.tracebin")
        text = check_output(
            [CLI, "generate", path, "--N", str(spec["N"]), "--n",
             str(spec["n"]), "--events", str(spec["events"]), "--pred-prob",
             str(spec["pred_prob"]), "--seed", str(s), "--detectable",
             str(spec["detectable"]), "--binary"])
        out[path] = int(re.search(r"states=(\d+)", text).group(1))
    return out


def daemon_start_s():
    """Launch of wcp_served until it prints its listening line."""
    t0 = time.monotonic()
    p = subprocess.Popen([DAEMON, "--port", "0", "--once", "1"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    line = p.stdout.readline()
    t = time.monotonic() - t0
    p.kill()
    p.wait()
    p.stdout.close()
    if "listening on" not in line:
        raise RuntimeError("wcp_served did not start")
    return t


def setup(name, spec, inputs):
    """Generates the inputs repeatedly (the same bytes every time) and starts
    the daemon as often; returns (median set-up s, {path: states})."""
    os.makedirs(inputs, exist_ok=True)
    times, digests, files = [], set(), {}
    t_end = time.monotonic() + SETUP_SECONDS
    while len(times) < 3 or (len(times) < SETUP_REPS and
                             time.monotonic() < t_end):
        t0 = time.monotonic()
        files = generate(name, spec, inputs)
        t = time.monotonic() - t0
        if name == "serve_paced":
            t += daemon_start_s()
        times.append(t)
        digests.add(tuple(file_digest(p) for p in files))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return median(times), files


def verdict(text):
    v = json.loads(text)
    return (v["detected"], tuple(v["cut"]))


def flip(v):
    """A deliberately wrong expected verdict (self-check only)."""
    return (not v[0], v[1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: FAILED: {what}")


def run_detect(spec, files, expected, seconds, tally, spans, parent,
               wrong):
    """Runs `wcp_cli detect --verdict` over the traces in turn for `seconds`,
    checking each verdict against the oracle's."""
    paths = list(files)
    cmds = [[CLI, "detect", p, "--algo", spec["algo"], "--verdict"]
            for p in paths]
    want = [flip(expected[p]) if wrong else expected[p] for p in paths]

    def one(i):
        out, rc, wall, cpu, maxrss, spawn = timed_child(cmds[i])
        try:
            ok = rc == 0 and verdict(out) == want[i]
        except (ValueError, KeyError):
            ok = False
        tally.op(ok, f"{' '.join(cmds[i])} gave {out.strip()!r}, "
                     f"expected {want[i]}")
        return wall, cpu / files[paths[i]], maxrss, spawn

    # One untimed warm-up run, so the first timed one does not pay for
    # cold page and allocator state that no later run sees.
    one(0)
    walls, cpu_per_state, rss, spawns = [], [], [], []
    t_end = time.monotonic() + seconds
    while len(walls) < 3 or time.monotonic() < t_end:
        sp = spans.begin("bench.detect", parent)
        wall, cpu, maxrss, spawn = one(len(walls) % len(paths))
        spans.end(sp)
        walls.append(wall)
        cpu_per_state.append(cpu)
        rss.append(maxrss)
        spawns.append(spawn)
    return {"verdict_s": median(walls),
            "ack_p50_ms": percentile(walls, 0.50) * 1e3,
            "ack_p90_ms": percentile(walls, 0.90) * 1e3,
            "server_cpu_us_per_snapshot": median(cpu_per_state) * 1e6,
            # The mean: one trace's peak RSS can be bimodal (the lattice
            # engine's arenas grow with the work split), and a median flips.
            "peak_rss_mb": statistics.mean(rss) / 1024.0,
            "gen_late_p99_ms": percentile(spawns, 0.99) * 1e3}


def check_lattice_complete(path, tally):
    """The search must end by exhaustion, not by the CLI's 10M-cut cap."""
    out = check_output([CLI, "detect", path, "--algo", "lattice", "--json"])
    rec = json.loads(out)
    truncated = rec["metrics"]["truncated"]
    tally.op(truncated == 0, f"lattice search on {path} was truncated")


def oracle_verdict(path):
    return verdict(check_output([CLI, "detect", path, "--algo", "oracle",
                                 "--verdict"]))


def offline_verdicts(path, tally):
    """What the daemon's subscriptions must answer: `detect --verdict` with
    the matching offline algorithm, itself checked against the oracle."""
    oracle = oracle_verdict(path)
    out = {}
    for sub, algo in (("token", "token"), ("checker", "checker"),
                      ("slicer", "lattice-sliced")):
        out[sub] = verdict(check_output([CLI, "detect", path, "--algo", algo,
                                         "--verdict"]))
        tally.op(out[sub] == oracle, f"offline {algo} on {path} gave "
                                     f"{out[sub]}, the oracle {oracle}")
    return out


def run_serve(spec, files, expected, tally, spans, parent, wrong):
    cmd = [PROBE, "serve-load", DAEMON, "--traces", ",".join(files),
           "--rate", str(spec["rate"]), "--gc-every", str(spec["gc_every"])]
    span_file = None
    if spans.on:
        span_file = os.path.join(BUILD, "spans", f"serve-load-{os.getpid()}.json")
        os.makedirs(os.path.dirname(span_file), exist_ok=True)
        cmd += ["--spans", span_file, "--run", spans.run]
    sp = spans.begin("bench.serve_paced", parent)
    r = json.loads(check_output(cmd))
    spans.end(sp)
    if span_file:
        spans.adopt(span_file, sp)
    sent, acked = r["snapshots_sent"], r["snapshots_acked"]
    tally.attempted += sent
    tally.failed += sent - acked
    if sent != acked:
        log(f"perfbench: FAILED: {sent - acked} snapshots never acked")
    tally.op(r["daemon_exit"] == 0, f"wcp_served exited {r['daemon_exit']}")
    for conn in r["connections"]:
        got = {v["algo"]: (v["detected"], tuple(v["cut"]))
               for v in conn["verdicts"]}
        want = expected[conn["trace"]]
        for sub, v in want.items():
            if wrong:
                v = flip(v)
            tally.op(not conn["error"] and got.get(sub) == v,
                     f"{sub} on {conn['trace']}: got {got.get(sub)}, "
                     f"expected {v}, error {conn['error']!r}")
    streams = [c["stream_s"] for c in r["connections"] if c["stream_s"] > 0]
    metrics = {"verdict_s": median(streams),
               "ack_p50_ms": r["ack_p50_ms"], "ack_p90_ms": r["ack_p90_ms"],
               "server_cpu_us_per_snapshot": r["cpu_us_per_snapshot"],
               "peak_rss_mb": r["daemon_maxrss_kb"] / 1024.0,
               "gen_late_p99_ms": r["gen_late_p99_ms"]}
    return metrics


def end_to_end(name, spec, files, expected, seconds, tally, spans, parent,
               wrong):
    if name == "serve_paced":
        return run_serve(spec, files, expected, tally, spans, parent, wrong)
    return run_detect(spec, files, expected, seconds, tally, spans, parent,
                      wrong)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lattice", "token_long", "serve_paced"])
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-check knobs (perfbench/selfcheck.py): tiny inputs, and a
    # deliberately wrong expected verdict that every check must catch.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--wrong-expected", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Everything this run and its children write stays in the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    build()
    host = stamp()
    name = args.workload
    spec = workload_spec(name, args.seed, args.seconds, args.tiny)
    inputs = os.path.join(BUILD, "inputs",
                          f"{name}-{args.seed}{'-tiny' if args.tiny else ''}")
    setup_s, files = setup(name, spec, inputs)

    tally = Tally()
    wrong = args.wrong_expected
    if name == "serve_paced":
        expected = {p: offline_verdicts(p, tally) for p in files}
    else:
        expected = {p: oracle_verdict(p) for p in files}
    primary = next(iter(files))
    if name == "lattice":
        # The labellings are isomorphic: one complete search covers all.
        check_lattice_complete(primary, tally)

    run_id = f"{name}-seed{args.seed}-{os.getpid()}"
    if args.trace == 0:
        m = end_to_end(name, spec, files, expected, args.seconds, tally,
                       Spans(False, run_id), -1, wrong)
        m["setup_s"] = setup_s
        wanted = bench["end_to_end"]
    else:
        # Same inputs: an untraced pass, a traced pass (their difference is
        # the tracing overhead) and the per-layer timings, all traced.
        spans = Spans(True, run_id)
        root = spans.begin("bench.run")
        plain = end_to_end(name, spec, files, expected, args.seconds, tally,
                           Spans(False, run_id), -1, wrong)
        traced = end_to_end(name, spec, files, expected, args.seconds, tally,
                            spans, root, wrong)
        key = "ack_p50_ms" if name == "serve_paced" else "verdict_s"
        scale = 1.0 if name == "serve_paced" else 1e3
        # The lattice layer always searches a lattice-workload trace.
        lattice_trace = primary
        if name != "lattice":
            lspec = workload_spec("lattice", args.seed, args.seconds, args.tiny)
            lattice_trace = next(iter(generate("lattice", lspec, inputs)))
        span_file = os.path.join(BUILD, "spans", f"layers-{os.getpid()}.json")
        os.makedirs(os.path.dirname(span_file), exist_ok=True)
        sp = spans.begin("bench.layers_probe", root)
        m = json.loads(check_output(
            [PROBE, "layers", primary, "--lattice-trace", lattice_trace,
             "--seed", str(args.seed), "--threads", str(nproc()),
             "--spans", span_file, "--run", run_id]))
        spans.end(sp)
        spans.adopt(span_file, sp)
        spans.end(root)
        m["bench.gen_late_p99_ms"] = plain["gen_late_p99_ms"]
        m["bench.ack_p90_ms"] = plain["ack_p90_ms"]
        m["bench.trace_overhead_ms"] = (traced[key] - plain[key]) * scale
        out = os.path.join(BUILD, "spans", f"{name}-seed{args.seed}.json")
        spans.write(out)
        log(f"perfbench: spans written to {out}; self time by span:")
        for sname, (n, total, own) in sorted(spans.self_times().items()):
            log(f"  {sname:34s} n={n:<7d} total={total:11.3f} ms "
                f"self={own:11.3f} ms")
        wanted = bench["per_layer"]

    missing = [w["name"] for w in wanted if w["name"] not in m]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {w["name"]: {"value": float(m[w["name"]]), "unit": w["unit"]}
               for w in wanted}
    record = {"workload": name, "trace": args.trace, "host": host,
              "spec": spec, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed}
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"host": host, "spec": spec}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: error: {e}")
        sys.exit(1)
