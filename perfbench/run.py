#!/usr/bin/env python3
"""End-to-end benchmark of the `diagnose` CLI on one rnd1k problem.

Builds bin/diagnose.exe and perfbench/tool.exe from the checkout it runs
in, then times the real binary as a child process, from spawn to the
finished report, in one of four invocation shapes (see README.md):

    python3 perfbench/run.py --workload single-shot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20     # every workload

Run it from the repository root.  Every report the program writes is
checked against a reference computed in-process; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a traced replay.  The
exit code is non-zero when a check fails.  State lives in .perfbench/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

CIRCUIT = "rnd1k"
DIES = 120  # die-set size per seed; multiplicity cycles 1..5
TAIL = 10  # a percentile is labelled only with this many samples beyond it
TPG_MIN = 2  # tpg-cold invocations per run, so set-up is timed more than once
SHOT_MIN = 100  # single-shot invocations per run, so shot p90 is labelled
BATCH_MIN = 2  # batch invocations per run
SERVE_MIN = 101  # dies per serve process: the first one times the restart, then
#                 100 latencies, so die p90 is labelled
SERVE_PREFIX = 41  # dies an untraced server covers for trace.overhead_frac
# Kernel domains and volume workers of every child.  One: on a shared host a
# second domain's wall time depends on whether a second core is free, and
# OCaml 5's stop-the-world minor collections make every domain wait for the
# slowest, so two domains measured the scheduler more than the program.
DOMAINS = 1

WORKLOADS = ("tpg-cold", "single-shot", "volume-batch", "serve-restart")
STATE = ".perfbench"
TARGETS = ("bin/diagnose.exe", "perfbench/tool.exe")
DIAGNOSE, TOOL = (os.path.join("_build", "default", t) for t in TARGETS)

E2E = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "first_report_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_rss_mb": ("MB", "lower"),
}

PER_LAYER = {  # name: (unit, better)
    "netlist.load_ms": ("ms", "lower"),
    "pattern.parse_ms": ("ms", "lower"),
    "datalog.parse_ms": ("ms", "lower"),
    "atpg.generate_ms": ("ms", "lower"),
    "atpg.minor_words": ("words", "lower"),
    "atpg.faults": ("count", "lower"),
    "atpg.aborted": ("count", "lower"),
    "atpg.abort_ratio": ("fraction", "lower"),
    "atpg.patterns": ("count", "lower"),
    "atpg.coverage": ("fraction", "higher"),
    "session.create_ms": ("ms", "lower"),
    "prewarm.faults": ("count", "lower"),
    "store.loads": ("count", "higher"),
    "store.rejects": ("count", "lower"),
    "store.saves": ("count", "lower"),
    "cache.frozen_bytes": ("bytes", "lower"),
    "explain.build_ms_p50": ("ms", "lower"),
    "explain.build_ms_p90": ("ms", "lower"),
    "explain.minor_words": ("words", "lower"),
    "explain.candidates": ("count/die", "lower"),
    "sim.faults_simulated": ("count/die", "lower"),
    "sim.gate_events": ("count/die", "lower"),
    "cache.hits": ("count/die", "higher"),
    "cache.frozen_hits": ("count/die", "higher"),
    "cache.misses": ("count/die", "lower"),
    "cache.hit_ratio": ("fraction", "higher"),
    "noassume.matrix_ms_p50": ("ms", "lower"),
    "noassume.matrix_ms_p90": ("ms", "lower"),
    "cover.rounds": ("count/die", "lower"),
    "cover.hs_iterations": ("count/die", "lower"),
    "cover.budget_fallbacks": ("count/die", "lower"),
    "refine.steps": ("count/die", "lower"),
    "scoring.evaluations": ("count/die", "lower"),
    "callouts.aggressor_screens": ("count/die", "lower"),
    "report.render_ms": ("ms", "lower"),
    "volume.drain_ms": ("ms", "lower"),
    "volume.write_ms": ("ms", "lower"),
    "parallel.efficiency": ("fraction", "higher"),
    "process.unattributed_ms": ("ms", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "diagnosability": ("fraction", "higher"),
    "resolution": ("callouts/defect", "lower"),
}

PER_DIE_COUNTERS = (
    "explain.candidates", "sim.faults_simulated", "sim.gate_events", "cache.hits",
    "cache.frozen_hits", "cache.misses", "cover.rounds", "cover.hs_iterations",
    "cover.budget_fallbacks", "refine.steps", "scoring.evaluations",
    "callouts.aggressor_screens",
)
PROCESS_COUNTERS = (
    "prewarm.faults", "store.loads", "store.rejects", "store.saves", "cache.frozen_bytes",
)


class BenchError(Exception):
    """The benchmark cannot run here (no repository, build failure)."""


# --- statistics -----------------------------------------------------------


def percentile(samples, q, tail=TAIL):
    """Nearest-rank q-quantile of `samples`, or None unless at least `tail`
    samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < tail:
        return None
    return ordered[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else 0.0


# --- environment ------------------------------------------------------------


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    """The caller's environment without MDD_* switches: every setting the
    program sees is passed by flag."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MDD_")}


def commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "diagnose.ml"))):
        raise BenchError("run from the repository root: dune-project or bin/diagnose.ml missing")
    env = dict(child_env(), DUNE_CACHE="disabled")  # no writes outside the checkout
    try:
        out = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS],
            capture_output=True, text=True, env=env, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"dune build failed: {e}") from e
    if out.returncode != 0:
        raise BenchError("dune build failed:\n" + out.stdout + out.stderr)


def file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_tool(args, what):
    out = subprocess.run([TOOL] + args, capture_output=True, text=True, env=child_env(),
                         timeout=600)
    if out.returncode != 0:
        raise BenchError(f"{what} failed:\n{out.stderr}")


def cached_dir(path, fill):
    """`path`, filled by fill(tmp) into a temporary sibling and renamed into
    place, so an interrupted fill never leaves a half-written cache."""
    if not os.path.isdir(path):
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        fill(tmp)
        try:
            os.rename(tmp, path)
        except OSError:  # lost a race with a concurrent fill
            shutil.rmtree(tmp, ignore_errors=True)
    return path


class Inputs:
    """Test set, snapshot and the seeded die set, with the references of
    one cover backend."""

    def __init__(self, seed, domains, backend):
        key = file_digest(DIAGNOSE, TOOL)
        cache = os.path.join(STATE, "cache", key)
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        for old in os.listdir(os.path.dirname(cache)):  # other builds' inputs
            if old != key:
                shutil.rmtree(os.path.join(os.path.dirname(cache), old), ignore_errors=True)
        # Seed-independent and slow (one full TPG run): computed once per build.
        problem = cached_dir(cache, lambda d: run_tool(
            ["prepare", "--out", d, "--domains", str(domains)], "prepare"))
        self.patterns = os.path.join(problem, "patterns.txt")
        self.store = os.path.join(problem, "store")
        gen = cached_dir(os.path.join(cache, f"dies-{seed}-{DIES}-{backend}"), lambda d: run_tool(
            ["gen", "--patterns", self.patterns, "--seed", str(seed), "--dies", str(DIES),
             "--cover", backend, "--out", d, "--domains", str(domains)], "gen"))
        self.dies_dir = os.path.join(gen, "dies")
        with open(os.path.join(gen, "truth.json")) as f:
            self.truth = json.load(f)
        self.names = [d["die"] for d in self.truth["dies"]]
        self.refs = {}
        for name in self.names:
            with open(os.path.join(gen, "ref", name + ".txt")) as f:
                self.refs[name] = f.read()

    def datalog(self, name):
        return os.path.join(self.dies_dir, name + ".datalog")

    def quality(self):
        """Mean hits/injected and reported/injected over the die set."""
        qs = [d for d in self.truth["dies"] if d["injected"] > 0]
        return (statistics.fmean(q["hits"] / q["injected"] for q in qs),
                statistics.fmean(q["reported"] / q["injected"] for q in qs))


# --- child processes ----------------------------------------------------------

DONE = "perfbench: done"  # the tracer's line after the work the CLI would do


def hwm_mb(pid):
    """Peak resident memory so far (VmHWM) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def cpu_s(pid):
    """User plus system CPU seconds so far of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


class Child:
    """One timed child process.  Times are seconds since spawn: t_ready
    (set-up done), t_first (first report readable), t_done (the tracer's
    done line, else exit) and t_exit."""

    def __init__(self, argv, log, stdin=False):
        self.log = open(log, "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.log, env=child_env())
        self.rc = None
        self.t_ready = self.t_first = self.t_done = self.t_exit = None
        self.ready_rss_mb = self.first_cpu_s = None
        self.rss_mb = self.cpu_s = 0.0
        self.lat = []  # serve: seconds from path written to report read, per die
        self.reports = []  # serve: seconds since spawn of each report line

    def readline(self):
        """(line, seconds since spawn); line is '' at EOF."""
        line = self.proc.stdout.readline().decode()
        t = time.perf_counter() - self.t0
        if line.startswith(DONE):
            self.t_done = t
        return line, t

    def ready(self, t):
        if self.t_ready is None:
            self.t_ready = t
            self.ready_rss_mb = hwm_mb(self.proc.pid)

    def send(self, text):
        self.proc.stdin.write(text.encode())
        self.proc.stdin.flush()

    def finish(self):
        """Close stdin, drain stdout, reap the child; returns the output left."""
        if self.proc.stdin:
            self.proc.stdin.close()
        rest = self.proc.stdout.read().decode()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.t_exit = time.perf_counter() - self.t0
        self.proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if self.t_done is None:
            self.t_done = self.t_exit
        if self.ready_rss_mb is None:
            self.ready_rss_mb = self.rss_mb
        if self.first_cpu_s is None:
            self.first_cpu_s = self.cpu_s
        self.proc.stdout.close()
        self.log.close()
        return rest

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def drain(self):
        """Read every line to EOF and reap; returns the whole output."""
        out = []
        try:
            while True:
                line, t = self.readline()
                if not line:
                    break
                if line.startswith("circuit:"):
                    self.ready(t)
                out.append(line)
            out.append(self.finish())
        finally:
            self.kill()
        return "".join(out)


# --- output checks ------------------------------------------------------------


def check_single(rc, stdout, ref):
    """A single-shot run is good when it exits 0 and prints the reference."""
    if rc != 0:
        return f"exit code {rc}"
    if ref not in stdout:
        return "report differs from the reference"
    return None


def check_batch(rc, out_dir, names, refs):
    """Per-die failure messages (None when good) for one batch invocation.
    Only the report field is compared: per-die counters follow drain order."""
    if rc != 0:
        return {n: f"exit code {rc}" for n in names}
    errors = {}
    for n in names:
        try:
            with open(os.path.join(out_dir, n + ".json")) as f:
                report = json.load(f)["report"]
            errors[n] = None if report == refs[n] else "report differs from the reference"
        except (OSError, ValueError, KeyError, TypeError) as e:
            errors[n] = f"missing or unparsable report: {e}"
    try:
        with open(os.path.join(out_dir, "rollup.json")) as f:
            json.load(f)
    except (OSError, ValueError) as e:
        errors = {n: e2 or f"rollup: {e}" for n, e2 in errors.items()}
    return errors


def check_serve_line(line, name, ref):
    try:
        obj = json.loads(line)
    except ValueError:
        return "unparsable report line"
    if not isinstance(obj, dict) or obj.get("die") != name:
        return "report line for the wrong die"
    if obj.get("report") != ref:
        return "report differs from the reference"
    return None


def snapshot_state(store):
    """Identity of every snapshot file: a rewrite (tmp + rename) changes it."""
    state = {}
    for f in sorted(os.listdir(store)):
        st = os.stat(os.path.join(store, f))
        state[f] = (st.st_ino, st.st_mtime_ns, st.st_size, file_digest(os.path.join(store, f)))
    return state


# --- workloads ----------------------------------------------------------------


class Run:
    """Processes, samples and failures of one run."""

    def __init__(self, work, inputs, seconds, domains):
        self.work, self.inputs, self.seconds, self.domains = work, inputs, seconds, domains
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []  # (die, message)
        self.procs = []  # untraced CLI processes
        self.n = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def path(self, what):
        self.n += 1
        return os.path.join(self.work, f"{what}-{self.n}")

    def fail(self, die, msg):
        self.failures.append((die, msg))

    def cli(self, *extra):
        return [DIAGNOSE, "--circuit", CIRCUIT, "--domains", str(self.domains)] + list(extra)

    def tool(self, shape, trace_out, *extra):
        return [TOOL, "trace", "--shape", shape, "--domains", str(self.domains),
                "--trace-out", trace_out] + list(extra)


def one_shot(run, name, patterns, trace_out=None):
    """One single-die process, the CLI or the tracer."""
    args = ["--datalog", run.inputs.datalog(name)]
    if patterns:
        args += ["--patterns", run.inputs.patterns]
    if trace_out is None:
        argv = run.cli("--cover", "greedy", *args)
    else:
        argv = run.tool("single", trace_out, *args)
    child = Child(argv, run.path("log"))
    stdout = child.drain()
    child.t_first = child.t_exit
    run.attempted += 1
    err = check_single(child.rc, stdout, run.inputs.refs[name])
    if err is None and trace_out is None and child.t_ready is None:
        err = "no circuit: line"
    if err:
        run.fail(name, err)
    return child


def batch_once(run, trace_out=None):
    """One batch process over the whole die set, the CLI or the tracer."""
    out_dir = run.path("out")
    args = ["--patterns", run.inputs.patterns, "--batch-dir", run.inputs.dies_dir,
            "--workers", str(run.domains), "--out", out_dir]
    if trace_out is None:
        argv = run.cli("--cover", "greedy", "--prewarm", *args)
    else:
        argv = run.tool("batch", trace_out, *args)
    child = Child(argv, run.path("log"))
    child.drain()
    child.t_first = child.t_exit  # every report is written at the end
    names = run.inputs.names
    run.attempted += len(names)
    errors = check_batch(child.rc, out_dir, names, run.inputs.refs)
    if trace_out is None and child.t_ready is None and child.rc == 0:
        errors = {n: "no circuit: line" for n in names}
    for n, e in errors.items():
        if e:
            run.fail(n, e)
    shutil.rmtree(out_dir, ignore_errors=True)
    return child


def serve_once(run, minimum, trace_out=None):
    """One server process: a restart over a copy of the snapshot, then a
    closed loop of datalog paths until the time is up."""
    store = run.path("store")
    shutil.copytree(run.inputs.store, store)
    before = snapshot_state(store)
    if trace_out is None:
        argv = run.cli("--serve", "--prewarm", "--store-dir", store, "--cover", "exact")
    else:
        argv = run.tool("serve", trace_out, "--store-dir", store)
    child = Child(argv, run.path("log"), stdin=True)
    names, sent = run.inputs.names, []
    try:
        while len(sent) < minimum or run.elapsed() < run.seconds:
            name = names[len(sent) % len(names)]
            t_send = time.perf_counter() - child.t0
            child.send(run.inputs.datalog(name) + "\n")
            sent.append(name)
            line, t = child.readline()
            if not line:
                break
            child.reports.append(t)
            if child.t_first is None:
                # --serve prints no ready line: set-up ends with the first report.
                child.t_first = t
                child.first_cpu_s = cpu_s(child.proc.pid)
                child.ready(t)
            else:
                child.lat.append(t - t_send)
            err = check_serve_line(line, name, run.inputs.refs[name])
            if err:
                run.fail(name, err)
        child.finish()
    finally:
        child.kill()
    run.attempted += len(sent)
    if child.rc != 0:
        for n in sent:
            run.fail(n, f"exit code {child.rc}")
    elif child.t_first is None or len(child.lat) + 1 < len(sent):
        run.fail(sent[-1], "missing report line")
    if snapshot_state(store) != before:
        for n in sent:
            run.fail(n, "the snapshot was rewritten: the restart swept live")
    shutil.rmtree(store, ignore_errors=True)
    child.sent = len(sent)
    return child


def repeat(run, once, minimum):
    """Processes from once() until the time is up and `minimum` are done."""
    while len(run.procs) < minimum or run.elapsed() < run.seconds:
        run.procs.append(once())


def workload_loop(workload, run):
    names = run.inputs.names
    if workload == "tpg-cold":
        repeat(run, lambda: one_shot(run, names[len(run.procs) % len(names)], False), TPG_MIN)
    elif workload == "single-shot":
        repeat(run, lambda: one_shot(run, names[len(run.procs) % len(names)], True), SHOT_MIN)
    elif workload == "volume-batch":
        repeat(run, lambda: batch_once(run), BATCH_MIN)
    else:
        repeat(run, lambda: serve_once(run, SERVE_MIN), 1)


def end_to_end(run):
    procs = run.procs
    return {
        "setup_s": median([p.t_ready for p in procs if p.t_ready is not None]),
        "first_report_s": median([p.t_first for p in procs if p.t_first is not None]),
        "cpu_s": median([p.first_cpu_s for p in procs]),
        "setup_rss_mb": median([p.ready_rss_mb for p in procs]),
    }


def extras(workload, run):
    """The workload-specific figures of README.md, with their sample counts."""
    procs, rows = run.procs, []
    walls = [p.t_exit for p in procs]
    if workload == "tpg-cold":
        rows.append(("cold_report_s", median(walls), "s", "lower", len(walls)))
    if workload == "single-shot":
        ms = [w * 1000 for w in walls]
        rows.append(("shot_ms_p50", percentile(ms, 0.5), "ms", "lower", len(ms)))
        rows.append(("shot_ms_p90", percentile(ms, 0.9), "ms", "lower", len(ms)))
    if workload == "serve-restart":
        ms = [x * 1000 for p in procs for x in p.lat]
        rows.append(("die_ms_p50", percentile(ms, 0.5), "ms", "lower", len(ms)))
        rows.append(("die_ms_p90", percentile(ms, 0.9), "ms", "lower", len(ms)))
        rows.append(("dies_per_s", 1000 / statistics.fmean(ms) if ms else None, "1/s", "higher",
                     len(ms)))
    else:
        per = len(run.inputs.names) if workload == "volume-batch" else 1
        rows.append(("dies_per_s", per * len(walls) / sum(walls), "1/s", "higher", len(walls)))
    rows.append(("peak_rss_mb", median([p.rss_mb for p in procs]), "MB", "lower", len(procs)))
    diag, resol = run.inputs.quality()
    rows.append(("diagnosability", diag, "fraction", "higher", len(run.inputs.names)))
    rows.append(("resolution", resol, "callouts/defect", "lower", len(run.inputs.names)))
    rate = len(run.failures) / run.attempted if run.attempted else 0.0
    rows.append(("error_rate", rate, "fraction", "lower", run.attempted))
    return rows


# --- traced run ---------------------------------------------------------------


def load_trace(path):
    with open(path) as f:
        return json.load(f)


def span_ms(s):
    return (s["end_us"] - s["start_us"]) / 1000.0


def self_times(trace):
    """Per layer: (total ms, self ms) — self excludes child spans."""
    child_ms = {}
    for s in trace["spans"]:
        if s["parent"] >= 0:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + span_ms(s)
    out = {}
    for s in trace["spans"]:
        tot, slf = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (tot + span_ms(s), slf + span_ms(s) - child_ms.get(s["id"], 0.0))
    return out


def top_level_ms(trace):
    return sum(span_ms(s) for s in trace["spans"] if s["parent"] < 0 and s["name"] != "replay")


def traced_pairs(workload, run):
    """Alternate one untraced CLI process and one traced replay of the same
    work until the time is up.  Returns (untraced, traced) wall pairs of
    the same work, the traced processes' own walls, and their traces."""
    pairs, walls, traces = [], [], []
    names = run.inputs.names
    while not traces or run.elapsed() < run.seconds or (
            workload == "single-shot" and len(traces) < SHOT_MIN):
        path = run.path("trace") + ".json"
        name = names[len(traces) % len(names)]
        if workload in ("tpg-cold", "single-shot"):
            patterns = workload == "single-shot"
            u = one_shot(run, name, patterns)
            t = one_shot(run, name, patterns, trace_out=path)
            pairs.append((u.t_exit, t.t_done))
        elif workload == "volume-batch":
            u, t = batch_once(run), batch_once(run, trace_out=path)
            pairs.append((u.t_exit, t.t_done))
        else:
            # Both servers get the same dies in the same order, so they are
            # compared at the last report of the untraced one's shorter run.
            u = serve_once(run, SERVE_PREFIX)
            t = serve_once(run, SERVE_MIN, trace_out=path)
            n = min(len(u.reports), len(t.reports))
            if n:
                pairs.append((u.reports[n - 1], t.reports[n - 1]))
        walls.append(t.t_done)
        if not os.path.isfile(path):
            run.fail("trace", "the traced replay wrote no trace")
            break
        traces.append(load_trace(path))
    return pairs, walls, traces


def per_layer(workload, run):
    pairs, traced, traces = traced_pairs(workload, run)
    layer = {name: [] for name in ("netlist.load", "pattern.parse", "datalog.parse",
                                   "atpg.generate", "session.create", "explain.build",
                                   "noassume.matrix", "report.render", "volume.drain",
                                   "volume.write")}
    words = {"atpg.generate": [], "explain.build": []}
    counters, dies, atpg, serial, tops = {}, 0, None, [], []
    for tr in traces:
        batch_serial = 0.0
        for s in tr["spans"]:
            if s["name"] in layer:
                layer[s["name"]].append(span_ms(s))
            if s["name"] in words:
                words[s["name"]].append(s["minor_words"])
            if workload == "volume-batch" and s["name"] in (
                    "explain.build", "noassume.matrix", "report.render"):
                batch_serial += span_ms(s)
        serial.append(batch_serial)
        tops.append(top_level_ms(tr))
        for k, v in tr["counters"].items():
            counters.setdefault(k, []).append(v)
        if workload == "volume-batch":  # the counters stop before the replay
            dies += len(run.inputs.names)
        else:
            dies += sum(1 for s in tr["spans"] if s["name"] == "explain.build")
        atpg = tr["atpg"] or atpg
    dies = max(dies, 1)

    def total(name):
        return float(sum(counters.get(name, [])))

    def pct(name, q):
        # tpg-cold diagnoses one die per process: no labelled percentile.
        v = percentile(layer[name], q)
        return v if v is not None and workload != "tpg-cold" else 0.0

    m = {
        "netlist.load_ms": median(layer["netlist.load"]),
        "pattern.parse_ms": median(layer["pattern.parse"]),
        "datalog.parse_ms": median(layer["datalog.parse"]),
        "atpg.generate_ms": median(layer["atpg.generate"]),
        "atpg.minor_words": median(words["atpg.generate"]),
        "atpg.faults": float(atpg["faults"]) if atpg else 0.0,
        "atpg.aborted": float(atpg["aborted"]) if atpg else 0.0,
        "atpg.abort_ratio": atpg["aborted"] / atpg["faults"] if atpg else 0.0,
        "atpg.patterns": float(atpg["patterns"]) if atpg else 0.0,
        "atpg.coverage": float(atpg["coverage"]) if atpg else 0.0,
        "session.create_ms": median(layer["session.create"]),
        "explain.build_ms_p50": pct("explain.build", 0.5),
        "explain.build_ms_p90": pct("explain.build", 0.9),
        "explain.minor_words": median(words["explain.build"]),
        "noassume.matrix_ms_p50": pct("noassume.matrix", 0.5),
        "noassume.matrix_ms_p90": pct("noassume.matrix", 0.9),
        "report.render_ms": median(layer["report.render"]),
        "volume.drain_ms": median(layer["volume.drain"]),
        "volume.write_ms": median(layer["volume.write"]),
        "parallel.efficiency": 0.0,
        # The traced process's own wall, spawn to its done line, less its
        # top-level spans: exec, runtime and module init.  Against the
        # untraced wall, run-to-run noise of a 14 s TPG would swamp it.
        "process.unattributed_ms": median([w * 1000 - t for w, t in zip(traced, tops)]),
        "trace.overhead_frac": (median([t for _, t in pairs]) / median([u for u, _ in pairs]) - 1
                                if pairs else 0.0),
    }
    m["diagnosability"], m["resolution"] = run.inputs.quality()
    for name in PER_DIE_COUNTERS:
        m[name] = total(name) / dies
    for name in PROCESS_COUNTERS:
        m[name] = median(counters.get(name, []))
    probes = total("cache.hits") + total("cache.frozen_hits") + total("cache.misses")
    m["cache.hit_ratio"] = (total("cache.hits") + total("cache.frozen_hits")) / probes if probes else 0.0
    if workload == "volume-batch" and m["volume.drain_ms"] > 0:
        m["parallel.efficiency"] = median(serial) / (run.domains * m["volume.drain_ms"])
    layers = {}
    for tr in traces:
        for name, (tot, slf) in self_times(tr).items():
            a, b = layers.get(name, (0.0, 0.0))
            layers[name] = (a + tot / len(traces), b + slf / len(traces))
    sanity = []
    if workload == "tpg-cold":
        # Against the traced process's own wall: two processes in a row can
        # differ by more than 5% on a shared machine.
        wall = median(traced) * 1000
        sanity.append(("atpg.generate_ms >= 95% of the wall", m["atpg.generate_ms"] >= 0.95 * wall))
    if workload in ("single-shot", "volume-batch"):
        sanity.append(("atpg.generate_ms = 0", m["atpg.generate_ms"] == 0))
    if workload == "serve-restart":
        sanity.append(("store.loads = 1", m["store.loads"] == 1))
        sanity.append(("prewarm.faults = 0", m["prewarm.faults"] == 0))
    return m, layers, sanity


# --- main ---------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    domains = DOMAINS
    # The inputs and their references are made untimed, so they may use
    # two cores; their bytes do not depend on the domain count.
    inputs = Inputs(seed, min(2, nproc()), "exact" if workload == "serve-restart" else "greedy")
    work = os.path.join(STATE, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(work, inputs, seconds, domains)
    try:
        if trace:
            metrics, layers, sanity = per_layer(workload, run)
            units, table = PER_LAYER, []
        else:
            workload_loop(workload, run)
            metrics, layers, sanity = end_to_end(run), {}, []
            units, table = E2E, extras(workload, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = {"nproc": nproc(), "ocaml": inputs.truth["ocaml"], "commit": commit(),
           "python": platform.python_version(), "domains": domains, "workers": domains,
           "dies": DIES, "seed": seed, "seconds": seconds,
           "flags": "diagnose " + flags(workload, domains)}
    return {
        "workload": workload, "trace": trace, "env": env,
        "correct": not run.failures, "attempted": run.attempted,
        "failed": min(len(run.failures), run.attempted),
        "failures": run.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        "better": {k: units[k][1] for k in units},
        "extras": table, "layers": layers, "sanity": sanity,
    }


def flags(workload, domains):
    return {
        "tpg-cold": f"--circuit {CIRCUIT} --domains {domains} --cover greedy --datalog D",
        "single-shot": f"--circuit {CIRCUIT} --domains {domains} --cover greedy --patterns P --datalog D",
        "volume-batch": f"--circuit {CIRCUIT} --domains {domains} --cover greedy --patterns P "
                        f"--batch-dir DIR --prewarm --workers {domains} --out O",
        "serve-restart": f"--circuit {CIRCUIT} --domains {domains} --serve --prewarm "
                         f"--store-dir S --cover exact",
    }[workload]


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def print_human(res):
    env = res["env"]
    print(f"# {res['workload']} (trace {res['trace']}): nproc {env['nproc']}, OCaml {env['ocaml']}, "
          f"commit {env['commit']}, seed {env['seed']}, {env['dies']} dies, {env['seconds']} s")
    print(f"#   {env['flags']}")
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {fmt(m['value']):>14s} {m['unit']:16s} {res['better'][name]} is better")
    for name, v, unit, better, n in res["extras"]:
        print(f"  {name:28s} {fmt(v):>14s} {unit:16s} {better} is better (n={n})")
    if res["layers"]:
        print("  layer                        total ms      self ms")
        for name, (tot, slf) in sorted(res["layers"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:28s} {tot:12.3f} {slf:12.3f}")
    for what, ok in res["sanity"]:
        print(f"  sanity: {what}: {'ok' if ok else 'NOT MET'}")
    for die, msg in res["failures"]:
        print(f"  FAILED {die}: {msg}")


def save(res):
    """Per-layer metrics land next to the end-to-end ones, per workload."""
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", res["workload"] + ".json")
    doc = {}
    if os.path.isfile(path):
        with open(path) as f:
            doc = json.load(f)
    doc["env"] = res["env"]
    doc["per_layer" if res["trace"] else "end_to_end"] = {
        k: dict(v, better=res["better"][k]) for k, v in res["metrics"].items()}
    with open(path + ".tmp", "w") as f:
        json.dump(doc, f, indent=1)
    os.replace(path + ".tmp", path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    try:
        build()
        results = []
        for w in WORKLOADS if args.all else (args.workload,):
            res = measure(w, args.seed, args.seconds, args.trace)
            print_human(res)
            save(res)
            results.append(res)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    last = results[-1]
    ok = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": last["metrics"] if len(results) == 1 else
        {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
