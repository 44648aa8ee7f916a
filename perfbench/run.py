#!/usr/bin/env python3
"""HALOTIS benchmark: seeded workloads through the `halotis` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the CLI and the
benchmark's in-process helper (perfbench/hbench.ml) with dune, writes
the workload's inputs from the seed, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times the CLI commands users run (the end-to-end metrics);
--trace 1 also replays the workload in-process with spans around each
layer's public entry point (the per-layer metrics).  Every run checks
outputs: a nonzero exit, an `"ok":false` reply, or output that differs
from the in-process reference or between serial and two-worker runs
counts as a failed operation and makes the run exit 1.  See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# BENCHMARK.json lists faults-rand5k and serve-mix; the other two run by
# hand (see README.md for why they are not in the gated set).
WORKLOADS = ("sim-rand40k", "faults-rand5k", "serve-mix", "vary-mult8")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_jobs2_s": "s",
    "cpu_jobs2_s": "s",
    "load_miss_ms": "ms",
    "heap_peak_mb": "MB",
    "edge_err_vs_analog": "ratio",
}

# Self time of the span of the same name in the in-process replay.
SPAN_METRICS = {
    "netlist.parse_s": "netlist.parse",
    "stim.bind_s": "stim.bind",
    "lint.preflight_s": "lint.preflight",
    "engine.compile_s": "engine.compile",
    "engine.kernel_s": "engine.kernel",
    "wave.digitize_s": "wave.digitize",
    "wave.vcd_s": "wave.vcd",
    "fault.baseline_s": "fault.baseline",
    "fault.journal_s": "fault.journal",
    "fault.report_s": "fault.report",
    "vary.sample_s": "vary.sample",
    "tech.overlay_compile_s": "tech.overlay_compile",
    "vary.campaign_s": "vary.campaign",
    "vary.report_s": "vary.report",
}

SERVE_OPS = ("load_hit", "load_miss", "set_input", "advance", "query_edges",
             "query_waveform", "inject")

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "engine.kernel_ev_per_s": "1/s",
    "engine.events_processed": "count",
    "engine.events_scheduled": "count",
    "engine.useful_ratio": "ratio",
    "bin.remainder_s": "s",
    "fault.site_p50_us": "us",
    "fault.site_p99_us": "us",
    "engine.cone_exact_ratio": "ratio",
    "engine.cone_events_per_site": "count",
    "engine.cone_gates_per_site": "count",
    "fault.jobs2_speedup": "ratio",
    "fault.jobs2_cpu_ratio": "ratio",
    # Round trips swing with the host's latency from run to run (25-30 %
    # quartile spreads over ten runs), too much to gate as end-to-end.
    "serve.rtt_p50_us": "us",
    "serve.rtt_p90_us": "us",
    "serve.req_per_s": "1/s",
    **{f"serve.handle_us.{op}": "us" for op in SERVE_OPS},
    "serve.decode_us": "us",
    "serve.encode_us": "us",
    "serve.transport_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_evictions": "count",
    "gc.top_heap_mb": "MB",
    "gc.alloc_mwords": "Mwords",
    "gc.major_collections": "count",
    "trace.overhead_ratio": "ratio",
}

# Each cycle first times zero-work commands for this long (one at least);
# setup_s is the fastest of them over the run.
SETUP_SLICE_S = 0.3
HELLO = b'{"id":1,"op":"hello","version":1}\n'
# Cycles (serial command, two-worker command, serve daemon) per run, at
# least.  It binds only on sim-rand40k, whose cycle takes about 13 s;
# there a fourth cycle would lengthen each run by a third.
MIN_CYCLES = 3
# Hard stop for the timed loop, well inside the 180 s a run may take.
LOOP_DEADLINE_S = 110.0
PROC_TIMEOUT_S = 120.0

GC_KEYS = ("allocated_words", "minor_words", "promoted_words", "major_words",
           "minor_collections", "major_collections", "forced_major_collections",
           "heap_words", "top_heap_words", "mean_space_overhead")
GC_LINE = re.compile(rb"^([a-z_]+): ([0-9.eE+-]+)$")


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def split_gc(stderr):
    """Strip the OCAMLRUNPARAM=v=0x400 exit block off the end of a
    process's stderr; returns (the rest, {key: number})."""
    lines = stderr.splitlines(keepends=True)
    stats = {}
    while lines:
        m = GC_LINE.match(lines[-1].rstrip(b"\r\n"))
        if not m or m.group(1).decode() not in GC_KEYS:
            break
        stats[m.group(1).decode()] = float(m.group(2))
        lines.pop()
    return b"".join(lines), stats


def wait(p):
    """Blocking wait, so the exit is seen the moment it happens
    (Popen.wait with a timeout polls with sleeps of up to 50 ms), with a
    kill timer so that a hung process cannot stall the run."""
    timer = threading.Timer(PROC_TIMEOUT_S, p.kill)
    timer.start()
    try:
        return p.wait()
    finally:
        timer.cancel()


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Run:
    """One invocation: the workload's files, its tallies and samples."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.exe = str(root / "_build/default/bin/halotis_cli.exe")
        self.hbench = str(root / "_build/default/perfbench/hbench.exe")
        self.work = root / ".perfbench_work" / f"{workload}-s{seed}"
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ, OCAMLRUNPARAM="v=0x400",
                        TMPDIR=str(self.work / "tmp"))
        self.transcript = None

    def fail(self, what, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def helper(self, *args):
        p = subprocess.run([self.hbench, *args], cwd=self.root, capture_output=True,
                           timeout=PROC_TIMEOUT_S)
        if p.returncode != 0:
            raise RuntimeError(f"hbench {args[0]} failed: {p.stderr.decode(errors='replace')}")
        return p.stdout

    def read(self, name):
        return (self.work / name).read_bytes()

    # ----- CLI commands -----

    def cli(self, argvs, tag):
        """Runs the commands concurrently; returns wall, CPU (children,
        user+sys) and per-command (rc, stdout, gc stats)."""
        outs = []
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        procs = []
        try:
            for i, argv in enumerate(argvs):
                out = open(self.work / f"{tag}-{i}.out", "wb")
                err = open(self.work / f"{tag}-{i}.err", "wb")
                outs.append((out, err))
                procs.append(subprocess.Popen([self.exe, *argv], cwd=self.work, env=self.env,
                                              stdin=subprocess.DEVNULL, stdout=out, stderr=err))
            rcs = [wait(p) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
            for out, err in outs:
                out.close()
                err.close()
        wall = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        results = []
        for i, rc in enumerate(rcs):
            self.attempted += 1
            _, gc = split_gc(self.read(f"{tag}-{i}.err"))
            if rc != 0:
                self.fail(f"{tag}-{i}: exit {rc}")
            results.append((rc, self.read(f"{tag}-{i}.out"), gc))
        return wall, cpu, results

    # ----- serve -----

    def daemons(self, lines, tag, n=1, gate=None):
        """n `serve` daemons at once over stdio, each a closed loop driven
        from this one thread (no client thread competes for the
        interpreter lock): a daemon gets its next request once its
        previous reply has arrived, then stdin closes.  A lone daemon
        shares this process's CPU: a ping-pong across CPUs pays a
        cross-CPU wake-up per message, whose cost swings with whatever
        else the host runs.  Returns wall, CPU (user+sys of the daemons)
        and per daemon (round trip of each request in s, the first
        counted from spawn; indices of cache-missing loads; gc stats).
        gate is the index of the stepped session's edges reply, or None
        for a script without one."""
        allowed = os.sched_getaffinity(0)
        if n == 1:
            os.sched_setaffinity(0, {min(allowed)})
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        procs, sent = [], []
        replies = [[] for _ in range(n)]
        rtts = [[] for _ in range(n)]
        pending = [b""] * n
        sel = selectors.DefaultSelector()

        def send(i, line):
            try:
                procs[i].stdin.write(line)
                procs[i].stdin.flush()
            except BrokenPipeError:
                pass  # the daemon died: EOF and its exit status follow

        try:
            for i in range(n):
                sent.append(time.perf_counter())
                with open(self.work / f"{tag}-{i}.err", "wb") as err:
                    procs.append(subprocess.Popen([self.exe, "serve"], cwd=self.work,
                                                  env=self.env, stdin=subprocess.PIPE,
                                                  stdout=subprocess.PIPE, stderr=err))
                sel.register(procs[i].stdout, selectors.EVENT_READ, i)
                send(i, lines[0])
            while sel.get_map():
                for key, _ in sel.select():
                    i = key.data
                    chunk = os.read(key.fd, 1 << 16)
                    arrived = time.perf_counter()
                    pending[i] += chunk
                    while b"\n" in pending[i]:
                        reply, pending[i] = pending[i].split(b"\n", 1)
                        rtts[i].append(arrived - sent[i])
                        replies[i].append(reply + b"\n")
                        if len(replies[i]) < len(lines):
                            sent[i] = time.perf_counter()
                            send(i, lines[len(replies[i])])
                    if not chunk or len(replies[i]) == len(lines):
                        sel.unregister(key.fileobj)
                        try:
                            procs[i].stdin.close()
                        except BrokenPipeError:
                            pass
            rcs = [wait(p) for p in procs]
        finally:
            sel.close()
            if n == 1:
                os.sched_setaffinity(0, allowed)
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
                p.stdout.close()
        wall = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        results = []
        for i, rc in enumerate(rcs):
            missed = self.check_transcript(f"{tag}-{i}", lines, replies[i], rc, gate)
            _, gc = split_gc(self.read(f"{tag}-{i}.err"))
            results.append((rtts[i], missed, gc))
        return wall, cpu, results

    def check_transcript(self, tag, lines, replies, rc, gate):
        """The serve gates; returns the indices of cache-missing loads."""
        self.attempted += len(lines)
        if rc != 0:
            self.fail(f"{tag}: daemon exit {rc}")
        if len(replies) < len(lines):
            self.fail(f"{tag}: daemon stopped after {len(replies)} replies",
                      len(lines) - len(replies))
        missed = []
        for i, reply in enumerate(replies):
            doc = json.loads(reply)
            if doc.get("ok") is not True:
                self.fail(f"{tag}: request {i + 1} failed: {reply[:200]!r}")
            elif doc["result"].get("cache") == "miss":
                missed.append(i)
        if gate is None:
            return missed
        if len(replies) > gate:
            expected = json.loads(self.read("expect_serve.json"))
            got = json.loads(replies[gate]).get("result", {}).get("edges")
            if got != expected:
                self.fail(f"{tag}: stepped session edges differ from the one-shot run")
        if self.transcript is None:
            self.transcript = replies
        elif replies != self.transcript:
            self.fail(f"{tag}: transcript differs from the first daemon's")
        return missed


def gc_mb(gc):
    return gc.get("top_heap_words", 0.0) * 8 / 1e6


def measure(run, manifest, seconds, trace):
    """Times the workload's commands; returns the samples."""
    lines = (run.work / "serve.ndjson").read_bytes().splitlines(keepends=True)
    ops = [json.loads(line)["op"] for line in lines]
    gate = manifest["serve_gate_request"]
    kind = manifest["kind"]
    expect_stdout = run.read("expect_stdout.txt") if manifest["stdout_expect"] else None
    s = {"setup": [], "serial": [], "serial_cpu": [], "jobs2": [], "jobs2_cpu": [],
         "rtt50": [], "rtt90": [], "rps": [], "miss": [], "heap": [], "gc": [], "rtts": []}

    def setup_slice():
        # zero-work commands until the slice is spent, one at least; the
        # slices spread over the run, so setup_s sees the same host as
        # the other metrics
        t = time.perf_counter()
        while True:
            if kind == "serve":
                _, _, [(rtts, _, _)] = run.daemons([HELLO], "setup")
                s["setup"].append(rtts[0])
            else:
                s["setup"].append(run.cli(manifest["setup"], "setup")[0])
            if trace or time.perf_counter() - t >= SETUP_SLICE_S:
                return

    def serve_sample(result):
        rtts, misses, _ = result
        # hello rides on process start-up (setup_s) and loads have their
        # own metric: RTT percentiles and req_per_s cover the session
        # requests
        session = [r * 1e6 for r, op in zip(rtts, ops) if op not in ("hello", "load")]
        s["rtt50"].append(percentile(session, 50))
        s["rtt90"].append(percentile(session, 90))
        s["rps"].append(len(session) / (sum(session) / 1e6))
        s["miss"].extend(rtts[i] * 1e3 for i in misses)
        s["rtts"] = rtts

    t_begin = time.perf_counter()
    cycle = 0
    while True:
        setup_slice()
        if kind == "serve":
            wall, cpu, [result] = run.daemons(lines, f"serial{cycle}", 1, gate)
            s["serial"].append(wall)
            s["serial_cpu"].append(cpu)
            s["heap"].append(gc_mb(result[2]))
            s["gc"].append(result[2])
            serve_sample(result)
            wall2, cpu2, _ = run.daemons(lines, f"jobs2-{cycle}", 2, gate)
            s["jobs2"].append(wall2)
            s["jobs2_cpu"].append(cpu2)
        else:
            wall, cpu, results = run.cli([manifest["serial"]], f"serial{cycle}")
            _, stdout, gc = results[0]
            s["serial"].append(wall)
            s["serial_cpu"].append(cpu)
            s["heap"].append(gc_mb(gc))
            s["gc"].append(gc)
            if expect_stdout is not None and stdout != expect_stdout:
                run.fail("simulate output differs from the in-process Sim.run digest")
            wall2, cpu2, results2 = run.cli(manifest["jobs2"], f"jobs2-{cycle}")
            s["jobs2"].append(wall2)
            s["jobs2_cpu"].append(cpu2)
            for i, (_, out2, _) in enumerate(results2):
                if out2 != stdout:
                    run.fail(f"jobs2-{cycle}-{i}: report differs from the serial run")
            for serial_file, others in manifest["outputs"]:
                ref = run.read(serial_file)
                for other in others:
                    if run.read(other) != ref:
                        run.fail(f"{other} differs from {serial_file}")
            _, _, [result] = run.daemons(lines, f"serve{cycle}", 1, gate)
            serve_sample(result)
        cycle += 1
        elapsed = time.perf_counter() - t_begin
        if trace or elapsed >= LOOP_DEADLINE_S or (elapsed >= seconds and cycle >= MIN_CYCLES):
            break
    return s


def end_to_end(s, analog):
    """Times are the fastest sample of the run.  The work of a command is
    deterministic (its GC exit statistics repeat to the word), but on a
    shared host the same process takes up to twice as long from one
    start to the next, in phases of seconds to half an hour that an
    interleaved calibration loop does not track; the slow samples
    measure the neighbours, the fastest the program."""
    return {
        "setup_s": min(s["setup"]),
        "wall_s": min(s["serial"]),
        "wall_jobs2_s": min(s["jobs2"]),
        "cpu_jobs2_s": min(s["jobs2_cpu"]),
        "load_miss_ms": min(s["miss"]),
        "heap_peak_mb": statistics.median(s["heap"]),
        "edge_err_vs_analog": analog,
    }


def per_layer(run, manifest, s, tr):
    med = statistics.median
    self_s = tr["self_s"]
    m = {name: self_s[span] for name, span in SPAN_METRICS.items()}
    kernel = self_s["engine.kernel"]
    m["engine.kernel_ev_per_s"] = tr["events_processed"] / kernel
    m["engine.events_processed"] = tr["events_processed"]
    m["engine.events_scheduled"] = tr["events_scheduled"]
    m["engine.useful_ratio"] = tr["events_processed"] / tr["events_scheduled"]
    m["bin.remainder_s"] = s["serial"][0] - tr["chain_s"]
    gaps = tr["site_gaps_us"]
    m["fault.site_p50_us"] = percentile(gaps, 50)
    m["fault.site_p99_us"] = percentile(gaps, 99)
    exact = tr["cone_exact"]
    m["engine.cone_exact_ratio"] = exact / max(1, exact + tr["cone_fallback"])
    m["engine.cone_events_per_site"] = tr["cone_events"] / max(1, exact)
    m["engine.cone_gates_per_site"] = tr["cone_gates"] / max(1, exact)
    # sim-rand40k and serve-mix have no --jobs: their two-worker form is
    # two concurrent copies, so the speedup is per unit of work.
    units = 2 if manifest["kind"] == "serve" else len(manifest["jobs2"])
    m["fault.jobs2_speedup"] = units * s["serial"][0] / s["jobs2"][0]
    m["fault.jobs2_cpu_ratio"] = s["jobs2_cpu"][0] / (units * s["serial_cpu"][0])
    by_op = {}
    for op, us in tr["handle_us"]:
        by_op.setdefault(op, []).append(us)
    for op in SERVE_OPS:
        m[f"serve.handle_us.{op}"] = med(by_op[op])
    m["serve.rtt_p50_us"] = med(s["rtt50"])
    m["serve.rtt_p90_us"] = med(s["rtt90"])
    m["serve.req_per_s"] = med(s["rps"])
    m["serve.decode_us"] = med(tr["decode_us"])
    m["serve.encode_us"] = med(tr["encode_us"])
    rtts = s["rtts"]
    handle = [us for _, us in tr["handle_us"]]
    m["serve.transport_us"] = med(r * 1e6 - h for r, h in list(zip(rtts, handle))[1:])
    hits, misses = tr["cache_hits"], tr["cache_misses"]
    m["serve.cache_hit_ratio"] = hits / (hits + misses)
    m["serve.cache_evictions"] = tr["cache_evictions"]
    gc = s["gc"][0]
    m["gc.top_heap_mb"] = gc_mb(gc)
    m["gc.alloc_mwords"] = gc.get("allocated_words", 0.0) / 1e6
    m["gc.major_collections"] = gc.get("major_collections", 0.0)
    m["trace.overhead_ratio"] = tr["traced_s"] / tr["untraced_s"]
    return m


def analog_error(run):
    """edge_err_vs_analog, computed outside the timed region.  The
    analog run takes seconds, so its result is kept per (helper binary,
    seed): hbench.exe links the engine, tech and analog libraries
    statically and the figure reads nothing but the seed, so equal
    binary bytes and seed give an equal figure, and any change to those
    libraries changes the key."""
    digest = hashlib.sha256(Path(run.hbench).read_bytes()).hexdigest()[:16]
    cache = run.root / ".perfbench_work" / f"analog-{digest}-s{run.seed}.json"
    if not cache.is_file():
        part = run.work / "analog.json"
        part.write_bytes(run.helper("analog", str(run.work)))
        part.replace(cache)
    return json.loads(cache.read_bytes())["edge_err_vs_analog"]


def build(root):
    # no shared dune cache: the build reads and writes only the checkout
    p = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "bin/halotis_cli.exe", "perfbench/hbench.exe"],
                       cwd=root, capture_output=True, timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stderr.decode(errors="replace"))
        raise SystemExit("perfbench: build failed")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    for needed in ("dune-project", "bin/halotis_cli.ml", "perfbench/hbench.ml"):
        if not (root / needed).is_file():
            raise SystemExit(f"perfbench: {needed} not found; run from a halotis checkout")
    build(root)
    run = Run(root, args.workload, args.seed)
    shutil.rmtree(run.work, ignore_errors=True)
    (run.work / "tmp").mkdir(parents=True)
    run.helper("gen", args.workload, str(args.seed), str(run.work))
    manifest = json.loads(run.read("manifest.json"))
    run.helper("expect", str(run.work))
    samples = measure(run, manifest, args.seconds, args.trace)
    if args.trace:
        tr = json.loads(run.helper("trace", str(run.work)))
        values, units = per_layer(run, manifest, samples, tr), PER_LAYER
        shutil.copy(run.work / "spans.json", run.work.parent / f"spans-{run.work.name}.json")
    else:
        analog = analog_error(run)
        values, units = end_to_end(samples, analog), END_TO_END
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0
    if correct:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
