#!/usr/bin/env python3
"""ControlShed benchmark: three workloads on the paper's Section 5 plant.

    python3 perfbench/run.py --workload sim_paper|rt_inproc|cluster_tcp \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles src/) into
$CARGO_TARGET_DIR (default .bench_build), runs reps of the workload for
about S seconds, checks the outputs, and prints the metrics. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 a separate traced run reports the per-layer
ones. Exits nonzero, without a result line, when it cannot build or run,
and nonzero after the result line when a correctness check fails.

Every rep is its own process, so CPU time and peak RSS are per rep. The
cluster_tcp generator (two feeders) is a separate process whose CPU is
not charged to the system under test.
"""

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_paper", "rt_inproc", "cluster_tcp")

# Wall seconds one rt_inproc / cluster_tcp rep replays (400 trace seconds
# at 40x). A sim_paper rep takes about 0.5 s of one core; a sim_paper run
# of S seconds replays round(0.6 S) inputs once for QoS, then the first
# round(0.2 S) of them in SIM_ROUNDS - 1 more rounds for CPU time.
RT_REP_SECONDS = 10.0
SIM_INPUTS_PER_SECOND = 0.6
SIM_FLOOR_INPUTS_PER_SECOND = 0.2
SIM_ROUNDS = 5
REP_TIMEOUT = 120.0
MIN_PERIODS = 390  # of the 400 control periods a rep must record

class BenchError(Exception):
    """The benchmark could not build or run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no ControlShed sources next to perfbench/ (src/ missing)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no perfbench binary")
    return binary


def last_json(text, what):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError(what + " printed no JSON")


def run_json(cmd, what):
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(what + " timed out")
    if p.returncode != 0:
        raise BenchError("%s exited %d" % (what, p.returncode))
    return last_json(p.stdout, what)


def stop(proc):
    if proc is not None and proc.poll() is None:
        proc.kill()
    if proc is not None:
        proc.wait()


def rep_cluster(binary, seed, extra):
    """One cluster_tcp rep: the generator process starts first and waits;
    the system under test announces its node ports once both nodes are up,
    and the ports release the feeders."""
    feeder = sut = None
    try:
        feeder = subprocess.Popen([binary, "feed", "--seed", str(seed)],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True)
        sut = subprocess.Popen([binary, "rep", "--workload", "cluster_tcp",
                                "--seed", str(seed)] + extra,
                               stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        lines = queue.Queue()

        def pump():
            for line in sut.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        deadline = time.monotonic() + 30.0
        ports = None
        while ports is None:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            if line is None:
                raise BenchError("cluster_tcp rep ended before its nodes were ready")
            if line.startswith("READY"):
                ports = line.split()[1:]
        feed_out, _ = feeder.communicate("GO " + " ".join(ports) + "\n", timeout=REP_TIMEOUT)
        sut.wait(timeout=REP_TIMEOUT)
        reader.join(timeout=5.0)
        rest = []
        while not lines.empty():
            line = lines.get()
            if line is not None:
                rest.append(line)
        if sut.returncode != 0 or feeder.returncode != 0:
            raise BenchError("cluster_tcp rep exited %s/%s" % (sut.returncode, feeder.returncode))
        rep = last_json("".join(rest), "cluster_tcp rep")
        rep["feeder"] = last_json(feed_out, "cluster_tcp feeder")
        return rep
    except (queue.Empty, subprocess.TimeoutExpired):
        raise BenchError("cluster_tcp rep timed out")
    finally:
        stop(feeder)
        stop(sut)


def run_rep(binary, workload, seed, extra=()):
    extra = list(extra)
    if workload == "cluster_tcp":
        return rep_cluster(binary, seed, extra)
    return run_json([binary, "rep", "--workload", workload, "--seed", str(seed)] + extra,
                    workload + " rep")


def rep_seed(seed, i):
    return seed * 1000 + i


def measure(binary, workload, seed, seconds):
    """One rep per input (rt/cluster: one input per RT_REP_SECONDS). For
    sim_paper, more rounds over its first inputs follow, so the reps of
    one input lie far apart in time: every rep after the first must match
    the first bit for bit, and the CPU floor (sim_cpu_floor_s) takes each
    chunk of work from a rep that ran it while the host was quiet."""
    rounds = [max(1, int(round(seconds / RT_REP_SECONDS)))]
    if workload == "sim_paper":
        rounds = [max(2, int(round(seconds * SIM_INPUTS_PER_SECOND)))]
        rounds += [max(2, int(round(seconds * SIM_FLOOR_INPUTS_PER_SECOND)))] * (SIM_ROUNDS - 1)
    reps = []
    for inputs in rounds:
        for i in range(inputs):
            rep = run_rep(binary, workload, rep_seed(seed, i))
            rep["input"] = i
            reps.append(rep)
    return reps


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def unplanned(rep):
    """Tuples lost to failures, not to shedding: ingress-ring overflow, and
    tuples inside rejected ingress frames (estimated at the mean frame
    size)."""
    lost = rep["ring_dropped"]
    if rep.get("ingress_rejected"):
        frames = max(1, rep["ingress_frames"])
        lost += rep["ingress_rejected"] * rep["offered"] / frames
    return lost


def failures(rep):
    """Failed operations of one rep, counted against attempted tuples."""
    n = unplanned(rep)
    if rep["workload"] == "cluster_tcp":
        n += rep["corrupt_streams"] + rep["control_rejected"]
        n += 2 - rep["nodes_connected"] + 2 - rep["feeder"]["connected"]
    return int(round(n))


def check_rep(rep, checks):
    w = rep["workload"]
    tag = "%s seed %d" % (w, rep["seed"])

    def check(name, ok, detail=""):
        checks.append({"check": name, "rep": tag, "ok": bool(ok), "detail": detail})

    numbers = [rep[k] for k in ("setup_s", "cpu_s", "backlog", "alpha", "peak_rss_mb")]
    check("finite figures", all(v is not None for v in numbers + rep["y_measured"]))
    shed = rep["entry_shed"] + rep["ring_dropped"] + rep["queue_shed"]
    residue = rep["offered"] - shed - rep["departed"]
    check("conservation: offered = shed + departed + in-flight",
          0 <= residue <= rep["residue_cap"],
          "offered %d, shed %d, departed %d, in flight %d (cap %d)"
          % (rep["offered"], shed, rep["departed"], residue, rep["residue_cap"]))
    check("offered and departed", rep["offered"] > 0 and rep["departed"] > 0)
    check("control periods recorded", rep["periods"] >= MIN_PERIODS,
          "%d periods" % rep["periods"])
    if w == "rt_inproc":
        check("rt run not interrupted", not rep["interrupted"])
    if w == "cluster_tcp":
        feed = rep["feeder"]
        check("every node and feeder connected",
              rep["nodes_connected"] == 2 and rep["nodes_seen"] == 2 and feed["connected"] == 2)
        check("node offered <= feeder sent",
              all(o <= s for o, s in zip(rep["node_offered"], feed["sent"])),
              "offered %s, sent %s" % (rep["node_offered"], feed["sent"]))


def check_sim_repeats(reps, checks):
    first = {}
    for rep in reps:
        if rep["input"] in first:
            ok = rep["digest"] == first[rep["input"]]["digest"]
            checks.append({"check": "sim repeat identical (QosSummary + recorder rows)",
                           "rep": "sim_paper seed %d" % rep["seed"], "ok": ok,
                           "detail": "%s vs %s" % (rep["digest"], first[rep["input"]]["digest"])})
        else:
            first[rep["input"]] = rep


def lower_quartile(values):
    values = sorted(values)
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[0]


def sim_cpu_floor_s(reps):
    """CPU seconds of one deterministic sim input, chunk by chunk the least
    any of its reps took. A rep stamps the CPU clock at the same
    departures every time, so chunk i is the same work in each rep (reps
    whose digests differ fail the repeat check). On a shared host a core
    runs either at full speed or about 1.8x slower, for seconds to minutes
    at a time, as its neighbours come and go: they can slow a chunk down
    but never speed it up, so the least of reps far apart in time tracks
    the program's own cost."""
    return sum(min(c) for c in zip(*(r["chunk_cpu_s"] for r in reps)))


def cpu_ns_per_tuple(reps):
    """Median over reps; for sim_paper, the median of sim_cpu_floor_s over
    the inputs replayed in every round."""
    if "chunk_cpu_s" not in reps[0]:
        return statistics.median(r["cpu_s"] * 1e9 / r["offered"] for r in reps)
    by_input = {}
    for r in reps:
        by_input.setdefault(r["input"], []).append(r)
    return statistics.median(sim_cpu_floor_s(g) * 1e9 / g[0]["offered"]
                             for g in by_input.values() if len(g) == SIM_ROUNDS)


def end_to_end(reps):
    """Run-level metrics: CPU (see cpu_ns_per_tuple) and RSS are medians;
    QoS pools the first rep of every input. Set-up time is the lower quartile over reps:
    on a shared host a whole rep process runs fast or about 1.7x slower
    (its vCPU's neighbours), and a median over reps flips between the two
    as their mix drifts, while the fast reps stay put."""
    pooled = {}
    for rep in reps:
        pooled.setdefault(rep["input"], rep)
    pooled = list(pooled.values())
    offered = sum(r["offered"] for r in pooled)
    shed = sum(r["entry_shed"] + r["ring_dropped"] + r["queue_shed"] for r in pooled)
    lost = sum(unplanned(r) for r in pooled)
    y = sorted(v for r in pooled for v in r["y_measured"] if v is not None)
    values = {
        "setup_s": lower_quartile(r["setup_s"] for r in reps),
        "cpu_ns_per_tuple": cpu_ns_per_tuple(reps),
        "loss_ratio": shed / offered,
        "intact_ratio": 1.0 - lost / offered,
        "period_delay_p50_s": quantile(y, 0.50),
        "period_delay_p95_s": quantile(y, 0.95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return values, len(y)


def program_spans(telemetry_dir):
    """Spans the program itself emitted (pump, control_tick, deliver,
    op:<name>, cluster.*): trace file -> ({name: [count, total ms]},
    events)."""
    tables = {}
    for dirpath, _, files in os.walk(telemetry_dir):
        if "trace.json" not in files:
            continue
        with open(os.path.join(dirpath, "trace.json")) as f:
            events = json.load(f)
        if isinstance(events, dict):
            events = events.get("traceEvents", [])
        table = {}
        for ev in events:
            if ev.get("ph") == "X":
                row = table.setdefault(ev["name"], [0, 0.0])
                row[0] += 1
                row[1] += ev.get("dur", 0) / 1e3
        tables[os.path.relpath(dirpath, telemetry_dir)] = (table, events)
    return tables


def report_to_apply_ms(tables):
    """Per node and controller period id p: from the start of the node's
    first cluster.report tagged p-1 (the report the controller folds into
    tick p) to the end of the node's cluster.apply of p."""
    gaps = []
    for name, (_, events) in tables.items():
        if not name.startswith("node"):
            continue
        reports, applies = {}, {}
        for ev in events:
            if ev.get("ph") != "X":
                continue
            period = (ev.get("args") or {}).get("period")
            if period is None:
                continue
            if ev["name"] == "cluster.report":
                reports.setdefault(period, ev["ts"])
            elif ev["name"] == "cluster.apply":
                applies[period] = ev["ts"] + ev.get("dur", 0)
        for p, end in applies.items():
            if p - 1 in reports and end >= reports[p - 1]:
                gaps.append((end - reports[p - 1]) / 1e3)
    return statistics.median(gaps) if gaps else None


def traced(binary, workload, seed, seconds, out_dir):
    """The per-layer run: untraced and traced reps of input 0 (alternating,
    as many pairs as the time allows for sim), then the layer probes."""
    s0 = rep_seed(seed, 0)
    pairs = 1
    if workload == "sim_paper":
        pairs = max(1, int(seconds // 8))
    plain, with_trace = [], []
    tele = os.path.join(out_dir, "telemetry")
    for i in range(pairs):
        plain.append(run_rep(binary, workload, s0))
        shutil.rmtree(tele, ignore_errors=True)
        with_trace.append(run_rep(binary, workload, s0,
                                  ["--telemetry-dir", tele,
                                   "--spans", os.path.join(out_dir, "bench_trace_rep.json")]))
    rep = with_trace[-1]
    cpu = lambda reps: statistics.median(r["cpu_s"] * 1e9 / r["offered"] for r in reps)
    overhead = 100.0 * (cpu(with_trace) / cpu(plain) - 1.0)

    frame_tuples = None
    if workload == "cluster_tcp" and rep["ingress_frames"] > 0:
        frame_tuples = rep["offered"] / rep["ingress_frames"]
    cmd = [binary, "layers", "--workload", workload, "--seed", str(s0),
           "--backlog", repr(rep["backlog"]), "--alpha", repr(rep["alpha"]),
           "--spans", os.path.join(out_dir, "bench_trace_layers.json")]
    if frame_tuples:
        cmd += ["--frame-tuples", repr(frame_tuples)]
    layers = run_json(cmd, workload + " layers")

    tables = program_spans(tele)
    not_here = {}
    admitted = rep["offered"] - rep["entry_shed"] - rep["ring_dropped"]
    layers["engine.departed_per_admitted"] = rep["departed"] / admitted
    layers["telemetry.trace_overhead_pct"] = overhead
    if workload == "sim_paper":
        not_here["rt.pump_interval_p99_ms"] = "the simulator has no worker pump"
        layers["rt.actuation_lateness_p99_ms"] = 0.0  # ticks fire on the event heap
    else:
        layers["rt.pump_interval_p99_ms"] = rep["pump_interval_p99_ms"]
    if workload == "rt_inproc":
        layers["rt.actuation_lateness_p99_ms"] = rep["actuation_lateness_p99_ms"]
    elif workload == "cluster_tcp":
        not_here["rt.actuation_lateness_p99_ms"] = (
            "the cluster controller records no actuation lateness")
    if workload == "cluster_tcp":
        feed = rep["feeder"]
        sent = sum(feed["sent"])
        layers["net.tuples_per_frame"] = frame_tuples or 0.0
        gap = report_to_apply_ms(tables)
        if gap is None:
            not_here["cluster.report_to_apply_ms"] = (
                "no paired cluster.report/cluster.apply spans")
        else:
            layers["cluster.report_to_apply_ms"] = gap
        layers["feeder.cpu_ns_per_tuple"] = feed["cpu_s"] * 1e9 / max(1, sent)
        layers["feeder.overrun_ms"] = 1e3 * max(feed["overrun_s"])
        layers["feeder.unreceived_tuples"] = sent - rep["offered"]
    else:
        for k in ("net.tuples_per_frame", "cluster.report_to_apply_ms",
                  "feeder.cpu_ns_per_tuple", "feeder.overrun_ms",
                  "feeder.unreceived_tuples"):
            not_here[k] = "only cluster_tcp crosses the network"
    for k in not_here:
        layers[k] = 0.0
    with open(os.path.join(out_dir, "program_spans.tsv"), "w") as f:
        f.write("file\tspan\tcount\ttotal_ms\n")
        for name, (table, _) in sorted(tables.items()):
            for span, (count, ms) in sorted(table.items()):
                f.write("%s\t%s\t%d\t%.3f\n" % (name, span, count, ms))
    return layers, not_here, plain + with_trace


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def provenance(binary, seed):
    info = run_json([binary, "info"], "info")
    info["seed"] = seed
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seed > 2**40:
        raise BenchError("--seed must be in [0, 2^40]")

    spec = load_spec()
    binary = build()
    prov = provenance(binary, args.seed)
    out_dir = os.path.join(build_dir(), "perfbench-out",
                           "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    checks = []
    if args.trace:
        layer_values, not_here, reps = traced(binary, args.workload, args.seed,
                                              args.seconds, out_dir)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = [m for m in units if m not in layer_values]
        if missing:
            raise BenchError("layer probes missed " + ", ".join(missing))
        metrics = {k: {"value": layer_values[k], "unit": units[k]} for k in units}
    else:
        reps = measure(binary, args.workload, args.seed, args.seconds)
        values, samples = end_to_end(reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        if args.workload == "sim_paper":
            check_sim_repeats(reps, checks)
    for rep in reps:
        check_rep(rep, checks)

    attempted = sum(r["offered"] for r in reps)
    failed = sum(failures(r) for r in reps)
    correct = all(c["ok"] for c in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    print("perfbench %s seed %d trace %d: git %s, %s build, simd %s, nproc %d"
          % (args.workload, args.seed, args.trace, prov["git_describe"], prov["build_type"],
             prov["simd"], prov["nproc"]))
    seeds = sorted(set(r["seed"] for r in reps))
    print("reps: %d of %d inputs (seeds %d..%d)" % (len(reps), len(seeds), seeds[0], seeds[-1]))
    if not args.trace:
        print("period delay samples: %d" % samples)
        print("unplanned_loss_ratio: %.6g" % (1.0 - values["intact_ratio"]))
    if args.workload == "cluster_tcp":
        for r in reps:
            feed = r["feeder"]
            sent = sum(feed["sent"])
            print("feeder (generator process): cpu %.3f s (%.0f ns/tuple sent), "
                  "%.1f tuples/frame at the nodes, overrun %.1f ms, sent-offered %d"
                  % (feed["cpu_s"], feed["cpu_s"] * 1e9 / max(1, sent),
                     r["offered"] / max(1, r["ingress_frames"]),
                     1e3 * max(feed["overrun_s"]), sent - r["offered"]))
    for name, m in metrics.items():
        note = ""
        if args.trace and name in not_here:
            note = "  (n/a on %s: %s)" % (args.workload, not_here[name])
        print("%-36s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    for c in checks:
        if not c["ok"]:
            print("CHECK FAILED: %s [%s] %s" % (c["check"], c["rep"], c["detail"]))
    print("checks: %d passed, %d failed; failures %d of %d attempted tuples"
          % (sum(c["ok"] for c in checks), sum(not c["ok"] for c in checks), failed, attempted))
    print("details: %s" % os.path.relpath(out_dir, ROOT))
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"provenance": prov, "args": vars(args), "result": result,
                   "checks": checks, "reps": reps}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(2)
