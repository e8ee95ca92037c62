#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload core-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. It builds the library and the workload
workload program (perfbench/src) in Release under .bench_build/, plus a -pg build
for --trace 1, runs the workload in its own process, checks every
operation's outputs (checks.py) and prints the run metadata on one line
and, as the last line, one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("core-mixed", "userscale-web", "paper-grid")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# name -> unit; every workload reports every metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s_per_sim_s": "s/s",
    "time_to_result_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "sim.events": "events",
    "sim.events_per_s": "events/s",
    "sim.place_calls": "count",
    "sim.push_calls": "count",
    "sim.place_per_push": "ratio",
    "sim.cascades": "count",
    "sim.timer_wasted_wakeups": "count",
    "sim.allocs_per_event": "allocs/event",
    "sim.self_s": "s",
    "net.self_s": "s",
    "net.packets": "count",
    "net.ns_per_packet": "ns/packet",
    "tcp.self_s": "s",
    "tcp.segments": "count",
    "tcp.ns_per_segment": "ns/segment",
    "cca.self_s": "s",
    "cca.calls": "count",
    "cca.ns_per_call": "ns/call",
    "harness.self_s": "s",
    "workload.self_s": "s",
    "workload.ns_per_flow": "ns/flow",
    "workload.flows_completed_per_s": "flows/s",
    "stats.self_s": "s",
    "sweep.hash_s": "s",
    "sweep.cache_load_s": "s",
    "sweep.cache_store_s": "s",
    "sweep.journal_s": "s",
    "sweep.worker_idle_s": "s",
    "sweep.grid_warm_s": "s",
    "trace.overhead_s_per_sim_s": "s/s",
}
# Functions whose exact gprof call counts define the per-layer rates.
PLACE_FN = "ccas::EventQueue::place("
PUSH_FN = "ccas::EventQueue::push("
BOTTLENECK_FN = "ccas::DropTailQueue::accept("
SEGMENT_FN = "ccas::TcpSender::transmit_segment("


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def child_env(root):
    # The auditor, the REPRO_* scale overrides and the sweep's environment
    # knobs would change what is measured; children run without them.
    # Compilers keep their temporary files inside the tree too.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CCAS_", "REPRO_"))}
    env["TMPDIR"] = tmp_dir(root)
    return env


def tmp_dir(root):
    path = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def stop(proc):
    """Kills the child's whole process group (a build's compilers too)."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run_logged(root, cmd, log_path, timeout):
    with open(log_path, "a") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(root), start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        finally:
            stop(proc)


def build(root, name, extra_flags):
    """Configures (once) and builds one tree; returns the workload program's path."""
    tree = os.path.join(root, ".bench_build", name)
    log_path = os.path.join(root, ".bench_build", f"{name}.log")
    os.makedirs(tree, exist_ok=True)
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", tree,
               "-DCMAKE_BUILD_TYPE=Release"] + extra_flags
        if run_logged(root, cmd, log_path, BUILD_TIMEOUT_S) != 0:
            fail(f"configuring {name} failed; see {log_path}")
    cmd = ["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)]
    if run_logged(root, cmd, log_path, BUILD_TIMEOUT_S) != 0:
        fail(f"building {name} failed; see {log_path}")
    return os.path.join(tree, "perfbench_workload")


def run_workload(root, binary, args, mode, cwd=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--size", args.size,
           "--tmp", tmp_dir(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=cwd, env=child_env(root),
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        fail(f"{os.path.basename(binary)} --mode {mode} exited with {proc.returncode}")
    return json.loads(out)


def source_digest(root):
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(root, args, doc):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "compiler": doc["compiler"],
        "build_type": "Release",
        "git_rev": git_rev(root),
        "source_digest": source_digest(root),
        "CCAS_CHECK_HOOKS": "ON" if doc["check_hooks_compiled"] else "OFF",
        "auditor": "off",
    }


def all_ops(doc):
    return [op for r in doc["rounds"] for op in r["ops"]]


def check_ops(ops, label):
    failed = 0
    for op in ops:
        errors = checks.check_op(op)
        if errors:
            failed += 1
            for e in errors:
                log(f"{label} {op['name']}: {e}")
    return failed


def run_checks(doc):
    """Run-level checks on properties of the workload definition."""
    errors = []
    for op in all_ops(doc):
        if "classes" in op:
            load = checks.offered_load(op)
            if not 0.5 <= load <= 0.75:
                errors.append(f"{op['name']}: offered load {load:.3f} outside [0.5, 0.75]")
    return errors


def loop_per_sim(ops):
    return sum(o["loop_s"] for o in ops) / sum(o["sim_s"] for o in ops)


def end_to_end(args, doc):
    rounds = doc["rounds"]
    ops = all_ops(doc)
    grid = args.workload == "paper-grid"
    values = {
        # Wall time outside the event loop per experiment: set-up and result
        # assembly (for grid cells also the cell's cache store and journal).
        "setup_s": statistics.median(o["wall_s"] - o["loop_s"] for o in ops),
        "wall_s_per_sim_s": statistics.median(loop_per_sim(r["ops"]) for r in rounds),
        "time_to_result_s": statistics.median(
            r["cold_s"] if grid else r["ops"][0]["wall_s"] for r in rounds),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def per_layer(args, traced, profile, prof_self, prof_calls):
    plain_ops = traced["rounds"][0]["ops"]
    timed_round = traced["rounds"][1]
    cb = timed_round["cca_callbacks"]
    cca_calls = sum(c for c, _ in cb.values())
    cca_ns = sum(ns for _, ns in cb.values())
    events = sum(o["events"] for o in plain_ops)
    loop = sum(o["loop_s"] for o in plain_ops)
    completed = sum(c["completed"] for o in plain_ops for c in o.get("workload_classes", []))
    arrivals = sum(c["arrivals"] for o in profile_ops(profile)
                   for c in o.get("workload_classes", []))
    spans = traced["spans"]
    sweep = traced["sweep_calls"]
    if args.workload == "paper-grid":
        idle = (timed_round["jobs"] * timed_round["cold_s"]
                - sum(o["wall_s"] for o in timed_round["ops"]))
    else:  # no cold executor pass: the warm pass is the only one
        idle = sweep["warm_jobs"] * sweep["warm_s"] - sweep["warm_cell_wall_s"]
    place = layers.calls_of(prof_calls, PLACE_FN)
    push = layers.calls_of(prof_calls, PUSH_FN)
    packets = layers.calls_of(prof_calls, BOTTLENECK_FN)
    segments = layers.calls_of(prof_calls, SEGMENT_FN)

    def per(seconds, count):
        return seconds * 1e9 / count if count else 0.0

    values = {
        "sim.events": events,
        "sim.events_per_s": events / loop,
        "sim.place_calls": place,
        "sim.push_calls": push,
        "sim.place_per_push": place / push if push else 0.0,
        "sim.cascades": sum(o["cascades"] for o in plain_ops),
        "sim.timer_wasted_wakeups": sum(o["wasted_wakeups"] for o in plain_ops),
        "sim.allocs_per_event": sum(o["heap_allocs"] for o in plain_ops) / events,
        "sim.self_s": prof_self.get("sim", 0.0),
        "net.self_s": prof_self.get("net", 0.0),
        "net.packets": packets,
        "net.ns_per_packet": per(prof_self.get("net", 0.0), packets),
        "tcp.self_s": prof_self.get("tcp", 0.0),
        "tcp.segments": segments,
        "tcp.ns_per_segment": per(prof_self.get("tcp", 0.0), segments),
        "cca.self_s": cca_ns / 1e9,
        "cca.calls": cca_calls,
        "cca.ns_per_call": cca_ns / cca_calls if cca_calls else 0.0,
        "harness.self_s": prof_self.get("harness", 0.0),
        "workload.self_s": prof_self.get("workload", 0.0),
        "workload.ns_per_flow": per(prof_self.get("workload", 0.0), arrivals),
        "workload.flows_completed_per_s": completed / loop,
        "stats.self_s": prof_self.get("stats", 0.0),
        "sweep.hash_s": span_seconds(spans, "sweep.spec_cache_key"),
        "sweep.cache_load_s": span_seconds(spans, "sweep.ResultCache::load"),
        "sweep.cache_store_s": span_seconds(spans, "sweep.ResultCache::store"),
        "sweep.journal_s": span_seconds(spans, "sweep.SweepManifest::record_ok"),
        "sweep.worker_idle_s": idle,
        "sweep.grid_warm_s": sweep["warm_s"],
        "trace.overhead_s_per_sim_s":
            loop_per_sim(timed_round["ops"]) - loop_per_sim(plain_ops),
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def profile_ops(profile):
    return profile["rounds"][0]["ops"]


def traced_run(root, args, release, gprof_bin):
    traced = run_workload(root, release, args, "traced")
    work = tempfile.mkdtemp(prefix="gprof-", dir=tmp_dir(root))
    try:
        profile = run_workload(root, gprof_bin, args, "profile", cwd=work)
        prof_self, prof_calls, rows = layers.profile_layers(
            gprof_bin, os.path.join(work, "gmon.out"), root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain, timed = traced["rounds"][0]["ops"], traced["rounds"][1]["ops"]
    prof = profile_ops(profile)
    failed = sum(check_ops(ops, label) for ops, label in
                 ((plain, "plain"), (timed, "traced"), (prof, "gprof")))
    errors = run_checks(traced)
    for p, t, g in zip(plain, timed, prof):
        errors += checks.same_simulation(p, t)
        if p["events"] != g["events"]:
            errors.append(f"{p['name']}: gprof build dispatched {g['events']} events, "
                          f"Release {p['events']}")
    if not (len(plain) == len(timed) == len(prof)):
        errors.append("plain, traced and gprof rounds ran different cells")
    if not traced["sweep_calls"]["loads_identical"]:
        errors.append("a stored result did not load back byte-identical")
    if not traced["sweep_calls"]["warm_from_cache"]:
        errors.append("the warm pass after the sweep calls simulated a cell")

    metrics = per_layer(args, traced, profile, prof_self, prof_calls)
    trace_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as f:
        json.dump({"spans": traced["spans"],
                   "cca_callbacks": traced["rounds"][1]["cca_callbacks"],
                   "gprof_self_s_by_layer": prof_self,
                   "gprof_flat": rows[:60]}, f, indent=1)
    attempted = len(plain) + len(timed) + len(prof)
    return traced, errors, attempted, failed, metrics


def timed_run(root, args, release):
    doc = run_workload(root, release, args, "timed")
    ops = all_ops(doc)
    failed = check_ops(ops, "timed")
    return doc, run_checks(doc), len(ops), failed, end_to_end(args, doc)


def main():
    # A terminated run still stops its children (the finally blocks above).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: seconds-long inputs for the benchmark's tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of the source tree: {needed} is missing")
    release = build(root, "perfbench-release", [])
    gprof_bin = build(root, "perfbench-gprof",
                      ["-DCMAKE_CXX_FLAGS=-pg -g", "-DCMAKE_EXE_LINKER_FLAGS=-pg"])

    if args.trace:
        doc, errors, attempted, failed, metrics = traced_run(root, args, release, gprof_bin)
    else:
        doc, errors, attempted, failed, metrics = timed_run(root, args, release)
    for e in errors:
        log(e)
    print("# meta " + json.dumps(metadata(root, args, doc)))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
