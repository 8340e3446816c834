#!/usr/bin/env python3
"""Repository benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload suite-paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It builds perfbench/bench.exe
with dune (build tree in .bench_build/), measures set-up several times,
runs the workload in a fresh measurement process, checks every output
and the determinism gate, and prints a table followed, on the last line
of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The full result, with the host block, goes to
.perfbench/results/.  See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("suite-paper", "large-mesh16", "service-closed")
SETUP_REPEATS = 5
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # everything after the build
STATE_DIR = ".perfbench"
BUILD_DIR = ".bench_build"
SOURCE_DIRS = ("lib", "bin", "perfbench")
# Median time of one host-speed probe (calib.ml) on the reference host,
# a 2-core VM: wall-clock metrics are reported at that host's speed.
REFERENCE_PROBE_S = 0.16

# span name of the measurement process -> metric stem
LAYER_SPANS = {
    "minic": "minic",
    "opt": "opt",
    "interp": "interp",
    "analysis": "analysis",
    "graphpart": "graphpart",
    "rhop": "rhop",
}
PART_SPANS = {
    "partition.merge": "partition.merge_ms",
    "partition.locked": "partition.locked_ms",
    "partition.baseline": "partition.baseline_ms",
}
SCHED_SPANS = {
    "sched.move_insert": "sched.move_insert_ms",
    "sched.validate": "sched.validate_ms",
    "sched.schedule": "sched.schedule_ms",
}
VERIFY_SPANS = {"verify.interp": "verify.interp_ms", "verify.sim": "verify.sim_ms"}
COUNTS = (
    "opt.ir_ops",
    "analysis.dfg_edges",
    "partition.merge_groups",
    "graphpart.nodes",
    "graphpart.edges",
    "graphpart.edgecut",
    "sched.static_moves",
    "verify.sim_cycles",
)
SERVICE_TIMES = (
    ("service.queue_ms_p50", "queue_us", 50),
    ("service.queue_ms_p99", "queue_us", 99),
    ("service.exec_ms_p50", "exec_us", 50),
    ("service.exec_ms_p99", "exec_us", 99),
    ("service.deliver_ms_p50", "deliver_us", 50),
    ("service.wire_ms_p50", "wire_us", 50),
)
SERVICE_COUNTS = (
    ("service.coalesced", "coalesced"),
    ("service.rejected", "rejected"),
    ("exec.crashes", "crashes"),
    ("exec.respawns", "respawns"),
)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over the sources the measurement depends on."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(x for x in dirnames if not x.startswith((".", "_")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".py")) or f == "dune":
                    paths.append(os.path.relpath(os.path.join(dirpath, f), root))
    for p in paths:
        h.update(p.encode() + b"\0")
        with open(os.path.join(root, p), "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def build_env(root):
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # keep every file the build and the run write inside the checkout
    env.update(TMPDIR=tmp, DUNE_CACHE="disabled", OCAMLRUNPARAM="")
    return env


def build(root, env):
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    cmd = [dune, "build", "--root", root, "--build-dir", os.path.join(root, BUILD_DIR),
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed", 3)
    return os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")


def kill_group(pgid):
    """Stop every process left in the measurement process's group and
    wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(exe, args, workdir, env, deadline):
    """Run the measurement process once, in a fresh working directory;
    return its JSON document."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "out.json")
    t0 = time.time()
    proc = subprocess.Popen([exe] + args + ["--t0", repr(t0), "--out", out], cwd=workdir,
                            env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        die("measurement process ran out of time", 4)
    finally:
        kill_group(proc.pid)
    if code != 0:
        die("measurement process exited with code %d" % code, 4)
    with open(out) as f:
        return json.load(f)


def ms(xs):
    return [x * 1000.0 for x in xs]


def end_to_end(d, setup_s):
    """The end-to-end metrics of one run, scaled to the reference host's
    speed, with the unscaled wall-clock values and notes for the table."""
    factor = stats.speed_factor(d["probes_s"], REFERENCE_PROBE_S)
    raw = ms(d["latencies_s"])
    lat = [x * factor for x in raw]
    # time spent on operations, without probes: closed-loop chunks of
    # requests on the service, compiles elsewhere
    raw_busy = d["busy_s"] if "busy_s" in d else sum(raw) / 1000.0
    busy = raw_busy * factor
    n = len(lat)
    ok = d["attempted"] - d["failed"]
    m = {
        "setup_s": setup_s,
        "compiles_per_s": ok / busy,
        "latency_p50_ms": stats.percentile(lat, 50),
        "latency_p90_ms": stats.percentile(lat, 90),
        "latency_p99_ms": stats.percentile(lat, 99),
        "gdp_perf_rel_unified": stats.geomean(d["perf_ratios"]),
        "sim_cycles_total": float(d["sim_cycles_total"]),
        "dynamic_moves_total": float(d["dynamic_moves_total"]),
        "peak_heap_mb": d["peak_heap_bytes"] / 2.0 ** 20,
    }
    unscaled = {
        "compiles_per_s": ok / raw_busy,
        "latency_p50_ms": stats.percentile(raw, 50),
        "latency_p90_ms": stats.percentile(raw, 90),
        "latency_p99_ms": stats.percentile(raw, 99),
    }
    top = stats.highest_reportable(n)
    notes = {"latency_p50_ms": "n=%d, highest percentile with %d samples beyond it: %s"
             % (n, stats.TAIL_SAMPLES, "p%g" % top if top else "none")}
    for q in (50, 90, 99):
        if not stats.reportable(n, q):
            notes["latency_p%d_ms" % q] = (
                "n=%d: fewer than %d samples beyond p%d, not a tail estimate"
                % (n, stats.TAIL_SAMPLES, q))
    return m, unscaled, notes


def per_layer(d, passes, counts):
    """The per-layer metrics of one traced run, per pass; [counts] are
    the exact work counts of one pass."""
    layers = d.get("layers", {})

    def span(name):
        v = layers.get(name, {"s": 0.0, "words": 0.0})
        return v["s"] * 1000.0 / passes, v["words"] / 1e6 / passes

    m = {}
    for name, stem in LAYER_SPANS.items():
        m[stem + ".ms"], m[stem + ".mw"] = span(name)
    for group, spans in (("partition", PART_SPANS), ("sched", SCHED_SPANS),
                         ("verify", VERIFY_SPANS)):
        words = 0.0
        for name, metric in spans.items():
            m[metric], w = span(name)
            words += w
        m[group + ".mw"] = words
    m["sched.schedule_mw"] = span("sched.schedule")[1]
    for c in COUNTS:
        m[c] = counts.get(c, 0.0)
    root_s, gap_s = d["root_s"], d["uncovered_s"]
    m["trace.compile_ms"] = root_s * 1000.0 / passes
    m["trace.uncovered_ms"] = gap_s * 1000.0 / passes
    m["trace.uncovered_ratio"] = gap_s / root_s if root_s > 0 else 0.0
    return m


def compile_metrics(d, traced):
    failed = len(d["errors"]) + len(d["leaks"]) + len(d.get("unfaithful", []))
    d["failed"] = failed
    problems = []
    if d["leaks"]:
        problems.append("results changed between passes (state leaked between "
                        "compiles): " + ", ".join(d["leaks"][:5]))
    if d.get("unfaithful"):
        problems.append("traced decomposition differs from the untraced pipeline: "
                        + "; ".join(d["unfaithful"][:5]))
    if not d["complete"]:
        problems.append("not every (program, method) compiled")
    exact = {
        "digest": d["digest"],
        "sim_cycles_total": d["sim_cycles_total"],
        "dynamic_moves_total": d["dynamic_moves_total"],
        "perf_ratios": d["perf_ratios"],
    }
    if not traced:
        return exact, problems, None
    passes = d["passes"]
    by_pass = d["layers_by_pass"]
    words = [{k: v["words"] for k, v in p.items()} for p in by_pass]
    if any(w != words[0] for w in words):
        problems.append("allocated words differ between passes")
    counts = d["counts_by_pass"]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between passes")
    layer = per_layer(d, passes, counts[0])
    layer["trace.overhead_ratio"] = (sum(d["pass_s"]) / passes) / d["untraced_pass_s"]
    exact.update(words=words[0], counts=counts[0])
    return exact, problems, layer


def hit_ratio(scrape):
    """Requests answered without a new compile (memory or store hits and
    coalesced requests) over cache lookups, one lookup per request."""
    lookups = scrape["hits"] + scrape["warm_hits"] + scrape["misses"]
    return (scrape["hits"] + scrape["warm_hits"] + scrape["coalesced"]) / lookups


def service_metrics(d, traced):
    problems = []
    if d["crosscheck_mismatches"]:
        problems.append("%d served artifacts differ from the inline compile"
                        % d["crosscheck_mismatches"])
    if d["served_mismatches"]:
        problems.append("%d duplicate requests got different artifacts"
                        % d["served_mismatches"])
    exact = {
        "round_digest": d["round_digests"][0],
        "sim_cycles_total": d["sim_cycles_total"],
        "dynamic_moves_total": d["dynamic_moves_total"],
        "perf_ratios": d["perf_ratios"],
        "cache_hit_ratio": hit_ratio(d["scrape"]),
        "cached_per_round": d["cached"] / d["rounds"],
    }
    if not traced:
        return exact, problems, None
    if d.get("unfaithful"):
        problems.append("traced decomposition differs from the served artifact: "
                        + "; ".join(d["unfaithful"][:5]))
    layer = per_layer(d, 1, d["counts"])
    layer["trace.overhead_ratio"] = d["traced_s"] / d["untraced_s"]
    exact.update(words={k: v["words"] for k, v in d["layers"].items()}, counts=d["counts"])
    return exact, problems, layer


def service_layer(d):
    """service.* and exec.* per-layer metrics (zero where not exercised)."""
    m = {}
    for name, key, q in SERVICE_TIMES:
        xs = d.get(key, [])
        m[name] = stats.percentile(xs, q) / 1000.0 if xs else 0.0
    s = d.get("scrape")
    m["service.cache_hit_ratio"] = hit_ratio(s) if s else 0.0
    m["service.shed"] = float(d.get("shed", 0))
    for name, key in SERVICE_COUNTS:
        m[name] = float(s[key]) if s else 0.0
    return m


def gate(root, workload, seed, traced, exact):
    """Determinism gate: every run of the same sources must reproduce
    the exact results of the first one, whatever its seed (the seed only
    reorders the stream) and whether it is traced."""
    path = os.path.join(root, STATE_DIR, "determinism.json")
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    slot = state.setdefault(source_digest(root), {}).setdefault(workload, {})
    problems = []
    for key, value in exact.items():
        first = slot.setdefault(key, {"value": value, "seed": seed, "trace": int(traced)})
        if first["value"] != value:
            problems.append("%s differs from the run with seed %d, trace %d"
                            % (key, first["seed"], first["trace"]))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, path)
    return problems


def host_block(root, d):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "ocaml_version": d.get("ocaml_version"),
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "machine_preset": d.get("preset"),
        "machine": d.get("machine"),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            die("run me from the root of a source checkout (no %s here)" % need)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    env = build_env(root)
    exe = build(root, env)
    deadline = time.time() + RUN_BUDGET_S
    work = os.path.join(root, STATE_DIR, "work", "%s-%d" % (a.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(root, STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stamp = "%s-seed%d-trace%d-%d" % (a.workload, a.seed, a.trace, int(time.time() * 1000))
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    try:
        setups = [measure(exe, common + ["--setup-only"], os.path.join(work, "setup%d" % i),
                          env, deadline)["setup_s"]
                  for i in range(SETUP_REPEATS)]
        run_args = common + ["--seconds", repr(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            run_args += ["--spans", os.path.join(results, stamp + "-spans.jsonl")]
        d = measure(exe, run_args, os.path.join(work, "run"), env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(d["setup_s"])
    setup_s = sorted(setups)[len(setups) // 2]
    traced = bool(a.trace)
    if a.workload == "service-closed":
        exact, problems, layer = service_metrics(d, traced)
    else:
        exact, problems, layer = compile_metrics(d, traced)
    problems += gate(root, a.workload, a.seed, traced, exact)
    failed_ratio = stats.failed_ratio(d["attempted"], failed=d["failed"],
                                      gave_up=d.get("gave_up", 0))
    problems += ["failed: " + e for e in d["errors"][:10]]
    e2e, unscaled, notes = end_to_end(d, setup_s)
    if traced:
        metrics = dict(layer)
        metrics.update(service_layer(d))
    else:
        metrics = e2e
    spec = {m["name"]: m for m in declared["per_layer" if traced else "end_to_end"]}
    if set(spec) != set(metrics):
        die("metrics do not match BENCHMARK.json: missing %s, undeclared %s"
            % (sorted(set(spec) - set(metrics)), sorted(set(metrics) - set(spec))), 5)
    correct = not problems and d["failed"] == 0 and d.get("gave_up", 0) == 0
    result = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "host": host_block(root, d),
        "correct": correct,
        "problems": problems,
        "attempted": d["attempted"],
        "failed": d["failed"] + d.get("gave_up", 0),
        "failed_ratio": failed_ratio,
        "setup_runs_s": setups,
        "timed_s": d["timed_s"],
        "end_to_end": e2e,
        "unscaled": unscaled,
        "probes_s": d["probes_s"],
        "notes": notes,
        "per_layer": layer,
        "exact": exact,
        "raw": d,
    }
    with open(os.path.join(results, stamp + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    print("perfbench %s seed=%d trace=%d  host: nproc=%s ocaml=%s rev=%s preset=%s" % (
        a.workload, a.seed, a.trace, result["host"]["nproc"], d.get("ocaml_version"),
        (result["host"]["git_revision"] or "n/a")[:12], d.get("preset")))
    e2e_spec = {m["name"]: m for m in declared["end_to_end"]}
    e2e_spec["failed_ratio"] = {"unit": "fraction", "better": "lower"}
    print("  %-26s %14s %14s  %-8s %-6s" % ("end-to-end metric" + (" (traced)" if traced else ""),
                                             "value", "unscaled", "unit", "better"))
    for name, value in list(e2e.items()) + [("failed_ratio", failed_ratio)]:
        print("  %-26s %14.6g %14s  %-8s %-6s %s" % (
            name, value, "%.6g" % unscaled[name] if name in unscaled else "",
            e2e_spec[name]["unit"], e2e_spec[name]["better"], notes.get(name, "")))
    if traced:
        print("  per-layer metric (per pass)")
        for name in sorted(metrics):
            print("  %-26s %16.6g  %s" % (name, metrics[name], spec[name]["unit"]))
    print("  exact results (determinism gate): " + ", ".join(
        "%s=%s" % (k, v) for k, v in sorted(exact.items())
        if k not in ("perf_ratios", "words", "counts")))
    for p in problems:
        print("  PROBLEM: " + p)
    out = {
        "correct": correct,
        "attempted": d["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
