#!/usr/bin/env python3
"""depflow-bench: end-to-end `depflow-opt` latency and throughput.

Run from the root of a depflow source tree:

    python3 perfbench/run.py --workload mixed-module --seed 1 --trace 0

The benchmark builds `depflow-opt` and its two helpers from source into
`.bench_build/`, makes the workload's inputs from the seed, checks each
distinct input's `-j 1` output against the original with the interpreter,
then runs a closed loop: one `depflow-opt` child at a time, each op timed
from spawn to exit, its stdout byte-compared with the checked reference
outside the timed interval. `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics (see README.md beside this file).
`--seconds` defaults to BENCHMARK.json's run_seconds. The last line of
stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import concurrent.futures
import glob
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
OPT = os.path.join(BUILD, "depflow", "tools", "depflow-opt")
HELPER = os.path.join(BUILD, "depflow-perfbench")
SPAWN = os.path.join(BUILD, "depflow-perfbench-spawn")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")

JOBS = min(4, os.cpu_count() or 1)
SETUP_REPEATS = 5
# Fewest -j N ops in one end-to-end run, so that at least 10 samples lie
# beyond op_ms_p90; the loop runs past --seconds until it has them.
MIN_OPS = 100
OP_TIMEOUT_S = 10.0
REF_TIMEOUT_S = 30.0
STDERR_TAIL = 2048

# Each workload: how its inputs are made and what depflow-opt is asked to
# do with them. README.md says why each one exists.
WORKLOADS = {
    "mixed-module": {
        "kind": "mixed",
        "funcs": 300,
        "pool": 12,
        "args": ["--passes=separate,constprop,pre,range,taint,nulluse"],
    },
    "pre-ladder": {
        "kind": "ladder",
        # One ladder per depth in this range. PRE cost grows about cubically
        # with depth, so the range is capped to keep one op near 30-150 ms,
        # and every seed gets the same depth mix: seeds vary the constants
        # and operators, not the cost.
        "depth": (18, 28),
        "args": ["--passes=separate,constprop,pre"],
    },
    "call-slice": {
        "kind": "call",
        "funcs": 300,
        "pool": 12,
        "args": [],  # --slice f:line is per input.
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("kinstr_per_s", "kinstr/s"),
    ("op_ms_p50_j1", "ms"),
    ("peak_rss_mb", "MiB"),
]

PASSES = ["separate", "constprop", "pre", "range", "taint", "nulluse"]
ANALYSES = ["cfg-edges", "cycle-equiv", "pst", "dfg", "factored-cdg",
            "range", "taint", "nulluse"]
PER_LAYER = (
    [("ir.parse_ms", "ms"), ("ir.verify_ms", "ms"), ("ir.print_ms", "ms"),
     ("proc.overhead_ms", "ms"), ("pass.pipeline_ms", "ms")]
    + [("pass.%s_ms" % p, "ms") for p in PASSES]
    + [("pass.task_busy_ms", "ms"), ("pass.work_inflation", "ratio"),
       ("pass.queue_wait_ms_p90", "ms"), ("pass.worker_util", "ratio"),
       ("pass.analysis_hits", "count"), ("pass.analysis_misses", "count")]
    + [("pass.analysis.%s_self_ms" % a, "ms") for a in ANALYSES]
    + [("structure.cycle_equiv_ms", "ms"), ("structure.sese_ms", "ms"),
       ("core.dfg_build_ms", "ms"), ("core.dfg_edges", "count"),
       ("cdg.factored_cdg_ms", "ms"), ("dataflow.constprop_ms", "ms"),
       ("dataflow.pre_solve_ms", "ms"), ("dataflow.pre_solves", "count"),
       ("support.stat_delta_per_op", "count"),
       ("obs.alloc_mb_per_op", "MiB"), ("obs.alloc_count_per_op", "count"),
       ("sdg.build_ms", "ms"), ("sdg.pdg_self_ms", "ms"),
       ("sdg.scc_self_ms", "ms"), ("sdg.slice_ms", "ms"),
       ("sdg.extract_ms", "ms"), ("sdg.nodes", "count"),
       ("sdg.summary_edges", "count"), ("sdg.slice_kept_frac", "ratio"),
       ("trace.overhead_ms", "ms")]
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def check_source_tree():
    for rel in ("CMakeLists.txt", "src", os.path.join("tools", "depflow-opt.cpp")):
        if not os.path.exists(os.path.join(REPO, rel)):
            raise BenchError("no depflow source tree here (missing %s); run "
                             "from the root of a depflow checkout" % rel)


def build():
    """Configures and builds the three targets (quick when current)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as out:
        steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]]
        steps.append(["cmake", "--build", BUILD, "--target", "depflow-opt",
                      "depflow-perfbench", "depflow-perfbench-spawn",
                      "-j", str(JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path, errors="replace") as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed: %s\n%s" % (" ".join(cmd), tail))


def helper(*args):
    r = subprocess.run([HELPER] + [str(a) for a in args], capture_output=True,
                       text=True, stdin=subprocess.DEVNULL, timeout=120)
    return r.returncode, r.stdout, r.stderr


# ----------------------------------------------------------- child ops --

def spawn_and_wait(argv, out_path, err_path, timeout_s):
    """Runs one child through the launcher, with stdout/stderr sent to files
    (a sink that never blocks it); returns (wall_s, exit_code, maxrss_kib,
    timed_out), all as the launcher measured them."""
    r = subprocess.run([SPAWN, repr(timeout_s), out_path, err_path] + argv,
                       capture_output=True, text=True,
                       stdin=subprocess.DEVNULL, timeout=timeout_s + 30)
    if r.returncode != 0:
        raise BenchError("launcher failed: " + r.stderr)
    wall_ns, code, rss, timed_out = map(int, r.stdout.split())
    return wall_ns / 1e9, code, rss, bool(timed_out)


def stderr_tail(path):
    with open(path, "rb") as f:
        f.seek(0, os.SEEK_END)
        f.seek(max(0, f.tell() - STDERR_TAIL))
        return f.read().decode(errors="replace")


class Op:
    """One timed depflow-opt run and its verdict."""
    __slots__ = ("input", "jobs", "ms", "rss_kib", "ok", "why")


def run_op(inp, jobs, work, extra=(), timeout_s=OP_TIMEOUT_S):
    out_path = os.path.join(work, "op.out")
    err_path = os.path.join(work, "op.err")
    argv = [OPT] + inp["args"] + list(extra) + ["-j", str(jobs), inp["path"]]
    wall, code, rss, timed_out = spawn_and_wait(argv, out_path, err_path,
                                                timeout_s)
    op = Op()
    op.input, op.jobs, op.ms, op.rss_kib = inp, jobs, wall * 1e3, rss
    op.ok, op.why = True, ""
    if timed_out:
        op.ok, op.why = False, "timeout after %.0f s" % timeout_s
    elif code != 0:
        op.ok, op.why = False, "exit %d" % code
    else:
        with open(out_path, "rb") as f:
            if f.read() != inp["ref"]:
                op.ok, op.why = False, "stdout differs from the reference"
    if not op.ok:
        op.why += "; stderr tail:\n" + stderr_tail(err_path)
    return op


# ------------------------------------------------------------- workloads --

def ladder_text(rng, depth):
    """A single function of `depth` nested diamonds. Level i branches on a
    read(); its then-arm recomputes a + k_i and holds level i+1, its
    else-arm recomputes a + k_i, and its join recomputes a + k_i again, so
    every level gives PRE one distinct, partially redundant expression."""
    ks = rng.sample(range(1, 10 * depth + 10), depth)
    ops = [rng.choice("+-*") for _ in range(3 * depth)]
    out = ["func ladder(a) {", "entry:", "  s = 1", "  goto h0"]
    for i, k in enumerate(ks):
        inner = "h%d" % (i + 1) if i + 1 < depth else "j%d" % i
        out += ["h%d:" % i, "  c%d = read()" % i,
                "  if c%d goto t%d else e%d" % (i, i, i),
                "t%d:" % i, "  x%d = a + %d" % (i, k),
                "  s = s %s x%d" % (ops[3 * i], i), "  goto %s" % inner,
                "e%d:" % i, "  y%d = a + %d" % (i, k),
                "  s = s %s y%d" % (ops[3 * i + 1], i), "  goto j%d" % i]
    for i in reversed(range(depth)):
        out += ["j%d:" % i, "  z%d = a + %d" % (i, ks[i]),
                "  s = s %s z%d" % (ops[3 * i + 2], i),
                "  goto %s" % ("j%d" % (i - 1) if i else "done")]
    out += ["done:", "  ret s", "}"]
    return "\n".join(out) + "\n"


def make_inputs(name, seed, work):
    """Writes the workload's distinct inputs; returns them without refs."""
    cfg = WORKLOADS[name]
    rng = random.Random("%s/%d" % (name, seed))
    if cfg["kind"] == "ladder":
        pool = list(range(cfg["depth"][0], cfg["depth"][1] + 1))
    else:
        pool = [cfg["funcs"]] * cfg["pool"]
    inputs, gens = [], []
    for i, size in enumerate(pool):
        path = os.path.join(work, "in%d.df" % i)
        sub_seed = rng.getrandbits(63)
        inputs.append({"path": path, "args": list(cfg["args"]), "crit": None,
                       "exec_inputs": None})
        if cfg["kind"] == "ladder":
            with open(path, "w") as f:
                f.write(ladder_text(random.Random(sub_seed), size))
        else:
            gens.append(([HELPER, "gen-module", cfg["kind"], str(size),
                          str(sub_seed), path],
                         os.path.join(work, "gen%d.out" % i),
                         os.path.join(work, "gen%d.err" % i)))
    for inp, (_, out_path, err_path), code in zip(
            inputs, gens, run_parallel(gens, REF_TIMEOUT_S)):
        if code != 0:
            raise BenchError("input generation failed (exit %s): %s" % (
                code, stderr_tail(err_path)))
        if cfg["kind"] == "call":
            with open(out_path) as f:
                crit, exec_inputs = f.read().split()
            inp["crit"], inp["exec_inputs"] = crit, exec_inputs
            inp["args"] = ["--slice", crit]
    return inputs


def run_parallel(cmds, timeout_s):
    """Runs (argv, out_path, err_path) commands, JOBS at a time, starting
    the next as soon as one ends; returns each exit code, None for one
    killed at the timeout."""
    def one(cmd):
        argv, out_path, err_path = cmd
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            try:
                return subprocess.run(argv, stdout=out, stderr=err,
                                      stdin=subprocess.DEVNULL,
                                      timeout=timeout_s).returncode
            except subprocess.TimeoutExpired:  # run() has killed and reaped it.
                return None
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        return list(pool.map(one, cmds))


def setup(name, seed, work):
    """Generate, write, compute and interpreter-check the references, warm
    up. Returns (inputs, problems); each problem makes the run incorrect."""
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    inputs = make_inputs(name, seed, work)
    refs = []
    for i, inp in enumerate(inputs):
        inp["ref_path"] = os.path.join(work, "ref%d.out" % i)
        refs.append(([OPT] + inp["args"] + ["-j", "1", inp["path"]],
                     inp["ref_path"], os.path.join(work, "ref%d.err" % i)))
    for inp, (_, _, err_path), code in zip(inputs, refs,
                                           run_parallel(refs, REF_TIMEOUT_S)):
        if code != 0:
            raise BenchError("reference run failed (exit %s) on %s:\n%s" % (
                code, inp["path"], stderr_tail(err_path)))
        with open(inp["ref_path"], "rb") as f:
            inp["ref"] = f.read()

    checks = []
    for i, inp in enumerate(inputs):
        if inp["crit"]:
            args = ["check", "slice", inp["path"], inp["ref_path"], inp["crit"],
                    inp["exec_inputs"]]
        else:
            args = ["check", "pipeline", inp["path"], inp["ref_path"], str(seed)]
        checks.append(([HELPER] + args, os.path.join(work, "check%d.out" % i),
                       os.path.join(work, "check%d.err" % i)))
    problems = []
    for inp, (_, out_path, err_path), code in zip(
            inputs, checks, run_parallel(checks, REF_TIMEOUT_S)):
        with open(out_path) as f:
            lines = f.read().split("\n")
        if code is None or not lines[0]:
            raise BenchError("input check failed on %s: %s" % (
                inp["path"], stderr_tail(err_path)))
        verdict = json.loads(lines[0])
        inp["instructions"] = verdict["instructions"]
        if code != 0 or not verdict["ok"]:
            problems.append("%s: interpreter check failed: %s" % (
                inp["path"], verdict["detail"]))

    for inp in inputs:  # Warm-up: page cache, dynamic loader, CPU clocks.
        op = run_op(inp, JOBS, work)
        if not op.ok:
            problems.append("warm-up op failed on %s: %s" % (inp["path"], op.why))
    return inputs, problems


# --------------------------------------------------------------- metrics --

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def run_metadata(args, name):
    # perfbench/CMakeLists.txt strips -DNDEBUG from every build type, so
    # assertions are on in any build this script makes.
    meta = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "jobs": JOBS,
            "cpu_model": "unknown", "compiler": "unknown",
            "build_type": "unknown", "assertions": True,
            "commit": "unknown (not a git checkout)"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    meta["build_type"] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    compiler = {}
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith('set(%s "' % key):
                        compiler[key] = line.split('"')[1]
    if compiler:
        meta["compiler"] = " ".join(compiler[k] for k in sorted(compiler))
    if os.path.isdir(os.path.join(REPO, ".git")):
        r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           capture_output=True, text=True,
                           stdin=subprocess.DEVNULL)
        if r.returncode == 0:
            meta["commit"] = r.stdout.strip()
    return meta


def timed_loop(inputs, seed, seconds, work, plan, min_rounds=1):
    """Closed loop for `seconds`, and for at least `min_rounds` passes
    through the (jobs, extra-args) `plan`: one child at a time, cycling
    through the inputs in a seeded order."""
    order = list(range(len(inputs)))
    random.Random(seed).shuffle(order)
    ops = []
    deadline = time.perf_counter() + seconds
    step = 0
    while time.perf_counter() < deadline or step < min_rounds * len(plan):
        jobs, extra = plan[step % len(plan)]
        inp = inputs[order[(step // len(plan)) % len(order)]]
        ops.append((step % len(plan), run_op(inp, jobs, work, extra)))
        step += 1
    return ops


def end_to_end(args, name, work):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs, problems = setup(name, args.seed, work)
        setup_times.append(time.perf_counter() - t0)
    # Two -j N ops per -j 1 op: the serial run is measured on the same
    # inputs, interleaved, so drift hits both alike.
    plan = [(JOBS, ()), (JOBS, ()), (1, ())]
    ops = timed_loop(inputs, args.seed, args.seconds, work, plan,
                     min_rounds=-(-MIN_OPS // 2))
    par = [op for slot, op in ops if slot != 2]
    ser = [op for slot, op in ops if slot == 2]
    all_ops = [op for _, op in ops]
    par_ms = [op.ms for op in par]
    ser_ms = [op.ms for op in ser]
    p90 = percentile(par_ms, 90)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(par_ms),
        "op_ms_p90": p90,
        "kinstr_per_s": sum(op.input["instructions"] for op in par)
                        / (sum(par_ms) / 1e3) / 1e3,
        "op_ms_p50_j1": statistics.median(ser_ms),
        "peak_rss_mb": max(op.rss_kib for op in all_ops) / 1024.0,
    }
    samples = {
        "setup_s": "n=%d setups" % len(setup_times),
        "op_ms_p50": "n=%d ops at -j %d" % (len(par), JOBS),
        "op_ms_p90": "n=%d, %d beyond" % (len(par), sum(m > p90 for m in par_ms)),
        "kinstr_per_s": "%d ops" % len(par),
        "op_ms_p50_j1": "n=%d ops at -j 1" % len(ser),
        "peak_rss_mb": "max of %d ops" % len(all_ops),
    }
    failed = [op for op in all_ops if not op.ok]
    report = [(k, "%.4f" % metrics[k], unit, samples[k]) for k, unit in END_TO_END]
    report.append(("failed_frac", "%.4f" % (len(failed) / len(all_ops)), "ratio",
                   "%d of %d ops" % (len(failed), len(all_ops))))
    report.append(("speedup", "%.3f" % (metrics["op_ms_p50_j1"] / metrics["op_ms_p50"]),
                   "x", "op_ms_p50_j1 / op_ms_p50"))
    return (metrics, END_TO_END, report, len(all_ops), failed, problems,
            {"ops": len(all_ops), "ops_j%d" % JOBS: len(par), "ops_j1": len(ser),
             "setups": len(setup_times)})


def per_layer(args, name, work):
    inputs, problems = setup(name, args.seed, work)
    manifest = os.path.join(work, "manifest.txt")
    with open(manifest, "w") as f:
        for inp in inputs:
            f.write("%s %s %s\n" % (inp["path"], inp["ref_path"],
                                    inp["crit"] or "-"))
    # Half the time: untraced and --trace-json ops alternate; the other
    # half: the in-process layer run.
    trace_path = os.path.join(work, "trace.json")
    plan = [(JOBS, ()), (JOBS, ("--trace-json", trace_path))]
    ops = timed_loop(inputs, args.seed, args.seconds / 2, work, plan)
    plain = [op.ms for slot, op in ops if slot == 0]
    traced = [op.ms for slot, op in ops if slot == 1]
    passes = WORKLOADS[name]["args"][0].split("=", 1)[1] \
        if WORKLOADS[name]["kind"] != "call" else "-"
    code, out, err = helper("layers", passes, JOBS, args.seconds / 2, manifest)
    if code != 0:
        raise BenchError("layer run failed: " + err)
    layers = json.loads(out)
    metrics = {k: layers[k] for k, _ in PER_LAYER if k in layers}
    metrics["proc.overhead_ms"] = statistics.median(plain) - layers["layer_sum_ms"]
    metrics["trace.overhead_ms"] = statistics.median(traced) - statistics.median(plain)
    all_ops = [op for _, op in ops]
    failed = [op for op in all_ops if not op.ok]
    report = [(k, "%.4f" % metrics[k], unit, "median of %d" % layers["iterations"])
              for k, unit in PER_LAYER]
    for i, (k, v, u, _) in enumerate(report):
        if k == "proc.overhead_ms":
            report[i] = (k, v, u, "untraced op median (n=%d) - layer sum" % len(plain))
        elif k == "trace.overhead_ms":
            report[i] = (k, v, u, "traced (n=%d) - untraced (n=%d) op median" % (
                len(traced), len(plain)))
    return (metrics, PER_LAYER, report, len(all_ops), failed, problems,
            {"ops": len(all_ops), "layer_iterations": layers["iterations"]})


# ------------------------------------------------------------------ main --

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    with open(BENCHMARK_JSON) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = [run_workload(args, name) for name in WORKLOADS]
        return max(codes)
    return run_workload(args, args.workload)


def run_workload(args, name):
    # On SIGTERM, unwind as on an error: the launcher of a running op is
    # killed, and its op with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (name, os.getpid()))
    try:
        check_source_tree()
        build()
        run = per_layer if args.trace else end_to_end
        metrics, spec, report, attempted, failed, problems, counts = run(
            args, name, work)
    except BenchError as e:
        log("depflow-bench: error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = run_metadata(args, name)
    meta.update(counts)
    print("depflow-bench %s (seed %d, %s s, trace %d, -j %d)" % (
        name, args.seed, args.seconds, args.trace, JOBS))
    for metric, value, unit, note in report:
        print("  %-32s %14s %-9s (%s)" % (metric, value, unit, note))
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems:
        log("depflow-bench: incorrect: " + p)
    for op in failed[:5]:
        log("depflow-bench: failed op on %s at -j %d: %s" % (
            op.input["path"], op.jobs, op.why))
    mismatched = [op for op in failed if "timeout" not in op.why]
    result = {
        "correct": not problems and not mismatched,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
