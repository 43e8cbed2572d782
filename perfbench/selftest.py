#!/usr/bin/env python3
"""depflow-bench self-test. Run from the root of a depflow source tree.

    python3 perfbench/selftest.py doctor
        On every workload, a reference with one doctored byte must count as
        a failed op, and the untouched reference must still pass.

    python3 perfbench/selftest.py aa
        A/A check: runs the benchmark ten times per workload, seeds 1-10,
        and then does it all again. For every end-to-end metric it prints
        the spread of each set (interquartile range over median, quartiles
        from statistics.quantiles(n=4)) and how far the two sets' medians
        lie apart, as a share of the smaller one, whichever set is faster.
        It fails when a spread or that change exceeds the metric's bound in
        BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (after the bytecode switch)

RUNS = 10
SETS = 2


def doctor():
    bench.check_source_tree()
    bench.build()
    ok = True
    for name in bench.WORKLOADS:
        work = os.path.join(bench.BUILD_ROOT, "work", "selftest-%d" % os.getpid())
        try:
            inputs, problems = bench.setup(name, 1, work)
            if problems:
                print("FAIL: %s set-up reported problems: %s" % (name, problems))
                return 1
            inp = inputs[0]
            good = bench.run_op(inp, bench.JOBS, work)
            ref = bytearray(inp["ref"])
            ref[len(ref) // 2] ^= 0x01
            inp["ref"] = bytes(ref)
            bad = bench.run_op(inp, bench.JOBS, work)
        finally:
            bench.shutil.rmtree(work, ignore_errors=True)
        print("%-13s untouched reference: ok=%s; doctored reference: ok=%s (%s)"
              % (name, good.ok, bad.ok, bad.why.splitlines()[0]))
        ok &= good.ok and not bad.ok and "differs" in bad.why
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa():
    with open(bench.BENCHMARK_JSON) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {}  # (set, workload) -> list of metric dicts
    for s in range(SETS):
        for w in workloads:
            for seed in range(1, RUNS + 1):
                cmd = [sys.executable] + spec["command"][1:] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                r = subprocess.run(cmd, capture_output=True, text=True,
                                   cwd=bench.REPO, stdin=subprocess.DEVNULL)
                if r.returncode != 0:
                    print("FAIL: %s seed %d exited %d\n%s" % (
                        w, seed, r.returncode, r.stderr[-2000:]))
                    return 1
                result = json.loads(r.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    print("FAIL: %s seed %d: %s" % (w, seed, result))
                    return 1
                vals = {k: v["value"] for k, v in result["metrics"].items()}
                runs.setdefault((s, w), []).append(vals)
                print("set %d %-13s seed %2d  %s" % (s, w, seed, " ".join(
                    "%s=%.4g" % kv for kv in sorted(vals.items()))), flush=True)
    ok = True
    print("\n%-13s %-14s %6s  %s" % ("workload", "metric", "bound",
                                     "spread per set; median change"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs[(s, w)]] for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            a, b = (statistics.median(v) for v in sets)
            change = abs(a - b) / min(a, b)
            bad = change > bound or any(sp > bound for sp in spreads)
            ok &= not bad
            print("%-13s %-14s %6.3f  %s; %.4f%s" % (
                w, name, bound, " ".join("%.4f" % sp for sp in spreads),
                change, "  <-- exceeds bound" if bad else ""))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("cmd", choices=("doctor", "aa"))
    return doctor() if ap.parse_args().cmd == "doctor" else aa()


if __name__ == "__main__":
    sys.exit(main())
