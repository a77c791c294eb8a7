"""Benchmark of auxgan: one workload, timed from outside the program.

    python3 perfbench/run.py --workload ring --seed 0 --seconds 30 --trace 0

Workloads are `ring`, `digits` and `identity` (see README.md).  A run is a
series of rounds; each round runs the workload once in a fresh process
(worker.py) with BLAS pinned to one thread.  Rounds repeat until the next
one would end after `--seconds`, and there are at least two, so that
set-up is measured more than once and the artifacts of two repeats can be
compared.  Then the outputs of the first round are checked against
computations made here (checks.py).

With `--trace 0` the last line of stdout is a JSON object with every
end-to-end metric; with `--trace 1` untraced and traced rounds alternate
and it carries every per-layer metric plus the tracing overhead.  Lines
before it give each median with its tail percentile and sample count, and
each check.  `--tiny` shrinks every workload for the smoke test.

A round that fails ends the run: its operations the round did not finish
count as failed, `correct` is false, and the run exits 1 after printing its
result.  Exits 2 without a result when the program's sources are not next
to the benchmark (src/auxgan).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import worker  # noqa: F401  (importing it pins BLAS to one thread before numpy loads)
import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(HERE, "_runs")

MIN_ROUNDS = 2
DEADLINE_S = 165.0  # a run must end within 180 s; stop rounds well before

END_TO_END = (("setup_s", "s"), ("unit_ms", "ms"), ("eval_ms", "ms"),
              ("run_s", "s"), ("peak_rss_mb", "MB"))
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def describe(name, unit, values):
    line = f"  {name:<28} median {median(values):.6g} {unit}"
    t = tail(values)
    if t is not None:
        line += f"  p{t[0]:g} {t[1]:.6g} {unit}"
    return line + f"  n={len(values)}"


def run_round(args, index, traced, started):
    """One worker process: (its result dict or None if it failed, operations it finished)."""
    out = os.path.join(args.run_dir, f"round{index}")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONPATH=SRC)
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        failure = None if proc.returncode == 0 else f"exit {proc.returncode}:\n{proc.stderr}"
    except subprocess.TimeoutExpired:
        failure = f"no result within {timeout:.0f} s"
    if failure is None:
        with open(os.path.join(out, "result.json")) as f:
            result = json.load(f)
        result["dir"] = out
        return result, result["operations"]
    print(f"round {index} failed ({failure})", file=sys.stderr)
    try:
        with open(os.path.join(out, "done.json")) as f:
            return None, json.load(f)["operations"]
    except (OSError, ValueError, KeyError):
        return None, 0


def run_rounds(args):
    """Untraced rounds, or untraced/traced pairs, until the time is spent or a round fails.

    Returns the results of the rounds that succeeded, the operations each
    failed round finished, and the number of rounds.
    """
    started = time.monotonic()
    pattern = (False, True) if args.trace else (False,)
    results, failed_done, longest = [], [], 0.0
    index = 0
    while True:
        t0 = time.monotonic()
        for traced in pattern:
            result, done = run_round(args, index, traced, started)
            index += 1
            if result is None:
                failed_done.append(done)
            else:
                results.append(result)
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - started
        if failed_done or (index >= MIN_ROUNDS and elapsed + longest > args.seconds):
            return results, failed_done, index


def count_operations(results, failed_done):
    """(attempted, failed).  A failed round attempted what a clean round does.

    Without a clean round to go by, it attempted what it finished plus the
    operation that broke.
    """
    planned = results[0]["operations"] if results else None
    failed = sum((planned if planned is not None else done + 1) - done for done in failed_done)
    attempted = sum(r["operations"] for r in results) + sum(failed_done) + failed
    return attempted, failed


def run_checks(args, results):
    """Every check of the workload; a check that raises is a failed check."""
    import numpy as np

    first = results[0]["dir"]

    def guarded(name, check):
        try:
            return check()
        except Exception as e:  # noqa: BLE001  (any error means the outputs are wrong)
            return [checks.Check(name, False, f"raised {type(e).__name__}: {e}")]

    if args.workload == "identity":
        return guarded("identity", lambda: checks.identity(
            np.load(os.path.join(first, "reports.npy")), args.seed,
            workloads.identity_count(args.tiny)))
    found = guarded("determinism", lambda: [checks.determinism([r["dir"] for r in results])])
    if args.workload == "ring":
        return found + guarded("ring", lambda: checks.ring(first, args.seed))
    data_dir = os.path.join(first, "tiny-data" if args.tiny else "data")
    return found + guarded("digits", lambda: checks.digits(first, args.seed, data_dir))


def end_to_end(results):
    """Scaled medians for the result; the raw medians are printed beside them."""
    def samples(source, name):
        if name in ("unit_ms", "eval_ms"):
            return [t for r in results for t in source(r)[name]]
        return [source(r)[name] for r in results]

    metrics = {}
    for name, unit in END_TO_END:
        values = samples(lambda r: r, name)
        line = describe(name, unit, values)
        if name != "peak_rss_mb":
            line += f"  (as measured: median {median(samples(lambda r: r['raw'], name)):.6g} {unit})"
        print(line)
        metrics[name] = {"value": median(values), "unit": unit}
    yardstick = [t for r in results for t in r["yardstick_ms"]]
    print(f"  yardstick ({workloads.YARDSTICK[results[0]['workload']]}) median "
          f"{median(yardstick):.4g} ms, reference "
          f"{workloads.YARDSTICK_REF_S[workloads.YARDSTICK[results[0]['workload']]] * 1e3:.4g} ms"
          f"  n={len(yardstick)}")
    return metrics


def per_layer(results):
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    metrics = {}
    if not traced:
        return metrics
    for name, unit in tracing.METRICS:
        values = [r["layers"][name] for r in traced]
        print(describe(name, unit, values))
        metrics[name] = {"value": median(values), "unit": unit}
    if plain:
        plain_run = median(r["raw"]["run_s"] for r in plain)
        traced_run = median(r["raw"]["run_s"] for r in traced)
        overhead = 100.0 * (traced_run / plain_run - 1.0)
        print(f"  trace.overhead_pct           {overhead:.4g} % (run_s traced {traced_run:.3f} s, "
              f"untraced {plain_run:.3f} s)")
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    self_s = traced[0]["self_s"]
    total = sum(self_s.values())
    print("  self time by layer (first traced round): " + ", ".join(
        f"{layer} {s:.3f} s ({100 * s / total:.1f}%)"
        for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])))
    return metrics


def keep_spans(args, results):
    for r in results:
        if r["traced"]:
            dest = os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.move(os.path.join(r["dir"], "spans.jsonl"), dest)
            print(f"  spans of a traced round: {os.path.relpath(dest, ROOT)}")
            return


def parse_args(argv):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be non-negative")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("ring", "digits", "identity"), required=True)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "auxgan", "__init__.py")):
        print(f"perfbench: no program to measure: {os.path.join(SRC, 'auxgan')} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args.run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    metrics, found = {}, []
    try:
        results, failed_done, rounds = run_rounds(args)
        attempted, failed = count_operations(results, failed_done)
        mode = "untraced/traced pairs" if args.trace else "untraced"
        print(f"perfbench {args.workload} seed={args.seed} rounds={rounds} ({mode}) "
              f"failed_rounds={len(failed_done)}"
              + (f" blas_threads={results[0]['blas_threads']}" if results else ""))
        if results:
            if args.trace:
                metrics = per_layer(results)
                keep_spans(args, results)
            else:
                metrics = end_to_end(results)
            found = run_checks(args, results)
        for check in found:
            print(f"check {'PASS' if check.ok else 'FAIL'} {check.name} "
                  f"{'' if check.gates else '(reported, not gated) '}[{check.detail}]")
        if results and args.workload != "identity":
            print(f"  final match {results[0]['final_match']:.4f}, "
                  f"final jsd {results[0]['final_jsd']:.4f} (program's last evaluation)")
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    correct = bool(found) and not failed and all(c.ok for c in found if c.gates)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
