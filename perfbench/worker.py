"""One round of a workload, in a process of its own.

    python3 perfbench/worker.py --workload ring --seed 0 --out DIR \\
        --spawned T [--trace] [--tiny]

BLAS is pinned to one thread before numpy loads.  The round runs the
workload once through the program's public entry points
(`harness.run_experiment`, `divergence.verify_identity`) and writes
`result.json` into DIR; a traced round also writes `spans.jsonl`.  Whether
it succeeds or not, it writes `done.json` with the number of operations it
finished.  `--spawned` is the parent's CLOCK_MONOTONIC reading taken just
before it started this process, so set-up and run time include interpreter
start and imports.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# the trio the round's run_experiment builds, for the reload check and the tracer
TRIO = {}


def blas_threads():
    """Threads OpenBLAS reports, or the environment setting if it cannot say."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        query = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return f"env {os.environ['OPENBLAS_NUM_THREADS']}"
    query.restype = ctypes.c_int
    query.argtypes = []
    return query()


class Yardstick:
    """Fixed work of the benchmark's own, timed between operations.

    It reads the machine's speed at that moment (see README, "Slow
    periods").  `loop` is small-array numpy calls, the cost profile of ring
    steps and identity families; `matmul` is one 64x784 @ 784x256 product,
    that of digit steps.  It runs right after an operation, at most every
    0.1 s, so it adds well under 1% to a round.
    """

    EVERY_S = 0.1

    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "loop":
            self.a = rng.random((32, 32))
        else:
            self.x, self.w = rng.random((64, 784)), rng.random((784, 256))
        self.samples = []  # (perf_counter at start, seconds)
        self._next = 0.0

    def maybe(self):
        start = time.perf_counter()
        if start < self._next:
            return
        if self.kind == "loop":
            for _ in range(20):
                b = self.a @ self.a
                b = np.maximum(b, 0.0)
                b.sum()
                b *= 0.5
        else:
            self.x @ self.w
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self._next = end + self.EVERY_S

    def scale(self, start=None):
        """Reference time over the yardstick's time near `start` (whole round if None)."""
        times = [dt for _, dt in self.samples]
        if start is not None:
            i = bisect.bisect_left(self.samples, (start,))
            times = times[max(0, i - 5):i + 5]
        return workloads.YARDSTICK_REF_S[self.kind] / median(times)


class UnitClock:
    """Times the calls the end-to-end metrics need, and nothing else."""

    def __init__(self, yardstick):
        self.yardstick = yardstick
        self.first = None  # CLOCK_MONOTONIC at the start of the first operation
        self.units = []    # (perf_counter at start, seconds) per unit of work
        self.match = []    # the same per match-rate call of an evaluation
        self.jsd = []      # the same per JSD call of an evaluation

    def timed(self, fn, store, outermost=True):
        """`fn`, timed into `store` when it returns.

        The yardstick runs after outermost calls only, so that it never
        lands inside a timed unit.
        """
        def timed_call(*args, **kwargs):
            if self.first is None:
                self.first = time.monotonic()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            store.append((t0, time.perf_counter() - t0))
            if outermost:
                self.yardstick.maybe()
            return out

        return timed_call

    def operations(self, workload):
        """Operations finished so far: units, plus evaluations when training."""
        if workload == "identity":
            return len(self.units)
        return len(self.units) + min(len(self.match), len(self.jsd))

    def evaluations(self, workload):
        """(start, seconds) per evaluation snapshot."""
        if workload == "identity":
            return self.jsd
        return [(t0, m + j) for (t0, m), (_, j) in zip(self.match, self.jsd)]


def run_training(args, clock):
    from auxgan import harness
    from auxgan.data import write_synthetic_digit_files
    from auxgan.tensor import Tensor

    config = workloads.experiment_config(args.workload, args.seed, args.out, args.tiny)
    mnist_dir = None
    if args.tiny and args.workload == "digits":
        # a small corpus through the same writer; the full one is 14,000 images
        mnist_dir = os.path.join(args.out, "tiny-data")
        n_train, n_test = workloads.TINY_DIGITS
        write_synthetic_digit_files(mnist_dir, n_train=n_train, n_test=n_test)

    build_trio = harness.build_trio

    def capture_trio(*a, **k):
        TRIO["trio"] = build_trio(*a, **k)
        return TRIO["trio"]

    harness.build_trio = capture_trio
    harness.train_step = clock.timed(harness.train_step, clock.units)
    if args.workload == "ring":
        harness.class_match_rate = clock.timed(harness.class_match_rate, clock.match)
        harness.jsd_snapshot = clock.timed(harness.jsd_snapshot, clock.jsd)
    else:
        harness.probe_match_rate = clock.timed(harness.probe_match_rate, clock.match)
        harness.probe_label_jsd = clock.timed(harness.probe_label_jsd, clock.jsd)

    record = harness.run_experiment(config, mnist_dir=mnist_dir, log=lambda *_: None)
    end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the in-memory forward pass the reload check compares against
    trio = TRIO["trio"]
    _, z = workloads.check_latent(trio.partition.n_classes, trio.partition.noise_dim, args.seed)
    np.save(os.path.join(args.out, "forward.npy"), trio.generator(Tensor(z)).data)
    return end, rss_mb, {"final_match": record.class_match_rate,
                         "final_jsd": record.jsd_estimate}


def run_identity(args, clock):
    from auxgan import divergence

    # eval_ms times the generalized JSD that verify_identity computes itself
    divergence.generalized_jsd = clock.timed(divergence.generalized_jsd, clock.jsd,
                                             outermost=False)
    verify = clock.timed(divergence.verify_identity, clock.units)
    reports = []
    for members in workloads.identity_families(args.seed, workloads.identity_count(args.tiny)):
        report = verify(divergence.DistributionFamily(members))
        reports.append((report.cce, report.jsd, report.residual))
    end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    np.save(os.path.join(args.out, "reports.npy"), np.array(reports))
    return end, rss_mb, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    tracer = None
    if args.trace:
        from tracing import Tracer, summarize

        import auxgan.harness  # noqa: F401  (loads every layer before wrapping)

        tracer = Tracer()
        tracer.install(trio_of=lambda: TRIO.get("trio"))

    yardstick = Yardstick(workloads.YARDSTICK[args.workload])
    clock = UnitClock(yardstick)
    try:
        if args.workload == "identity":
            end, rss_mb, quality = run_identity(args, clock)
        else:
            end, rss_mb, quality = run_training(args, clock)
    finally:
        # read by run.py when the round fails, to count its failed operations
        with open(os.path.join(args.out, "done.json"), "w") as f:
            json.dump({"operations": clock.operations(args.workload)}, f)

    evals = clock.evaluations(args.workload)
    round_scale = yardstick.scale()
    raw = {
        "setup_s": clock.first - args.spawned,
        "unit_ms": [dt * 1e3 for _, dt in clock.units],
        "eval_ms": [dt * 1e3 for _, dt in evals],
        "run_s": end - args.spawned,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "raw": raw,
        "setup_s": raw["setup_s"] * round_scale,
        "unit_ms": [dt * 1e3 * yardstick.scale(t0) for t0, dt in clock.units],
        "eval_ms": [dt * 1e3 * yardstick.scale(t0) for t0, dt in evals],
        "run_s": raw["run_s"] * round_scale,
        "peak_rss_mb": rss_mb,
        "yardstick_ms": [dt * 1e3 for _, dt in yardstick.samples],
        "operations": clock.operations(args.workload),
        "blas_threads": blas_threads(),
        **quality,
    }
    if tracer is not None:
        result["layers"], result["self_s"] = summarize(tracer)
        tracer.write(os.path.join(args.out, "spans.jsonl"), os.path.basename(args.out))
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
