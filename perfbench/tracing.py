"""Spans around the program's layer boundaries, installed from outside.

A traced round calls `Tracer.install()` after importing auxgan.  Every
public function of each layer module (`auxgan.data`, `tensor`, `nn`,
`optim`, `schemes`, `harness`, `divergence`) and the layer methods listed in
METHODS are replaced by wrappers that append a span (name, start, end,
parent, bytes) to an in-memory list.  Every reference the package holds is
rebound, including names imported from one module into another and the
activation table `tensor.ACTIVATIONS`.  Nothing under src/ changes.

Each backward rule a tape records is wrapped too (through `Tape._record`),
so backward time is attributed per op.  For the leaf calls of `tensor` and
`optim` the span also keeps the tracemalloc peak of the call: tracing starts
at its entry and stops at its exit, so the peak is the most memory the
call's own allocations held at once.

`summarize()` turns the spans into the per-layer metrics named in
BENCHMARK.json.  `cli` is not wrapped: it is an argparse front end over the
same calls.
"""

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from statistics import median

LAYERS = ("data", "tensor", "nn", "optim", "schemes", "harness", "divergence")

# Layer methods that are boundaries.  `MLP.__call__` and
# `SharedTrunkClassifier.__call__` are aliases of `forward`: one wrapper
# serves both names.
METHODS = {
    "tensor": {"Tape": ("backward",)},
    "nn": {"DenseLayer": ("__call__",), "MLP": ("forward", "__call__")},
    "optim": {"Adam": ("step",), "NesterovMomentum": ("step",)},
    "schemes": {"SharedTrunkClassifier": ("forward", "__call__")},
}

# Calls with no wrapped call inside them, whose allocation is kept.
_NOT_LEAF = {"tensor.backward", "tensor.Tape.backward"}
_ALLOC_LAYERS = ("tensor", "optim")

_MATCH = ("harness.class_match_rate", "harness.probe_match_rate")
_JSD = ("harness.jsd_snapshot", "harness.probe_label_jsd")
_FORWARD = ("nn.MLP.forward", "nn.DenseLayer.__call__",
            "schemes.SharedTrunkClassifier.forward")
_OPTIM = ("optim.Adam.step", "optim.NesterovMomentum.step")
_STEP = "schemes.train_step"
_MB = float(1 << 20)

# The per-layer metrics and their units, in BENCHMARK.json order.
METRICS = (
    ("data.corpus_s", "s"), ("data.idx_load_ms", "ms"), ("data.batch_us", "us"),
    ("tensor.records_per_step", "count"), ("tensor.loss_ms", "ms"),
    ("tensor.matmul_fwd_ms", "ms"), ("tensor.alloc_mb_per_step", "MB"),
    ("tensor.backward_ms", "ms"),
    ("nn.train_forward_ms", "ms"), ("nn.eval_forward_ms", "ms"),
    ("optim.adam_ms", "ms"), ("optim.nesterov_ms", "ms"), ("optim.alloc_mb_per_step", "MB"),
    ("schemes.d_step_ms", "ms"), ("schemes.c_step_ms", "ms"), ("schemes.g_step_ms", "ms"),
    ("schemes.grad_elems_per_step", "count"), ("schemes.grad_used_ratio", "ratio"),
    ("schemes.checkpoint_ms", "ms"),
    ("harness.match_ms", "ms"), ("harness.jsd_ms", "ms"), ("harness.probe_s", "s"),
    ("harness.grid_ms", "ms"),
    ("divergence.optimal_us", "us"), ("divergence.cce_us", "us"), ("divergence.jsd_us", "us"),
)


class Tracer:
    """Span recorder plus gradient-element counters for one traced round."""

    def __init__(self):
        # span: [name, start_s, end_s, parent index or -1, alloc bytes]
        self.spans = []
        self._stack = []
        self.grads_written = {}  # train_step span index -> elements
        self.grads_read = {}

    def wrap(self, name, fn, alloc=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced_call(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            # tracemalloc runs only inside leaf calls, so the rest of the
            # round is not slowed by it; its peak is then what the call held
            measure = alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start(1)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                if measure:
                    rec[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return traced_call

    def wrap_generator(self, name, fn):
        """Span per item a generator yields (e.g. each minibatch)."""
        def traced_generator(*args, **kwargs):
            next_item = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = next_item()
                except StopIteration:
                    return
                yield item

        return traced_generator

    def install(self, trio_of):
        """Wrap every layer boundary and rebind the package's references.

        `trio_of()` gives the round's trio once it is built, else None; the
        gradient counters read its parameters.
        """
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"auxgan.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replaced[obj] = self.wrap_generator(name, obj)
                else:
                    replaced[obj] = self.wrap(name, obj, self._keeps_alloc(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                wrappers = {}
                for method in methods:
                    original = cls.__dict__[method]
                    if original not in wrappers:
                        name = f"{layer}.{cls_name}.{method}"
                        wrappers[original] = self.wrap(name, original, self._keeps_alloc(name))
                    setattr(cls, method, wrappers[original])
        for module_name, module in list(sys.modules.items()):
            if module_name == "auxgan" or module_name.startswith("auxgan."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])
        tensor = sys.modules["auxgan.tensor"]
        for key, fn in list(tensor.ACTIVATIONS.items()):
            tensor.ACTIVATIONS[key] = replaced.get(fn, fn)
        self._install_rules(tensor)
        self._install_counters(tensor, sys.modules["auxgan.optim"], trio_of)

    @staticmethod
    def _keeps_alloc(name):
        return name.split(".", 1)[0] in _ALLOC_LAYERS and name not in _NOT_LEAF

    def _install_rules(self, tensor):
        record = tensor.Tape._record
        wrap = self.wrap

        def _record(tape, backward_fn):
            op = backward_fn.__qualname__.split(".", 1)[0]
            record(tape, wrap(f"tensor.{op}.backward_rule", backward_fn, alloc=True))

        tensor.Tape._record = _record

    def _install_counters(self, tensor, optim, trio_of):
        """Count parameter-gradient elements written and read per train step."""
        backward = tensor.Tape.backward

        def counted_backward(tape, loss):
            backward(tape, loss)
            trio = trio_of()
            if trio is not None:
                self._count(self.grads_written, trio.all_params())

        tensor.Tape.backward = counted_backward

        for cls in (optim.Adam, optim.NesterovMomentum):
            def counted_step(opt, _step=cls.step):
                self._count(self.grads_read, opt.params)
                _step(opt)

            cls.step = counted_step

    def _count(self, store, params):
        step = next((i for i in reversed(self._stack) if self.spans[i][0] == _STEP), None)
        if step is not None:
            written = sum(p.grad.size for p in params if p.grad is not None)
            store[step] = store.get(step, 0) + written

    def write(self, path, round_id):
        """Spans as JSON lines: a header naming them, then one array per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        header = {"round": round_id, "names": names,
                  "fields": ["name", "start_ns", "end_ns", "parent", "alloc_bytes"]}
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            f.writelines(f"[{index[n]},{int(t0 * 1e9)},{int(t1 * 1e9)},{p},{a}]\n"
                         for n, t0, t1, p, a in self.spans)


def _med(values):
    return float(median(values)) if values else 0.0


def summarize(tracer):
    """Per-layer metrics and per-layer self time from one traced round.

    A metric whose layer the workload never calls reads 0 (see README).
    """
    spans = tracer.spans
    n = len(spans)
    step_of = [-1] * n
    children_s = [0.0] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if name == _STEP:
            step_of[i] = i
        elif parent >= 0:
            step_of[i] = step_of[parent]
        if parent >= 0:
            children_s[parent] += t1 - t0

    per_step = {}  # step span -> accumulators

    def acc(step, key, value):
        slot = per_step.setdefault(step, {})
        slot[key] = slot.get(key, 0.0) + value

    by_name = {}
    self_s = {}
    snapshots = []  # [match span, jsd span] per evaluation
    open_snapshot = None
    for i, (name, t0, t1, parent, alloc) in enumerate(spans):
        dur = t1 - t0
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - children_s[i]
        by_name.setdefault(name, []).append(i)
        if name in _MATCH:
            open_snapshot = [i]
        elif name in _JSD and open_snapshot is not None:
            snapshots.append(open_snapshot + [i])
            open_snapshot = None
        step = step_of[i]
        if step < 0 or i == step:
            continue
        parent_name = spans[parent][0]
        if name.endswith(".backward_rule"):
            acc(step, "records", 1)
        if name in ("tensor.bce_loss", "tensor.cce_loss"):
            acc(step, "loss", dur)
        elif name == "tensor.matmul":
            acc(step, "matmul", dur)
        elif name == "tensor.Tape.backward":
            acc(step, "backward", dur)
        elif name in _FORWARD and parent_name not in _FORWARD:
            acc(step, "forward", dur)
        elif name == "optim.Adam.step":
            acc(step, "adam", dur)
        elif name == "optim.NesterovMomentum.step":
            acc(step, "nesterov", dur)
        if alloc:
            acc(step, "alloc_optim" if layer == "optim" else "alloc_tensor", alloc)
        if parent == step and name in _OPTIM:
            per_step.setdefault(step, {}).setdefault("d_end", t1)
        if parent == step and name == "schemes.classifier_step":
            acc(step, "c", dur)
            per_step[step]["c_end"] = t1

    def step_values(key, scale=1.0):
        return [slot.get(key, 0.0) * scale for slot in per_step.values()]

    d_ms, g_ms = [], []
    for step, slot in per_step.items():
        _, start, end, _, _ = spans[step]
        if "d_end" in slot:
            d_ms.append((slot["d_end"] - start) * 1e3)
            g_ms.append((end - slot.get("c_end", slot["d_end"])) * 1e3)

    def durations(names, scale, parent_names=None):
        out = []
        for name in names:
            for i in by_name.get(name, ()):
                if parent_names is None or spans[spans[i][3]][0] in parent_names:
                    out.append((spans[i][2] - spans[i][1]) * scale)
        return out

    def per_round(name, scale):
        return sum(durations((name,), scale))

    eval_forward = []
    forward_total = _forward_within(spans, by_name)
    for pair in snapshots:
        eval_forward.append(sum(forward_total.get(i, 0.0) for i in pair) * 1e3)

    written = sum(tracer.grads_written.values())
    read = sum(tracer.grads_read.get(s, 0) for s in tracer.grads_written)
    metrics = {
        "data.corpus_s": per_round("data.write_synthetic_digit_files", 1.0),
        "data.idx_load_ms": per_round("data.load_mnist", 1e3),
        "data.batch_us": _med(durations(("data.sample_mixture", "data.minibatches"), 1e6,
                                        parent_names=("harness.run_experiment",))),
        "tensor.records_per_step": _med(step_values("records")),
        "tensor.loss_ms": _med(step_values("loss", 1e3)),
        "tensor.matmul_fwd_ms": _med(step_values("matmul", 1e3)),
        "tensor.alloc_mb_per_step": _med(step_values("alloc_tensor", 1.0 / _MB)),
        "tensor.backward_ms": _med(step_values("backward", 1e3)),
        "nn.train_forward_ms": _med(step_values("forward", 1e3)),
        "nn.eval_forward_ms": _med(eval_forward),
        "optim.adam_ms": _med(step_values("adam", 1e3)),
        "optim.nesterov_ms": _med(step_values("nesterov", 1e3)),
        "optim.alloc_mb_per_step": _med(step_values("alloc_optim", 1.0 / _MB)),
        "schemes.d_step_ms": _med(d_ms),
        "schemes.c_step_ms": _med(step_values("c", 1e3)),
        "schemes.g_step_ms": _med(g_ms),
        "schemes.grad_elems_per_step": _med(list(tracer.grads_written.values())),
        "schemes.grad_used_ratio": read / written if written else 0.0,
        "schemes.checkpoint_ms": per_round("schemes.save_checkpoint", 1e3),
        "harness.match_ms": _med(durations(_MATCH, 1e3)),
        "harness.jsd_ms": _med(durations(_JSD, 1e3)),
        "harness.probe_s": per_round("harness.train_probe", 1.0),
        "harness.grid_ms": per_round("harness.emit_sample_grid", 1e3),
        "divergence.optimal_us": _med(durations(("divergence.optimal_classifier",), 1e6)),
        "divergence.cce_us": _med(durations(("divergence.cce_of_classifier",), 1e6)),
        "divergence.jsd_us": _med(durations(("divergence.generalized_jsd",), 1e6)),
    }
    return metrics, self_s


def _forward_within(spans, by_name):
    """Outermost nn forward time (s) inside each evaluation-function span."""
    eval_spans = {i for name in _MATCH + _JSD for i in by_name.get(name, ())}
    totals = {}
    for name in _FORWARD:
        for i in by_name.get(name, ()):
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] in _FORWARD:
                continue
            owner = parent
            while owner >= 0 and owner not in eval_spans:
                owner = spans[owner][3]
            if owner >= 0:
                totals[owner] = totals.get(owner, 0.0) + spans[i][2] - spans[i][1]
    return totals
