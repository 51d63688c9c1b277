"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``batchad`` modules from
outside the package: nothing in ``src/`` knows about it. Each wrapped call
records a span (id, parent id, name, start, end, operation id, run id) while
the tracer is active, and passes straight through while it is not. Spans are
kept in memory and written as JSON lines by :meth:`Tracer.write_jsonl`.

A layer's self time is its span's duration minus the time its child spans
cover. Targets that no longer exist in the package (renamed or deleted by a
refactor) are listed in :attr:`Tracer.absent` instead of raising.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf = time.perf_counter

# The headline network's blocks, in forward order.
BLOCKS = (
    "lin0", "bn0", "relu0",
    "lin1", "bn1", "relu1",
    "lin2", "bn2", "relu2",
    "lin_out", "bn_out",
)

# (module, attribute path, span name or block kind) for every wrapped callable.
# Block kinds get their span name ("nn.<block>.fwd" / ".bwd") per call.
TARGETS = (
    ("data", "load_tabular", "data.load_tabular"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("model", "DetectorModel.forward", "model.forward"),
    ("model", "DetectorModel.loss_and_grads", "model.head_loss"),
    ("model", "DetectorModel.score_batch", "model.score_batch"),
    ("nn", "Linear.forward", "linear.fwd"),
    ("nn", "Linear.backward", "linear.bwd"),
    ("nn", "BatchNorm.forward", "bn.fwd"),
    ("nn", "BatchNorm.backward", "bn.bwd"),
    ("nn", "relu_forward", "relu.fwd"),
    ("nn", "relu_backward", "relu.bwd"),
    ("nn", "Adam.step", "nn.adam_step"),
    ("tasks", "sample_iteration_tasks", "tasks.sample_iteration_tasks"),
    ("tasks", "build_contaminated_task", "tasks.build_contaminated_task"),
    ("training", "train", "training.train"),
    ("training", "average_task_gradients", "training.reduce"),
    ("scores", "dsvdd_scores", "scores.dsvdd_scores"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "auroc", "evaluation.auroc"),
)

MODEL_SPANS = ("model.forward", "model.head_loss", "model.score_batch")

# Per-call self time of these spans, as (span, unit, scale); the metric is
# "<span>.<unit>".
TIMED_SPANS = (
    ("data.load_tabular", "ms", 1e3),
    ("model.load_checkpoint", "ms", 1e3),
    ("model.save_checkpoint", "ms", 1e3),
    ("model.forward", "us", 1e6),
    ("model.head_loss", "us", 1e6),
    ("model.score_batch", "us", 1e6),
    ("nn.adam_step", "us", 1e6),
    ("tasks.sample_iteration_tasks", "us", 1e6),
    ("tasks.build_contaminated_task", "us", 1e6),
    ("training.train", "ms", 1e3),
    ("training.reduce", "us", 1e6),
    ("scores.dsvdd_scores", "us", 1e6),
    ("evaluation.evaluate", "ms", 1e3),
    ("evaluation.auroc", "us", 1e6),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span, unit, _scale in TIMED_SPANS:
        units[f"{span}.{unit}"] = unit
        units[f"{span}.calls"] = "count"
    for block in BLOCKS:
        for side in ("fwd", "bwd"):
            units[f"nn.{block}.{side}_us"] = "us"
            units[f"nn.{block}.{side}_calls"] = "count"
    units["nn.linear_gflops"] = "computed_GFLOP/s"
    units["nn.fwd_rows"] = "count"
    units["nn.bwd_rows"] = "count"
    for phase in ("sampling", "fwd_bwd", "reduce", "adam"):
        units[f"training.share.{phase}"] = "fraction"
    units["training.applied_step_frac"] = "fraction"
    units["training.loss_tail"] = "loss"
    for phase in ("tasks", "score", "auroc"):
        units[f"evaluation.share.{phase}"] = "fraction"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    units["trace.absent"] = "count"
    return units


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    if not shape:
        return 0
    return int(arr.size // shape[-1]) if shape[-1] else 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = perf()
        self.active = False
        self.op = 0
        self.spans: list[tuple] = []
        # span name -> [calls, self seconds, inclusive seconds, rows, flops]
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        # open spans: [id, name, child seconds, relu calls seen, relu block names]
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._layer_names: dict[int, str] = {}
        self._blocks = None
        self._relu_names: tuple[str, ...] = ()

    # ----- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, relu_names=None) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0, relu_names]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float, rows: int, flops: int) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent_id = 0
        if stack:
            stack[-1][2] += dur
            parent_id = stack[-1][0]
        st = self.stats.get(frame[1])
        if st is None:
            st = self.stats[frame[1]] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[1] += dur - frame[2]
        st[2] += dur
        st[3] += rows
        st[4] += flops
        self.spans.append((frame[0], parent_id, frame[1], t0, t1, self.op))

    def _see_model(self, model) -> None:
        """Learn block names of ``model``'s layers (refreshed per model)."""
        blocks = getattr(model, "blocks", None)
        if blocks is self._blocks:
            return
        self._blocks = blocks
        relu = []
        for entry in blocks or ():
            if not (isinstance(entry, tuple) and len(entry) == 3):
                continue
            name, kind, layer = entry
            if kind == "relu":
                relu.append(name)
            elif layer is not None:
                self._layer_names[id(layer)] = name
        self._relu_names = tuple(relu)

    def _describe(self, kind: str, args) -> tuple[str, int, int, object]:
        """Span name, rows, computed FLOPs and relu naming for one call."""
        if kind in MODEL_SPANS:
            self._see_model(args[0])
            if kind == "model.head_loss":
                return kind, 0, 0, self._relu_names[::-1]
            return kind, 0, 0, self._relu_names
        if kind.startswith(("linear.", "bn.")):
            layer, arr = args[0], args[1]
            side = kind.split(".")[1]
            block = self._layer_names.get(id(layer), kind.split(".")[0])
            rows = _rows(arr)
            flops = 0
            if kind.startswith("linear."):
                fan = 2 * getattr(layer, "in_dim", 0) * getattr(layer, "out_dim", 0)
                flops = rows * fan * (1 if side == "fwd" else 2)
            return f"nn.{block}.{side}", rows, flops, None
        if kind.startswith("relu."):
            side = kind.split(".")[1]
            parent = self._stack[-1] if self._stack else None
            k = 0
            name = None
            if parent is not None:
                k = parent[3]
                parent[3] += 1
                if parent[4] and k < len(parent[4]):
                    name = parent[4][k]
            return f"nn.{name or f'relu{k}'}.{side}", _rows(args[0]), 0, None
        return kind, 0, 0, None

    def _wrap(self, fn, kind: str):
        tracer = self
        plain = not (kind in MODEL_SPANS or kind.startswith(("linear.", "bn.", "relu.")))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if plain:
                name, rows, flops, relu_names = kind, 0, 0, None
            else:
                name, rows, flops, relu_names = tracer._describe(kind, args)
            frame = tracer._enter(name, relu_names)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0, perf(), rows, flops)

        return wrapper

    # ----- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target, in its defining module and wherever it was
        imported by name into another module of ``package``."""
        prefix = package.__name__
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for mod_name, path, kind in TARGETS:
            module = sys.modules.get(f"{prefix}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(original, kind)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for m in modules:
                if vars(m).get(attr) is original:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ----- results ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One span per line; start and end in ns since the tracer was made,
        parent 0 for a root span, op the benchmark unit the span belongs to."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "op": op, "id": sid, "parent": parent, "name": name,
                    "start": round((t0 - self.origin) * 1e9),
                    "end": round((t1 - self.origin) * 1e9),
                }))
                fh.write("\n")

    def _get(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0, 0, 0])

    def per_layer(self) -> dict[str, float]:
        """Per-layer values from the recorded spans (names as in
        :func:`per_layer_units`, except the ones the harness fills in)."""
        out: dict[str, float] = {}

        def per_call(name, scale):
            calls, self_s = self._get(name)[:2]
            return self_s / calls * scale if calls else 0.0

        for span, unit, scale in TIMED_SPANS:
            out[f"{span}.{unit}"] = per_call(span, scale)
            out[f"{span}.calls"] = self._get(span)[0]

        linear_s = linear_flops = fwd_rows = bwd_rows = 0
        for block in BLOCKS:
            for side in ("fwd", "bwd"):
                calls, self_s, _incl, rows, flops = self._get(f"nn.{block}.{side}")
                out[f"nn.{block}.{side}_us"] = self_s / calls * 1e6 if calls else 0.0
                out[f"nn.{block}.{side}_calls"] = calls
                if side == "fwd":
                    fwd_rows += rows
                else:
                    bwd_rows += rows
                if flops:
                    linear_s += self_s
                    linear_flops += flops
        out["nn.linear_gflops"] = linear_flops / linear_s / 1e9 if linear_s else 0.0
        out["nn.fwd_rows"] = fwd_rows
        out["nn.bwd_rows"] = bwd_rows

        def incl(name):
            return self._get(name)[2]

        train_s = incl("training.train")
        shares = {
            "sampling": incl("tasks.sample_iteration_tasks"),
            "fwd_bwd": incl("model.head_loss"),
            "reduce": self._get("training.reduce")[1],
            "adam": incl("nn.adam_step"),
        }
        for phase, seconds in shares.items():
            out[f"training.share.{phase}"] = seconds / train_s if train_s else 0.0

        eval_s = incl("evaluation.evaluate")
        score_s = incl("model.score_batch")
        if not self._get("model.score_batch")[0]:
            score_s = incl("model.forward") + incl("scores.dsvdd_scores")
        shares = {
            "tasks": incl("tasks.build_contaminated_task"),
            "score": score_s,
            "auroc": incl("evaluation.auroc"),
        }
        for phase, seconds in shares.items():
            out[f"evaluation.share.{phase}"] = seconds / eval_s if eval_s else 0.0

        out["trace.spans"] = len(self.spans)
        out["trace.absent"] = len(self.absent)
        return out
