"""Span tracing of lfsearch from outside the package.

Wrappers are patched over public functions of the lfsearch modules, under
every name each function is bound to (the package imports with
`from .x import y`, so one function can live in several module namespaces).
Each call records a span (name, start, end, parent) in memory; self time is
a span's duration minus the durations of its direct children. Work counts
(FLOPs, bytes, rows, pairs) are computed from argument shapes and sizes, not
measured by hardware counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# ---------------------------------------------------------------------------
# work formulas (pure functions of shapes and sizes)


def mlp_flops(batch: int, layer_shapes) -> int:
    """Matmul FLOPs of x @ W.T over a stack of (out, in) weight shapes."""
    return 2 * batch * sum(rows * cols for rows, cols in layer_shapes)


def forward_flops(batch: int, layer_shapes, classes: int) -> int:
    """Backbone matmuls plus the (N, d) x (d, K) cosine matmul."""
    embedding = layer_shapes[-1][0]
    return mlp_flops(batch, layer_shapes) + 2 * batch * embedding * classes


def backward_flops(batch: int, layer_shapes, classes: int) -> int:
    """Head gradients (dcos @ W_head and dcos.T @ emb), every weight gradient,
    and the input gradient of every layer but the first."""
    embedding = layer_shapes[-1][0]
    head = 4 * batch * classes * embedding
    return head + mlp_flops(batch, layer_shapes) + mlp_flops(batch, layer_shapes[1:])


def sgd_step_bytes(param_bytes: int) -> int:
    """Least traffic of a momentum step: read parameter, velocity and gradient,
    write parameter and velocity."""
    return 5 * param_bytes


def enumerated_pairs(samples: int) -> int:
    """Unordered index pairs among `samples` items, n(n-1)/2."""
    return samples * (samples - 1) // 2


# ---------------------------------------------------------------------------
# per-call work extractors: (args, kwargs, result) -> {counter: amount}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _weight_shapes(model):
    return [w.shape for w in model.weights]


def _forward_work(args, kwargs, _result):
    model, head = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "head")
    batch = _arg(args, kwargs, 2, "batch")
    return {"flops": forward_flops(len(batch), _weight_shapes(model),
                                   head.class_weights.shape[0])}


def _backward_work(args, kwargs, _result):
    cache = _arg(args, kwargs, 0, "cache")
    batch, classes = _arg(args, kwargs, 1, "d_cosines").shape
    return {"flops": backward_flops(batch, _weight_shapes(cache.model), classes)}


def _embed_work(args, kwargs, _result):
    model, batch = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "batch")
    return {"flops": mlp_flops(len(batch), _weight_shapes(model))}


def _sgd_step_work(args, kwargs, _result):
    state = _arg(args, kwargs, 0, "state")
    arrays = [*state.model.weights, *state.model.biases, state.head.class_weights]
    return {"bytes": sgd_step_bytes(sum(a.nbytes for a in arrays))}


def _make_pairs_work(args, kwargs, _result):
    dataset = _arg(args, kwargs, 0, "dataset")
    return {"kept": _arg(args, kwargs, 1, "n_pairs"),
            "enumerated": enumerated_pairs(dataset.sample_count)}


def _write_checkpoint_work(args, kwargs, _result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_xy_csv_work(args, kwargs, _result):
    return {"rows": len(_arg(args, kwargs, 1, "points"))}


# (module, attribute path, work extractor or None). Which end-to-end metric
# each should move, and on which workload, is tabled in perfbench/README.md.
LAYERS = (
    ("embed_model", "forward", _forward_work),
    ("embed_model", "backward", _backward_work),
    ("embed_model", "embed", _embed_work),
    ("margin_losses", "batch_loss_and_grad", None),
    ("sgd_trainer", "sgd_step", _sgd_step_work),
    ("sgd_trainer", "train_epoch", None),
    ("sgd_trainer", "train_candidates", None),
    ("search_engine", "run_search", None),
    ("eval_protocols", "reward", None),
    ("eval_protocols", "embed_all", None),
    ("eval_protocols", "pair_similarities", None),
    ("eval_protocols", "verification_accuracy", None),
    ("eval_protocols", "classification_accuracy", None),
    ("eval_protocols", "rank1_identification", None),
    ("datasets", "generate_synthetic", None),
    ("datasets", "load_flat_file", None),
    ("datasets", "split_open_set", None),
    ("datasets", "split_closed_set", None),
    ("datasets", "make_pairs", _make_pairs_work),
    ("checkpoint", "param_digest", None),
    ("checkpoint", "write_checkpoint", _write_checkpoint_work),
    ("runio", "MetricsWriter.write", None),
    ("runio", "write_xy_csv", _write_xy_csv_work),
    ("config", "from_dict", None),
    ("cli", "main", None),
)

# Derived per-layer stats: (stat, unit, function of the layer's counters and
# self seconds). A stat whose counters are missing is left out.
_FLOP_RATE = ("gflops", "GFLOP/s",
              lambda c, self_s: c["flops"] / self_s / 1e9 if self_s > 0 else 0.0)
DERIVED = {
    "embed_model.forward": (_FLOP_RATE,),
    "embed_model.backward": (_FLOP_RATE,),
    "embed_model.embed": (_FLOP_RATE,),
    "sgd_trainer.sgd_step": (("bytes", "B", lambda c, _s: c["bytes"]),),
    "datasets.make_pairs": (("kept_ratio", "ratio",
                             lambda c, _s: c["kept"] / c["enumerated"]
                             if c["enumerated"] else 0.0),),
    "checkpoint.write_checkpoint": (("bytes", "B", lambda c, _s: c["bytes"]),),
    "runio.write_xy_csv": (("rows", "count", lambda c, _s: c["rows"]),),
}


def metric_units():
    """Every per-layer metric name the tracer can report, with its unit."""
    units = {}
    for module, attr, _work in LAYERS:
        name = f"{module}.{attr}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        for stat, unit, _ in DERIVED.get(name, ()):
            units[f"{name}.{stat}"] = unit
    return units


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = {}  # name -> {counter: total}
        self.work_errors = {}  # name -> first error text of its extractor
        self._open = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if work is not None:
                self._count(name, work, args, kwargs, result)
            return result

        return traced

    def _count(self, name, work, args, kwargs, result):
        # A later signature change must cost a derived stat, never the run.
        try:
            amounts = work(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                OSError) as exc:
            self.work_errors.setdefault(name, f"{type(exc).__name__}: {exc}")
            return
        totals = self.counters.setdefault(name, {})
        for key, amount in amounts.items():
            totals[key] = totals.get(key, 0) + amount


def self_times(spans) -> dict:
    """name -> (calls, self seconds); self = duration minus direct children."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        calls, own = out.get(name, (0, 0.0))
        out[name] = (calls + 1, own + (end - start) - child_time[index])
    return out


def layer_metrics(tracer: Tracer, installed) -> dict:
    """Per-layer metric values for every installed layer, called or not."""
    times = self_times(tracer.spans)
    metrics = {}
    for name in installed:
        calls, own = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = own * 1e3
        counters = tracer.counters.get(name)
        for stat, _unit, derive in DERIVED.get(name, ()):
            if calls == 0:
                metrics[f"{name}.{stat}"] = 0.0
            elif counters is not None:
                metrics[f"{name}.{stat}"] = derive(counters, own)
    return metrics


# ---------------------------------------------------------------------------
# patching


def _resolve(module, attr_path):
    owner = module
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer, package: str = "lfsearch") -> list:
    """Patch every LAYERS entry that exists; return the names patched.

    A module or function that no longer exists is skipped, so it yields an
    absent metric rather than a failed run.
    """
    installed = []
    for module_name, attr_path, work in LAYERS:
        try:
            module = importlib.import_module(f"{package}.{module_name}")
            owner, leaf = _resolve(module, attr_path)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            continue
        wrapper = tracer.wrap(f"{module_name}.{attr_path}", original, work)
        setattr(owner, leaf, wrapper)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == package
                                      or loaded_name.startswith(package + ".")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapper)
        installed.append(f"{module_name}.{attr_path}")
    return installed
