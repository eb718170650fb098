"""Span tracing of etp's layers, done from outside the program.

:class:`Tracer` replaces public functions of the ``etp`` modules with thin
wrappers that record one span (name, start, end, parent) per call. Each
wrapper is installed at the name its callers resolve at call time, so
``etp.pipeline.batchify`` is wrapped (the pipeline imported that name),
not ``etp.data.batchify``; autodiff ops are wrapped at
``etp.autodiff.<op>``, which models and losses call as ``ad.<op>``. Every
graph node a wrapped op returns also gets its backward rule wrapped, so
``Tape.backward`` shows per-op backward spans as its children.

Spans stay in memory until the run ends. A layer is the first component
of a span name (``rnn.gru_run.fwd`` belongs to ``rnn``); its self time is
the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("pipeline", "models", "rnn", "autodiff", "losses", "optim", "data", "metrics")

# Op kinds whose forward and backward times are reported one by one; the
# other ops still count toward the autodiff layer's self time.
OP_KINDS = (
    "matmul",
    "add",
    "mul",
    "concat",
    "take_rows",
    "transpose",
    "softmax",
    "embedding",
    "sigmoid",
    "sum",
    "log",
    "clip_min",
    "pick",
    "reshape",
)

PIPELINE_PHASES = {
    "train_explainer": "train_explainer",
    "filter": "filter_training_instances",
    "mask": "build_masked_dataset",
    "train_predictor": "train_predictor",
    "evaluate": "evaluate",
    "infer_many": "infer_many",
    "faithfulness": "faithfulness",
}

EXPLANATION_LOSSES = (
    "token_explanation_loss",
    "span_start_loss",
    "span_end_loss",
    "span_total_loss",
)

_MARK = "_perfbench_traced"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counters while its wrappers are installed.

    Use as a context manager; leaving it restores every wrapped name to
    the original object, also when the traced code raised.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, hook=None, backward_name: str | None = None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(args, kwargs, result)`` runs after the span closes and may
        update ``self.counters``. With ``backward_name``, a returned graph
        node's backward rule is wrapped in a span of that name.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if backward_name is not None:
                rule = getattr(result, "_backward", None)
                # dropout(p=0) hands back its input, whose rule may be wrapped already
                if rule is not None and not getattr(rule, _MARK, False):
                    result._backward = tracer.wrap(rule, backward_name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # ------------------------------------------------------------------
    # installing and restoring

    def _replace(self, owner, attr: str, name: str, hook=None, backward_name=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, hook, backward_name))

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, name, hook, backward_name in _targets(self.counters):
                self._replace(owner, attr, name, hook, backward_name)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.uninstall()
        return False


def _targets(counters: Counter):
    """(owner, attribute, span name, hook, backward span name) for every wrapper."""
    from etp import autodiff, losses, metrics, models, optim, pipeline, rnn

    def arguments(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments

    gru_run_args = arguments(rnn.gru_run)
    encode_args = arguments(models._EncoderClassifier.encode)
    batchify_args = arguments(pipeline.batchify)
    filter_args = arguments(pipeline.filter_training_instances)

    def count_gru_run(args, kwargs, result):
        bound = gru_run_args(args, kwargs)
        steps, batch = bound["seq_len"], bound["batch"]
        counters["rnn.gru_run.steps"] += steps
        counters["rnn.gru_run.slots"] += steps * batch
        mask = bound.get("step_mask")
        if mask is not None:
            counters["rnn.gru_run.padded"] += steps * batch - float(mask.sum())

    def count_encode(args, kwargs, result):
        mode = "train" if autodiff.Tape.current is not None else "eval"
        counters[f"models.encode_docs.{mode}"] += len(encode_args(args, kwargs)["ids"])

    def count_backward(args, kwargs, result):
        counters["autodiff.tape_nodes"] += len(args[0].nodes)

    def count_batchify(args, kwargs, result):
        counters["data.batchify_docs"] += len(batchify_args(args, kwargs)["instances"])

    def count_filter(args, kwargs, result):
        counters["pipeline.filter_total"] += len(filter_args(args, kwargs)["instances"])
        counters["pipeline.filter_kept"] += len(result)

    out = []
    for attr in ("run_pipeline", "infer", "train_explainer", "train_predictor", "evaluate",
                 "infer_many", "faithfulness", "build_masked_dataset"):
        out.append((pipeline, attr, f"pipeline.{attr}", None, None))
    out.append((pipeline, "filter_training_instances", "pipeline.filter_training_instances",
                count_filter, None))
    out.append((pipeline, "batchify", "data.batchify", count_batchify, None))
    for attr in ("pool_subtokens", "decode_spans", "mask_input", "word_spans_to_subtokens",
                 "subtoken_spans_to_words"):
        out.append((pipeline, attr, f"models.{attr}", None, None))
    base, explainer = models._EncoderClassifier, models.ExplainerModel
    out.append((base, "encode", "models.encode", count_encode, None))
    out.append((base, "predict_task", "models.predict_task", None, None))
    out.append((explainer, "explain_tokens", "models.explain_tokens", None, None))
    out.append((explainer, "explain_spans", "models.explain_spans", None, None))
    out.append((rnn, "bigru", "rnn.bigru", None, None))
    out.append((rnn, "gru_sequence", "rnn.gru_sequence", None, None))
    out.append((rnn, "gru_run", "rnn.gru_run.fwd", count_gru_run, "rnn.gru_run.bwd"))
    for kind, fn in autodiff.OPS.items():
        if fn.__module__ == autodiff.__name__:
            out.append((autodiff, fn.__name__, f"autodiff.op.{kind}.fwd", None,
                        f"autodiff.op.{kind}.bwd"))
    out.append((autodiff.Tape, "backward", "autodiff.Tape.backward", count_backward, None))
    for attr in ("task_loss", "combined_loss") + EXPLANATION_LOSSES:
        out.append((losses, attr, f"losses.{attr}", None, None))
    out.append((optim.Adam, "step", "optim.Adam.step", None, None))
    out.append((optim.Adam, "zero_grad", "optim.Adam.zero_grad", None, None))
    for attr in ("macro_f1", "token_prf_dataset", "iou_f1_dataset", "auprc_dataset",
                 "explanation_statistics", "mask_to_spans", "spans_to_mask"):
        out.append((metrics, attr, f"metrics.{attr}", None, None))
    return out


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans) -> tuple[dict, dict, dict]:
    """Aggregate ``(name, start, end, parent)`` spans.

    Returns ``(by_name, layer_self, layer_outer)``: ``by_name[name]`` is
    ``[inclusive seconds, calls, self seconds]``, where inclusive time
    counts only spans with no ancestor of the same name; ``layer_self``
    is each layer's total self time; ``layer_outer`` is each layer's
    inclusive time over spans with no ancestor in the same layer.

    Spans must be listed in the order they opened (parents before their
    children). Children of one span are taken not to overlap, which holds
    for synchronous calls in one thread.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    by_name: dict[str, list] = {}
    layer_self: dict[str, float] = defaultdict(float)
    layer_outer: dict[str, float] = defaultdict(float)
    stack: list[int] = []
    open_names: Counter = Counter()
    open_layers: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        while stack and stack[-1] != parent:
            done = spans[stack.pop()][0]
            open_names[done] -= 1
            open_layers[_layer(done)] -= 1
        layer = _layer(name)
        dur = end - start
        own = max(dur - covered[i], 0.0)
        entry = by_name.setdefault(name, [0.0, 0, 0.0])
        entry[1] += 1
        entry[2] += own
        layer_self[layer] += own
        if open_names[name] == 0:
            entry[0] += dur
        if open_layers[layer] == 0:
            layer_outer[layer] += dur
        stack.append(i)
        open_names[name] += 1
        open_layers[layer] += 1
    return by_name, dict(layer_self), dict(layer_outer)


def per_layer_metrics(spans, counters: Counter, untraced_s: float, traced_s: float) -> dict:
    """The benchmark's per-layer metrics as ``{name: (value, unit)}``."""
    by_name, layer_self, layer_outer = summarize(spans)

    def total(name):
        return by_name.get(name, (0.0, 0, 0.0))[0]

    def calls(name):
        return by_name.get(name, (0.0, 0, 0.0))[1]

    out = {}
    slots = counters["rnn.gru_run.slots"]
    out["rnn.gru_run.fwd_s"] = (total("rnn.gru_run.fwd"), "s")
    out["rnn.gru_run.bwd_s"] = (total("rnn.gru_run.bwd"), "s")
    out["rnn.gru_run.calls"] = (calls("rnn.gru_run.fwd"), "count")
    out["rnn.gru_run.steps"] = (counters["rnn.gru_run.steps"], "count")
    out["rnn.gru_run.padded_frac"] = (counters["rnn.gru_run.padded"] / slots if slots else 0.0,
                                      "fraction")
    out["autodiff.backward_s"] = (total("autodiff.Tape.backward"), "s")
    out["autodiff.tape_nodes"] = (counters["autodiff.tape_nodes"], "count")
    for kind in OP_KINDS:
        out[f"autodiff.op.{kind}.fwd_s"] = (total(f"autodiff.op.{kind}.fwd"), "s")
        out[f"autodiff.op.{kind}.bwd_s"] = (total(f"autodiff.op.{kind}.bwd"), "s")
        out[f"autodiff.op.{kind}.calls"] = (calls(f"autodiff.op.{kind}.fwd"), "count")
    out["models.encode_s"] = (total("models.encode"), "s")
    out["models.encode_docs.train"] = (counters["models.encode_docs.train"], "count")
    out["models.encode_docs.eval"] = (counters["models.encode_docs.eval"], "count")
    for attr in ("explain_tokens", "explain_spans", "predict_task"):
        out[f"models.{attr}_s"] = (total(f"models.{attr}"), "s")
    for phase, attr in PIPELINE_PHASES.items():
        out[f"pipeline.{phase}_s"] = (total(f"pipeline.{attr}"), "s")
    seen = counters["pipeline.filter_total"]
    out["pipeline.filter_keep_ratio"] = (
        counters["pipeline.filter_kept"] / seen if seen else 0.0, "fraction")
    out["losses.task_s"] = (total("losses.task_loss"), "s")
    out["losses.explanation_s"] = (sum(total(f"losses.{a}") for a in EXPLANATION_LOSSES), "s")
    out["optim.adam_step_s"] = (total("optim.Adam.step"), "s")
    out["optim.steps"] = (calls("optim.Adam.step"), "count")
    out["data.batchify_s"] = (total("data.batchify"), "s")
    out["data.batchify_docs"] = (counters["data.batchify_docs"], "count")
    out["metrics.score_s"] = (layer_outer.get("metrics", 0.0), "s")
    for layer in LAYERS + ("bench",):
        out[f"self.{layer}_s"] = (layer_self.get(layer, 0.0), "s")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
