"""The etp benchmark's workloads, their operations and output checks.

Every workload builds its inputs from the seed with
``etp.data.generate_synthetic`` (vocabulary 200, 2 classes, evidence
phrases of 3-5 words, distractor rate 0.3) and hands ``etp`` only those
inputs. Training runs with early stopping off (``patience=0``), so every
run of a workload takes the same number of optimizer steps. Why each
workload exists, and which per-layer metric should move which end-to-end
metric on which workload, is written down in ``README.md`` beside this
file.

An operation is one ``run_pipeline``, ``evaluate``, ``infer`` or
``infer_many`` call. It fails when it raises, when a training stage
diverges, or when an output check below rejects its result; a failure is
counted and reported, never raised.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from etp import pipeline
from etp.data import Dataset, SyntheticSpec, Vocabulary, generate_synthetic

TASK = dict(vocab_size=200, num_classes=2, phrase_len=(3, 5), distractor_rate=0.3)
DOC_LEN = (20, 40)
N_TEST = 100
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
# The timed inference window lasts at least MIN_INFERENCE_SECONDS and
# makes at least MIN_CALLS calls of each kind; 100 per-document calls
# leave ten samples above infer_ms.p90.
MIN_INFERENCE_SECONDS = 15.0
BATCH_SIZES = (16, 64)
CALL_KINDS = ("evaluate", "infer") + tuple(f"infer_many.b{size}" for size in BATCH_SIZES)
MIN_CALLS = {"evaluate": 3, "infer": 100, "infer_many.b16": 5, "infer_many.b64": 5}
# The criterion-5 token F1 threshold, gated on token_train only. Its macro
# F1 threshold (0.95) is not gated: at this training budget the stage-2
# predictor stays at chance on some seeds (see README.md).
MIN_TOKEN_F1 = 0.80


@dataclass(frozen=True)
class Workload:
    name: str
    head: str
    n_train: int  # training documents; validation gets a tenth as many
    epochs: int
    gate_quality: bool = False


# Why each workload exists is written down in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("token_train", head="token", n_train=1000, epochs=2, gate_quality=True),
        Workload("span_train", head="span", n_train=600, epochs=2),
    )
}


def train_config(w: Workload, seed: int) -> pipeline.TrainConfig:
    return pipeline.TrainConfig(
        lam=1.0, epochs=w.epochs, patience=0, batch_size=16, seed=seed, head=w.head
    )


def _sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int):
    """(training dataset, test documents the timed inference runs on)."""
    spec = SyntheticSpec(doc_len=DOC_LEN, seed=_sub_seed(seed, 0), **TASK)
    splits, label_map = generate_synthetic(spec, w.n_train, n_test=N_TEST)
    corpus = [t for inst in splits["train"] for t in inst.document + (inst.query or [])]
    dataset = Dataset(splits=splits, label_map=label_map, vocab=Vocabulary.build(corpus))
    return dataset, splits["test"]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is fine


def check_state(state) -> list[str]:
    return [
        f"training stage {i} diverged"
        for i, history in ((1, state.stage1), (2, state.stage2))
        if history.diverged
    ]


def check_report(report, gate_quality: bool) -> list[str]:
    problems = [
        f"report value {k} is not finite"
        for k, v in _flat(report.to_dict()).items()
        if not math.isfinite(v)
    ]
    if gate_quality and report.token_f1 < MIN_TOKEN_F1:
        problems.append(f"test token F1 {report.token_f1:.4f} < {MIN_TOKEN_F1}")
    return problems


def _flat(values: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in values.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = float(value)
    return out


def check_results(results, docs) -> list[str]:
    problems = []
    for res, doc in zip(results, docs):
        n = len(doc.document)
        if len(res.rationale_mask) != n or len(res.scores) != n:
            problems.append(f"{doc.uid}: rationale does not cover the {n}-word document")
        if not (np.isfinite(res.probs).all() and np.isfinite(res.scores).all()):
            problems.append(f"{doc.uid}: non-finite probabilities or scores")
    if len(results) != len(docs):
        problems.append(f"{len(results)} results for {len(docs)} documents")
    return problems


def check_agreement(results, reference: dict) -> list[str]:
    """Labels and hard rationales must not depend on the batch size.

    ``reference`` maps a document's uid to its per-document ``infer``
    result; a document whose ``infer`` failed is skipped.
    """
    return [
        f"{res.uid}: label or rationale differs from per-document infer"
        for res in results
        if (ref := reference.get(res.uid)) is not None
        and (res.label != ref.label or not np.array_equal(res.rationale_mask, ref.rationale_mask))
    ]


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Ledger:
    """Counts operations and keeps the measured samples of one run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    def op(self, label: str, call, check=None):
        """Run one operation; return (output or None on failure, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not raised
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        problems = check(out) if check is not None else []
        if problems:
            self.fail(label, "; ".join(problems[:3]))
            return None, seconds
        return out, seconds

    def fail(self, label: str, message: str) -> None:
        """Count an operation as failed; ``op`` calls this, and so does a
        check that can only run after the operation returned."""
        self.failed += 1
        self.errors.append(f"{label}: {message}")
        print(f"perfbench: operation {label} failed: {message}", file=sys.stderr)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Aborted(Exception):
    """An operation failed that later operations depend on."""


def train(w: Workload, dataset, seed: int, ledger: Ledger):
    state, seconds = ledger.op(
        "run_pipeline", lambda: pipeline.run_pipeline(dataset, train_config(w, seed)), check_state
    )
    if state is None:
        raise Aborted("run_pipeline failed")
    ledger.add("pipeline_s", seconds)
    return state


class InferenceRun:
    """Interleaves the timed inference calls of one trained pipeline.

    The calls are of four kinds: ``evaluate`` on all documents, ``infer``
    on one document, and ``infer_many`` on 16 or on 64 documents with
    ``cfg.batch_size`` set to match (a slice that wraps around the
    document list). The kind that has used the least time so far runs
    next, so each kind gets an equal share of the window and its samples
    spread over all of it: on a machine whose speed changes every few
    seconds, every metric then sees the same mix of fast and slow
    phases.
    """

    def __init__(self, w: Workload, state, docs, ledger: Ledger):
        self.w, self.state, self.docs, self.ledger = w, state, docs, ledger
        self.sized = {  # kind -> (batch size, state whose cfg.batch_size is that size)
            f"infer_many.b{size}": (size, replace(state, cfg=replace(state.cfg, batch_size=size)))
            for size in BATCH_SIZES
        }
        self.reference = {}  # uid -> the first per-document infer result
        self.batched = []  # (label, results) of each infer_many call
        self.spent = dict.fromkeys(CALL_KINDS, 0.0)
        self.calls = dict.fromkeys(CALL_KINDS, 0)

    def run(self, seconds: float) -> None:
        """Interleave calls until ``seconds`` have passed, every kind has
        made MIN_CALLS calls and every document has been inferred alone;
        then check the batched results against the per-document ones."""
        deadline = time.perf_counter() + seconds
        while True:
            short = [k for k in CALL_KINDS if self.calls[k] < MIN_CALLS[k]]
            if self.calls["infer"] < len(self.docs):
                short.append("infer")
            late = time.perf_counter() >= deadline
            if late and not short:
                break
            self.step(min(short if late else CALL_KINDS, key=self.spent.get))
        for label, results in self.batched:
            problems = check_agreement(results, self.reference)
            if problems:
                self.ledger.fail(label, "; ".join(problems[:3]))

    def step(self, kind: str) -> None:
        start = time.perf_counter()
        if kind == "evaluate":
            self._evaluate()
        elif kind == "infer":
            self._infer(self.docs[self.calls[kind] % len(self.docs)])
        else:
            self._infer_many(kind, self.calls[kind])
        self.spent[kind] += time.perf_counter() - start
        self.calls[kind] += 1

    def _evaluate(self) -> None:
        report, seconds = self.ledger.op(
            "evaluate",
            lambda: pipeline.evaluate(self.state, self.docs),
            lambda r: check_report(r, self.w.gate_quality),
        )
        if report is not None:
            self.ledger.add("eval_s", seconds)
            self.ledger.quality = {
                "test_macro_f1": report.macro_f1,
                "test_token_f1": report.token_f1,
                "test_iou_f1": report.iou_f1,
            }

    def _infer(self, doc) -> None:
        res, seconds = self.ledger.op(
            "infer", lambda: pipeline.infer(self.state, doc), lambda r: check_results([r], [doc])
        )
        if res is not None:
            self.ledger.add("infer_ms", 1000.0 * seconds)
            self.reference.setdefault(doc.uid, res)

    def _infer_many(self, kind: str, index: int) -> None:
        size, state = self.sized[kind]
        n = len(self.docs)
        docs = [self.docs[(index * size + i) % n] for i in range(size)]
        results, seconds = self.ledger.op(
            kind, lambda: pipeline.infer_many(state, docs), lambda r: check_results(r, docs)
        )
        if results is not None:
            self.ledger.add(f"infer_docs_per_s.b{size}", size / seconds)
            self.batched.append((kind, results))


def timed_part(w: Workload, dataset, docs, seed: int, ledger: Ledger, seconds: float) -> None:
    """Train, then run inference calls for the rest of ``seconds``.

    Inference runs for at least MIN_INFERENCE_SECONDS. With ``seconds``
    0 it makes exactly the MIN_CALLS calls of each kind, so that a traced
    run does the same work on every machine.
    """
    start = time.perf_counter()
    state = train(w, dataset, seed, ledger)
    if seconds > 0:
        seconds = max(start + seconds - time.perf_counter(), MIN_INFERENCE_SECONDS)
    InferenceRun(w, state, docs, ledger).run(seconds)


def setup(w: Workload, seed: int, ledger: Ledger):
    """Build the inputs repeatedly; return the last (dataset, test documents).

    Set-up runs at least SETUP_REPEATS times and for at least
    SETUP_MIN_SECONDS; ``setup_s`` is the median.
    """
    times = ledger.samples.setdefault("setup_s", [])
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        dataset, docs = make_inputs(w, seed)
        times.append(time.perf_counter() - start)
    return dataset, docs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(ledger: Ledger) -> dict:
    """``{name: (value, unit)}`` for every metric that has samples.

    Each timing is the median of its samples; infer_ms.p50 and .p90 are
    taken over every per-document ``infer`` call of the run.
    """
    s = ledger.samples
    out = {}
    for name in ("setup_s", "pipeline_s", "eval_s"):
        if s.get(name):
            out[name] = (statistics.median(s[name]), "s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if s.get("infer_ms"):
        out["infer_ms.p50"] = (statistics.median(s["infer_ms"]), "ms")
        out["infer_ms.p90"] = (float(np.percentile(s["infer_ms"], 90)), "ms")
    for size in BATCH_SIZES:
        name = f"infer_docs_per_s.b{size}"
        if s.get(name):
            out[name] = (statistics.median(s[name]), "docs/s")
    return out
