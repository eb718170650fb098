"""Dataset ingestion, vocabulary, batching, and the synthetic
planted-rationale task generator.

The on-disk dataset format is one JSONL file per split, each line::

    {"id": "train-00001", "document": ["w1", ...], "query": null,
     "label": 0, "evidences": [{"start_token": 3, "end_token": 7}]}

``document`` and ``query`` are whitespace-level tokens, ``label`` may be
a string or an integer, and ``evidences`` are half-open token intervals
over the document. Labels are mapped to contiguous class indices
through a stable label map saved alongside the data (numeric labels
sort numerically, anything else lexicographically).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .metrics import normalize_spans, spans_to_mask

__all__ = [
    "DataError",
    "Instance",
    "Vocabulary",
    "SyntheticSpec",
    "Batch",
    "SUBTOKEN_MODES",
    "subtokenize",
    "check_layout",
    "build_label_map",
    "save_label_map",
    "load_label_map",
    "read_json_objects",
    "load_jsonl",
    "save_jsonl",
    "generate_synthetic",
    "build_vocab",
    "write_dataset",
    "load_dataset",
    "Layout",
    "lay_out",
    "pack",
    "batchify",
]


class DataError(ValueError):
    """Malformed dataset content; message carries line/instance context."""


@dataclass
class Instance:
    """One task example: document tokens, optional query, label, gold rationale."""

    uid: str
    document: list[str]
    query: list[str] | None
    label: int
    label_raw: str | int
    rationale_mask: np.ndarray
    rationale_spans: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_spans(cls, uid, document, query, label, label_raw, spans) -> "Instance":
        """The instance whose gold rationale is ``spans``: they are
        normalized, and the mask is built from them, so the two agree."""
        if not document:
            raise DataError(f"instance {uid}: empty document")
        try:
            spans = normalize_spans(spans)
            mask = spans_to_mask(spans, len(document))
        except ValueError as exc:
            raise DataError(f"instance {uid}: {exc}") from None
        return cls(uid, list(document), query, label, label_raw, mask, spans)


class Vocabulary:
    """Closed token vocabulary with reserved pad/separator/wildcard/unknown ids.

    The token list order defines ids; the four reserved tokens always
    come first, so their ids are stable across save/load.
    """

    PAD = "<pad>"
    SEP = "<sep>"
    UNK = "<unk>"
    N_RESERVED = 4
    pad_id, sep_id, wildcard_id, unk_id = range(N_RESERVED)

    def __init__(self, tokens: list[str]):
        if len(tokens) < self.N_RESERVED:
            raise DataError("vocabulary must start with the 4 reserved tokens")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary contains duplicate tokens")
        for t in tokens:
            if "\n" in t or not t:
                raise DataError(f"token {t!r} cannot be serialized one-per-line")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if tokens[0] != self.PAD or tokens[1] != self.SEP or tokens[3] != self.UNK:
            raise DataError("reserved vocabulary slots are corrupted")

    @property
    def wildcard(self) -> str:
        return self.tokens[self.wildcard_id]

    @classmethod
    def build(cls, corpus_tokens, wildcard: str = ".") -> "Vocabulary":
        reserved = [cls.PAD, cls.SEP, wildcard, cls.UNK]
        if len(set(reserved)) != 4:
            raise DataError(f"wildcard {wildcard!r} collides with a reserved token")
        rest = sorted(set(corpus_tokens) - set(reserved))
        return cls(reserved + rest)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> np.ndarray:
        unk = self.unk_id
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.int64)

    def digest(self) -> str:
        """A digest of the token list alone: equal lists give equal digests."""
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        Path(path).write_bytes(("\n".join(self.tokens) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        r"""Read back what :meth:`save` wrote: lines end at ``\n`` alone, so
        a token holding ``\r``, ``\x85`` or another line break survives."""
        lines = Path(path).read_bytes().decode("utf-8").split("\n")
        return cls([ln for ln in lines if ln])


SUBTOKEN_MODES = ("word", "char_bigram")


def subtokenize(word: str, mode: str = "word") -> list[str]:
    """Split one word into sub-tokens.

    ``word`` keeps words whole; ``char_bigram`` splits into overlapping
    character bigrams (words of length <= 2 stay whole), which gives the
    word-level score pooling something real to merge.
    """
    if mode not in SUBTOKEN_MODES:
        raise DataError(f"unknown subtoken mode {mode!r}; expected one of {SUBTOKEN_MODES}")
    if mode == "char_bigram" and len(word) > 2:
        return [word[i : i + 2] for i in range(len(word) - 1)]
    return [word]


def check_layout(max_len: int, mode: str) -> None:
    """Raise DataError unless documents can be laid out under these settings."""
    subtokenize("", mode)  # raises on an unknown mode
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")


# ---------------------------------------------------------------------------
# label maps and JSONL I/O


def build_label_map(raw_labels) -> dict[str, int]:
    """Stable raw-label -> class-index map (numeric-aware ordering)."""
    keys = sorted({str(r) for r in raw_labels})
    try:
        keys.sort(key=int)
    except ValueError:
        pass
    return {k: i for i, k in enumerate(keys)}


def save_label_map(path, label_map: dict[str, int]) -> None:
    Path(path).write_text(json.dumps(label_map, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_label_map(path) -> dict[str, int]:
    """A label map: a JSON object whose integer values are exactly 0 .. k-1."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc.msg})") from None
    if not (isinstance(obj, dict) and all(type(v) is int for v in obj.values())
            and sorted(obj.values()) == list(range(len(obj)))):
        raise DataError(f"{path}: labels must map each raw label to a class 0 .. k-1")
    return obj


def read_json_objects(path):
    """Yield (line number, object) for every nonblank line of a JSONL
    file; a line that is not a JSON object raises DataError naming
    ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: line is not a JSON object")
            yield lineno, obj


def _parse_line(obj: dict, lineno: int, path: str) -> tuple:
    def fail(msg: str):
        raise DataError(f"{path}:{lineno}: {msg}")

    for key in ("id", "document", "label", "evidences"):
        if key not in obj:
            fail(f"missing field {key!r}")
    uid = obj["id"]
    doc = obj["document"]
    query = obj.get("query")
    if not isinstance(uid, str) or not uid:
        fail("'id' must be a non-empty string")
    if not isinstance(doc, list) or not doc or not all(isinstance(t, str) for t in doc):
        fail("'document' must be a non-empty array of strings")
    if query is not None and (
        not isinstance(query, list) or not all(isinstance(t, str) for t in query)
    ):
        fail("'query' must be null or an array of strings")
    if not isinstance(obj["label"], (str, int)) or isinstance(obj["label"], bool):
        fail("'label' must be a string or integer")
    spans = []
    if not isinstance(obj["evidences"], list):
        fail("'evidences' must be an array")
    for ev in obj["evidences"]:
        if not isinstance(ev, dict) or "start_token" not in ev or "end_token" not in ev:
            fail("each evidence needs 'start_token' and 'end_token'")
        s, e = ev["start_token"], ev["end_token"]
        if type(s) is not int or type(e) is not int:  # a bool is an int
            fail(f"instance {uid}: evidence offsets must be integers")
        if not 0 <= s < e <= len(doc):
            fail(f"instance {uid}: span ({s}, {e}) is empty, inverted or outside [0, {len(doc)}]")
        spans.append((s, e))
    return uid, doc, query, obj["label"], spans


def load_jsonl(path, label_map: dict[str, int] | None = None):
    """Load one split; returns (instances, label_map).

    When ``label_map`` is None a stable map is built from the labels
    seen in this file and returned for reuse on the other splits.
    """
    path = Path(path)
    parsed = [_parse_line(obj, lineno, str(path)) for lineno, obj in read_json_objects(path)]
    if label_map is None:
        label_map = build_label_map(raw for _, _, _, raw, _ in parsed)
    instances = []
    for uid, doc, query, raw, spans in parsed:
        key = str(raw)
        if key not in label_map:
            raise DataError(f"{path}: instance {uid}: label {raw!r} not in label map")
        instances.append(Instance.from_spans(uid, doc, query, label_map[key], raw, spans))
    return instances, label_map


def save_jsonl(path, instances) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for inst in instances:
            obj = {
                "id": inst.uid,
                "document": inst.document,
                "query": inst.query,
                "label": inst.label_raw,
                "evidences": [{"start_token": s, "end_token": e} for s, e in inst.rationale_spans],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# synthetic planted-rationale task


@dataclass
class SyntheticSpec:
    """Parameters of the generated classification-with-rationales task.

    Every document is neutral filler with exactly one planted evidence
    phrase of contiguous class-specific tokens; the gold rationale is
    that phrase and nothing else. Distractor phrases from other classes
    are always strictly shorter than the instance's evidence phrase, so
    the label stays identifiable from the document alone.
    """

    vocab_size: int = 200
    num_classes: int = 2
    doc_len: tuple[int, int] = (20, 40)
    phrase_len: tuple[int, int] = (3, 5)
    distractor_rate: float = 0.3
    pair_task: bool = False
    seed: int = 0

    def validate(self) -> "SyntheticSpec":
        if self.num_classes < 2:
            raise DataError("need at least 2 classes")
        if not (1 <= self.doc_len[0] <= self.doc_len[1]):
            raise DataError(f"bad doc length range {self.doc_len}")
        if not (1 <= self.phrase_len[0] <= self.phrase_len[1] <= self.doc_len[0]):
            raise DataError(
                f"phrase length range {self.phrase_len} must fit the minimum document "
                f"length {self.doc_len[0]}"
            )
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise DataError(f"bad distractor rate {self.distractor_rate}")
        self.pools()
        return self

    def pools(self):
        """Partition the vocabulary into neutral / per-class / query tokens."""
        per_class = self.vocab_size // (2 * self.num_classes)
        n_query = self.num_classes if self.pair_task else 0
        n_neutral = self.vocab_size - per_class * self.num_classes - n_query
        if per_class < 1 or n_neutral < 1:
            raise DataError(f"vocab size {self.vocab_size} too small for {self.num_classes} classes")
        neutral = np.array([f"w{i:04d}" for i in range(n_neutral)])
        class_pools = [
            np.array([f"k{c}x{i:03d}" for i in range(per_class)]) for c in range(self.num_classes)
        ]
        query_tokens = [f"q{c}" for c in range(self.num_classes)]
        return neutral, class_pools, query_tokens

    def label_names(self) -> list[str]:
        if self.pair_task:
            return ["refuted", "supported"]
        return [str(c) for c in range(self.num_classes)]


def _gen_instance(rng: np.random.Generator, spec: SyntheticSpec, pools, uid: str) -> Instance:
    neutral, class_pools, query_tokens = pools
    lo, hi = spec.doc_len
    length = int(rng.integers(lo, hi + 1))
    doc = list(rng.choice(neutral, size=length))
    cls = int(rng.integers(spec.num_classes))
    plen = int(rng.integers(spec.phrase_len[0], spec.phrase_len[1] + 1))
    start = int(rng.integers(0, length - plen + 1))
    doc[start : start + plen] = list(rng.choice(class_pools[cls], size=plen))

    if spec.distractor_rate > 0 and plen > 1 and rng.random() < spec.distractor_rate:
        dlen = int(rng.integers(1, plen))
        candidates = [
            x for x in range(length - dlen + 1) if x + dlen <= start or x >= start + plen
        ]
        if candidates:
            dstart = candidates[int(rng.integers(len(candidates)))]
            other = int(rng.integers(spec.num_classes - 1))
            other += other >= cls
            doc[dstart : dstart + dlen] = list(rng.choice(class_pools[other], size=dlen))

    if spec.pair_task:
        if rng.random() < 0.5:
            qcls = cls
        else:
            qcls = int(rng.integers(spec.num_classes - 1))
            qcls += qcls >= cls
        query = [query_tokens[qcls]]
        raw = "supported" if qcls == cls else "refuted"
        label = 1 if raw == "supported" else 0
    else:
        query, raw, label = None, cls, cls
    return Instance.from_spans(uid, doc, query, label, raw, [(start, start + plen)])


def generate_synthetic(spec: SyntheticSpec, n: int, n_val: int | None = None, n_test: int | None = None):
    """Generate train/val/test splits; returns (splits dict, label_map).

    Validation and test default to n // 10 instances each. All splits
    come from one seeded stream, so a fixed seed fixes the dataset.
    """
    spec.validate()
    if n < 1:
        raise DataError("need at least one training instance")
    n_val = max(1, n // 10) if n_val is None else n_val
    n_test = max(1, n // 10) if n_test is None else n_test
    rng = np.random.default_rng(spec.seed)
    pools = spec.pools()
    splits: dict[str, list[Instance]] = {}
    for name, count in (("train", n), ("val", n_val), ("test", n_test)):
        splits[name] = [
            _gen_instance(rng, spec, pools, f"{name}-{i:05d}") for i in range(count)
        ]
    label_map = build_label_map(spec.label_names())
    return splits, label_map


# ---------------------------------------------------------------------------
# dataset directories


def build_vocab(instances, wildcard: str = ".", mode: str = "word") -> Vocabulary:
    """The vocabulary of the sub-tokens of the instances' documents and queries."""
    corpus = [
        sub
        for inst in instances
        for word in inst.document + (inst.query or [])
        for sub in subtokenize(word, mode)
    ]
    return Vocabulary.build(corpus, wildcard=wildcard)


def write_dataset(outdir, splits: dict, label_map: dict[str, int], wildcard: str = ".") -> None:
    """Write split JSONLs, the training-split vocabulary, and the label map."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, instances in splits.items():
        save_jsonl(outdir / f"{name}.jsonl", instances)
    build_vocab(splits["train"], wildcard).save(outdir / "vocab.txt")
    save_label_map(outdir / "labels.json", label_map)


@dataclass
class Dataset:
    splits: dict[str, list[Instance]]
    label_map: dict[str, int]
    vocab: Vocabulary

    @property
    def num_classes(self) -> int:
        return len(self.label_map)


def load_dataset(datadir) -> Dataset:
    datadir = Path(datadir)
    labels_path = datadir / "labels.json"
    label_map = load_label_map(labels_path) if labels_path.exists() else None
    splits = {}
    for name in ("train", "val", "test"):
        path = datadir / f"{name}.jsonl"
        if path.exists():
            splits[name], label_map = load_jsonl(path, label_map)
    if "train" not in splits:
        raise DataError(f"{datadir}: no train.jsonl found")
    vocab_path = datadir / "vocab.txt"
    vocab = Vocabulary.load(vocab_path) if vocab_path.exists() else build_vocab(splits["train"])
    return Dataset(splits=splits, label_map=label_map, vocab=vocab)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """A padded batch plus the index structure the heads and losses need.

    ``ids``/``pad_mask``/``doc_mask`` are (B, T); sequence layout per row
    is [query, separator, document] for pair tasks, else just the
    document. ``doc_row_index[i]`` addresses row i's document
    sub-tokens inside time-major (T*B, .) activation matrices, and
    ``layouts[i]`` is the layout packed into row i.
    """

    ids: np.ndarray
    pad_mask: np.ndarray
    doc_mask: np.ndarray
    labels: np.ndarray
    doc_start: np.ndarray
    doc_sublen: np.ndarray
    doc_row_index: list[np.ndarray]
    layouts: list[Layout]

    @property
    def size(self) -> int:
        return self.ids.shape[0]


@dataclass
class Layout:
    """One instance as the network reads it, before padding.

    ``ids`` is the [query, separator, document] sub-token id sequence
    (just the document without a query), the document starting at
    ``doc_start``. ``word_groups`` are the kept words' sub-token ranges
    inside the document.
    """

    instance: Instance
    ids: np.ndarray
    doc_start: int
    word_groups: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.ids)


def _layout_instance(inst: Instance, vocab: Vocabulary, max_len: int, mode: str) -> Layout:
    tokens = [sub for w in inst.query or () for sub in subtokenize(w, mode)]
    tokens += [] if inst.query is None else [vocab.SEP]
    doc_start = len(tokens)
    if doc_start >= max_len:
        raise DataError(f"instance {inst.uid}: query alone fills the {max_len}-token budget")
    groups = []
    for w in inst.document:
        subs = subtokenize(w, mode)
        if len(tokens) + len(subs) > max_len:
            break
        groups.append((len(tokens) - doc_start, len(tokens) + len(subs) - doc_start))
        tokens.extend(subs)
    if not groups:
        raise DataError(f"instance {inst.uid}: first document word does not fit the budget")
    return Layout(inst, vocab.encode(tokens), doc_start, groups)


def lay_out(
    instances, vocab: Vocabulary, max_len: int = 512, subtoken_mode: str = "word"
) -> list[Layout]:
    """Lay each instance out once; :func:`pack` then batches the layouts
    in any order without touching the tokens again."""
    return [_layout_instance(inst, vocab, max_len, subtoken_mode) for inst in instances]


def pack(layouts, batch_size: int) -> list[Batch]:
    """Pack layouts (in the given order) into batches padded to their longest."""
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    batches = []
    for lo in range(0, len(layouts), batch_size):
        chunk = layouts[lo : lo + batch_size]
        bsz = len(chunk)
        seq_len = max(map(len, chunk))
        ids = np.full((bsz, seq_len), Vocabulary.pad_id, dtype=np.int64)
        pad_mask = np.zeros((bsz, seq_len))
        doc_mask = np.zeros((bsz, seq_len))
        for b, lay in enumerate(chunk):
            ids[b, : len(lay)] = lay.ids
            pad_mask[b, : len(lay)] = 1.0
            doc_mask[b, lay.doc_start : len(lay)] = 1.0
        doc_start = np.array([lay.doc_start for lay in chunk], dtype=np.int64)
        batches.append(
            Batch(
                ids=ids,
                pad_mask=pad_mask,
                doc_mask=doc_mask,
                labels=np.array([lay.instance.label for lay in chunk], dtype=np.int64),
                doc_start=doc_start,
                doc_sublen=np.array([len(lay) for lay in chunk], dtype=np.int64) - doc_start,
                doc_row_index=[
                    np.arange(lay.doc_start, len(lay)) * bsz + b for b, lay in enumerate(chunk)
                ],
                layouts=chunk,
            )
        )
    return batches


def batchify(
    instances,
    batch_size: int,
    vocab: Vocabulary,
    max_len: int = 512,
    subtoken_mode: str = "word",
) -> list[Batch]:
    """Lay out, then pack, instances (in the given order) into padded batches."""
    return pack(lay_out(instances, vocab, max_len, subtoken_mode), batch_size)
