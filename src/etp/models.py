"""The explainer network (shared encoder + auxiliary task head +
explanation head) and the second-stage predictor.

The encoder is an embedding table followed by stacked bidirectional GRU
layers; per-token representations are the last layer's outputs and the
pooled vector is their mean over unpadded positions. The task head is
dropout -> dense(tanh) -> class softmax. The explanation head comes in
two variants: a per-token scorer (unidirectional GRU + dense +
sigmoid), and an interval head that scores span starts per position and
span ends conditioned on each start, restricted to positions at or
after the start.

All activations for a batch live in time-major (T*B, dim) matrices; see
:mod:`etp.rnn` for the layout convention. A model computes in its
parameters' dtype: a model built from a config is f64, and one that loads
f32 arrays (as training and f32 checkpoints do) runs in f32.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import rnn
from .autodiff import Tensor
from .metrics import normalize_spans

__all__ = [
    "ModelOptions",
    "ModelConfig",
    "EncoderOutput",
    "SpanForward",
    "ExplainerModel",
    "PredictorModel",
    "pool_subtokens",
    "decode_spans",
    "mask_input",
    "word_spans_to_subtokens",
    "subtoken_spans_to_words",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 1


@dataclass(kw_only=True)
class ModelOptions:
    """The options of the model family, shared by the explainer and the
    predictor; each size must be >= 1."""

    HEADS = ("token", "span")

    embed_dim: int = 64
    enc_hidden: int = 64
    enc_layers: int = 2
    task_hidden: int = 256
    token_gru_hidden: int = 128
    span_hidden: int = 64
    dropout: float = 0.1
    head: str = "token"

    def validate(self) -> "ModelOptions":
        if self.head not in self.HEADS:
            raise ValueError(f"unknown head variant {self.head!r}; expected one of {self.HEADS}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for f in fields(ModelOptions):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        return self


@dataclass
class ModelConfig(ModelOptions):
    """The options plus the sizes the data sets, and the digest of the
    vocabulary whose ids the embedding rows stand for (empty when not
    recorded); the predictor's head is "none"."""

    HEADS = (*ModelOptions.HEADS, "none")

    vocab_size: int
    num_classes: int
    span_len: int = 512
    vocab_digest: str = ""

    @property
    def d_rep(self) -> int:
        return 2 * self.enc_hidden

    def validate(self) -> "ModelConfig":
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.vocab_size < 1 or self.span_len < 1:
            raise ValueError("vocab_size and span_len must be >= 1")
        return super().validate()


@dataclass
class EncoderOutput:
    """Per-token representations (time-major) plus the pooled vector."""

    token_reps: Tensor
    pooled: Tensor
    seq_len: int
    batch: int
    pad_mask: np.ndarray


@dataclass
class SpanForward:
    """Span-head forward results for one batch of B instances.

    ``p_start`` is the flat (L*B,) time-major start-probability tensor.
    ``p_end`` is one (B*L, L) tensor: rows b*L ... b*L+L-1 hold instance
    b's row-stochastic end matrix, row i the ends of a span starting at
    i. ``valid`` marks which (position, instance) slots are real tokens.
    """

    p_start: Tensor
    p_end: Tensor
    valid: np.ndarray

    def start_numpy(self, b: int) -> np.ndarray:
        return self.p_start.data.reshape(self.valid.shape)[: int(self.valid[:, b].sum()), b]

    def end_numpy(self, b: int) -> np.ndarray:
        L = self.valid.shape[0]
        return self.p_end.data[b * L : (b + 1) * L]


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, (fan_in, fan_out))


def _flatten(tree, prefix: str = "", out=None) -> dict[str, Tensor]:
    if out is None:
        out = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, name + ".", out)
        else:
            out[name] = value
    return out


class _EncoderClassifier:
    """Shared machinery: encoder plus the MLP task head."""

    kind = "base"

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg.validate()
        self.seed = seed
        rng = np.random.default_rng(seed)
        k_emb = 1.0 / np.sqrt(cfg.embed_dim)
        enc: dict = {
            "embedding": Tensor(
                rng.uniform(-k_emb, k_emb, (cfg.vocab_size, cfg.embed_dim)), requires_grad=True
            )
        }
        in_dim = cfg.embed_dim
        for layer in range(cfg.enc_layers):
            enc[f"layer{layer}"] = rnn.init_bigru(rng, in_dim, cfg.enc_hidden)
            in_dim = cfg.d_rep
        task = {
            "w1": Tensor(_linear_init(rng, cfg.d_rep, cfg.task_hidden), requires_grad=True),
            "b1": Tensor(np.zeros(cfg.task_hidden), requires_grad=True),
            "w2": Tensor(_linear_init(rng, cfg.task_hidden, cfg.num_classes), requires_grad=True),
            "b2": Tensor(np.zeros(cfg.num_classes), requires_grad=True),
        }
        self.params: dict = {"enc": enc, "task": task}
        self._init_head(rng)

    def _init_head(self, rng: np.random.Generator) -> None:
        pass

    def parameters(self) -> dict[str, Tensor]:
        return _flatten(self.params)

    @property
    def dtype(self) -> np.dtype:
        """The dtype the model computes in: that of its parameters."""
        return self.params["enc"]["embedding"].data.dtype

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in a whole parameter set, all f32 or all f64; the model adopts
        that dtype, and its gradient buffers are reset to zeros of it."""
        params = self.parameters()
        if set(arrays) != set(params):
            missing = set(params) ^ set(arrays)
            raise ValueError(f"checkpoint parameter set mismatch: {sorted(missing)}")
        dtypes = sorted({str(a.dtype) for a in arrays.values()})
        if dtypes not in (["float32"], ["float64"]):
            raise ValueError(f"parameters must all be float32 or all float64, got {', '.join(dtypes)}")
        for name, p in params.items():
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arrays[name].shape} vs {p.data.shape}")
        for name, p in params.items():
            p.data = np.array(arrays[name], order="C")
            p.grad = np.zeros_like(p.data)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters().items()}

    # ------------------------------------------------------------------
    # forward passes

    def encode(self, ids: np.ndarray, pad_mask: np.ndarray) -> EncoderOutput:
        """Run the shared encoder over a (B, T) id batch.

        The vocabulary is closed: any id outside the embedding table is
        an error. Padded positions are frozen out of the recurrences and
        contribute nothing to the pooled mean.
        """
        ids = np.asarray(ids, dtype=np.int64)
        pad_mask = np.asarray(pad_mask, dtype=self.dtype)
        if ids.ndim != 2 or pad_mask.shape != ids.shape:
            raise ad.DimensionError(f"encode: ids {ids.shape} vs mask {pad_mask.shape}")
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise IndexError(
                f"token id out of range for vocabulary of size {self.cfg.vocab_size}"
            )
        B, T = ids.shape
        step_mask = pad_mask.T
        x = ad.embedding(self.params["enc"]["embedding"], ids.T.reshape(-1))
        for layer in range(self.cfg.enc_layers):
            x = rnn.bigru(
                x, T, B, self.params["enc"][f"layer{layer}"], self.cfg.enc_hidden, step_mask
            )
        lengths = pad_mask.sum(axis=1)
        if (lengths == 0).any():
            raise ad.DimensionError("encode: a batch row has no unpadded token")
        # weight each time-major row by 1/length (0 at padding); in the
        # (T, B*d) view, the time sum of instance b's columns is its mean
        weighted = ad.mul(x, (pad_mask / lengths[:, None]).T.reshape(-1, 1))
        d = x.shape[1]
        pooled = ad.reshape(ad.tsum(ad.reshape(weighted, (T, B * d)), axis=0), (B, d))
        return EncoderOutput(token_reps=x, pooled=pooled, seq_len=T, batch=B, pad_mask=pad_mask)

    def predict_task(
        self,
        enc: EncoderOutput,
        train: bool = False,
        dropout_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Class probabilities from the pooled representation, (B, k)."""
        h = enc.pooled
        if train and self.cfg.dropout > 0.0:
            if dropout_rng is None:
                raise ad.UsageError("training-mode predict_task needs a dropout rng")
            h = ad.dropout(h, self.cfg.dropout, dropout_rng)
        task = self.params["task"]
        h = ad.tanh(ad.affine(h, task["w1"], task["b1"]))
        logits = ad.affine(h, task["w2"], task["b2"])
        return ad.softmax(logits, axis=-1)

    # ------------------------------------------------------------------
    # persistence

    def save(self, path) -> None:
        save_checkpoint(path, self.kind, self.cfg, self.state_arrays())

    @classmethod
    def load(cls, path) -> "_EncoderClassifier":
        model = load_model(path)
        if model.kind != cls.kind:
            raise ValueError(f"{path} holds a {model.kind!r} model, expected {cls.kind!r}")
        return model


class PredictorModel(_EncoderClassifier):
    """Second-stage classifier; same family as the explainer, no
    explanation head, and no parameters shared with it."""

    kind = "predictor"

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        super().__init__(replace(cfg, head="none"), seed)


class ExplainerModel(_EncoderClassifier):
    """Shared encoder with the auxiliary task head and explanation head."""

    kind = "explainer"

    def _init_head(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        if cfg.head == "token":
            self.params["exp"] = {
                "gru": rnn.init_gru(rng, cfg.d_rep, cfg.token_gru_hidden),
                "w": Tensor(_linear_init(rng, cfg.token_gru_hidden, 1), requires_grad=True),
                "b": Tensor(np.zeros(1), requires_grad=True),
            }
        elif cfg.head == "span":
            d = cfg.span_hidden
            self.params["exp"] = {
                "rnn1": rnn.init_bigru(rng, cfg.d_rep, d),
                "start_w": Tensor(_linear_init(rng, 2 * d, cfg.span_len).T, requires_grad=True),
                "rnn2": rnn.init_bigru(rng, cfg.d_rep + 6 * d, d),
                "end_w": Tensor(
                    _linear_init(rng, cfg.d_rep + 2 * d, cfg.span_len).T, requires_grad=True
                ),
            }
        else:
            raise ValueError(f"explainer cannot be built with head={cfg.head!r}")

    def explain_tokens(self, enc: EncoderOutput, doc_mask: np.ndarray) -> Tensor:
        """Per-position rationale probabilities, (T*B, 1) time-major.

        Scores at query, separator, and padding positions are forced to
        exactly 0; only document tokens can be rationale candidates.
        """
        if self.cfg.head != "token":
            raise ad.UsageError("explain_tokens requires the token head variant")
        doc_mask = np.asarray(doc_mask, dtype=self.dtype)
        if doc_mask.shape != (enc.batch, enc.seq_len):
            raise ad.DimensionError(
                f"explain_tokens: doc mask {doc_mask.shape} vs batch ({enc.batch}, {enc.seq_len})"
            )
        head = self.params["exp"]
        states = rnn.gru_sequence(
            enc.token_reps,
            enc.seq_len,
            enc.batch,
            head["gru"],
            self.cfg.token_gru_hidden,
            step_mask=enc.pad_mask.T,
        )
        scores = ad.sigmoid(ad.affine(states, head["w"], head["b"]))
        force = doc_mask.T.reshape(-1, 1)
        return ad.mul(scores, force)

    def explain_spans(
        self,
        enc: EncoderOutput,
        doc_start: np.ndarray,
        doc_sublen: np.ndarray,
    ) -> SpanForward:
        """Start probabilities and start-conditioned end distributions.

        The head runs over each instance's document region, re-packed
        time-major and zero-padded to the fixed head length L, as one
        graph for the whole batch; ``p_end`` stacks the B end matrices
        (see :class:`SpanForward`). End logits before their start are
        masked to -inf before the softmax, so those probabilities are
        exactly zero and every row still sums to one.
        """
        if self.cfg.head != "span":
            raise ad.UsageError("explain_spans requires the span head variant")
        cfg = self.cfg
        L, d = cfg.span_len, cfg.span_hidden
        B, T = enc.batch, enc.seq_len
        doc_start = np.asarray(doc_start, dtype=np.int64)
        doc_sublen = np.asarray(doc_sublen, dtype=np.int64)
        if doc_sublen.max() > L:
            raise ad.DimensionError(
                f"document of {doc_sublen.max()} sub-tokens exceeds span head length {L}"
            )
        head = self.params["exp"]

        tt = np.arange(L)[:, None]
        bb = np.arange(B)[None, :]
        valid = (tt < doc_sublen[None, :]).astype(self.dtype)
        zero_row = T * B
        gather = np.where(valid > 0, (doc_start[None, :] + tt) * B + bb, zero_row).reshape(-1)

        aug = ad.concat([enc.token_reps, Tensor(np.zeros((1, cfg.d_rep), self.dtype))], axis=0)
        passage = ad.take_rows(aug, gather)
        m1 = rnn.bigru(passage, L, B, head["rnn1"], d, step_mask=valid)

        w1 = ad.take_rows(head["start_w"], np.repeat(np.arange(L), B))
        p_start = ad.sigmoid(ad.tsum(ad.mul(m1, w1), axis=1))

        # attention over start probabilities: in the (L, B*2d) view, the
        # time sum of instance b's columns gates each of its rows
        weighted = ad.mul(m1, ad.reshape(p_start, (L * B, 1)))
        weighted = ad.mul(weighted, valid.reshape(-1, 1))
        attn = ad.tsum(ad.reshape(weighted, (L, B * 2 * d)), axis=0)
        m1_tilde = ad.reshape(ad.mul(ad.reshape(m1, (L, B * 2 * d)), attn), (L * B, 2 * d))

        m2_in = ad.concat([passage, m1, m1_tilde, ad.mul(m1, m1_tilde)], axis=1)
        m2 = rnn.bigru(m2_in, L, B, head["rnn2"], d, step_mask=valid)
        readout = ad.concat([passage, m2], axis=1)

        # end logits in the (L, B*L) view: entry (t, b*L+i) scores end t
        # for start i of instance b, normalized over the ends t >= i
        logits = ad.reshape(ad.matmul(readout, ad.transpose(head["end_w"])), (L, B * L))
        ends = np.where(np.tril(np.ones((L, L))) > 0, 0.0, -np.inf).astype(self.dtype)
        mask = np.tile(ends, (1, B))
        p_end = ad.softmax(logits, mask=mask, axis=0)
        return SpanForward(p_start=p_start, p_end=ad.transpose(p_end), valid=valid)


# ---------------------------------------------------------------------------
# score and span post-processing


def pool_subtokens(scores, word_groups) -> np.ndarray:
    """Max-pool sub-token scores into word scores.

    ``word_groups`` must be contiguous, non-overlapping (start, end)
    ranges that exactly cover the score vector.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    expected = 0
    for s, e in word_groups:
        if s != expected or e <= s:
            raise ValueError(f"word groups must partition the tokens; bad range ({s}, {e})")
        expected = e
    if expected != scores.size:
        raise ValueError(f"word groups cover {expected} tokens but got {scores.size} scores")
    return np.array([scores[s:e].max() for s, e in word_groups])


def decode_spans(p_start, p_end, threshold: float = 0.5):
    """Greedy interval decoding from the span head's distributions.

    Every position whose start probability reaches the threshold opens a
    span; its end is the argmax of the start-conditioned end
    distribution over positions at or after it. Overlapping or adjacent
    decoded spans are merged.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    p_start = np.asarray(p_start, dtype=np.float64)
    p_end = np.asarray(p_end, dtype=np.float64)
    n = p_start.size
    spans = []
    for i in range(n):
        if p_start[i] >= threshold:
            j = i + int(np.argmax(p_end[i, i:n]))
            spans.append((i, j + 1))
    return normalize_spans(spans)


def word_spans_to_subtokens(spans, word_groups):
    """Map word-level spans to sub-token coordinates."""
    return [(word_groups[s][0], word_groups[e - 1][1]) for s, e in spans]


def subtoken_spans_to_words(spans, word_groups):
    """Map sub-token spans back to word spans (any overlap keeps the word)."""
    out = []
    for s, e in spans:
        words = [w for w, (gs, ge) in enumerate(word_groups) if gs < e and ge > s]
        if words:
            out.append((min(words), max(words) + 1))
    return normalize_spans(out)


def mask_input(tokens, rationale_mask, wildcard: str = ".") -> list[str]:
    """Replace tokens outside the rationale with the wildcard token.

    Masking is idempotent: applying the same mask to its own output
    changes nothing.
    """
    tokens = list(tokens)
    mask = np.asarray(rationale_mask)
    if mask.shape != (len(tokens),):
        raise ValueError(f"mask length {mask.shape} != token count {len(tokens)}")
    return [t if k else wildcard for t, k in zip(tokens, mask.astype(bool))]


# ---------------------------------------------------------------------------
# checkpoints: one .npz per model, self-describing via a JSON meta record


def save_checkpoint(path, kind: str, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
    meta = json.dumps(
        {"format": CHECKPOINT_FORMAT, "kind": kind, "config": asdict(cfg)}, sort_keys=True
    )
    payload = {f"param:{name}": arr for name, arr in arrays.items()}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(meta), **payload)


def load_checkpoint(path):
    """(kind, config, parameter arrays) of a checkpoint. A damaged file, a
    missing or unreadable meta record and an unknown format raise
    ValueError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as zf:
            meta = json.loads(str(zf["meta"][()]))
            if not isinstance(meta, dict):
                raise ValueError("meta is not a JSON object")
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"unsupported checkpoint format {meta.get('format')!r}")
            arrays = {key[len("param:") :]: zf[key] for key in zf.files if key.startswith("param:")}
        return meta["kind"], ModelConfig(**meta["config"]), arrays
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable checkpoint ({exc})") from None


def load_model(path):
    """Build the model kind a checkpoint names from one read of the file;
    a config or parameter set that does not build that model raises
    ValueError naming the file."""
    kind, cfg, arrays = load_checkpoint(path)
    classes = {cls.kind: cls for cls in (ExplainerModel, PredictorModel)}
    if not isinstance(kind, str) or kind not in classes:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        model = classes[kind](cfg, seed=0)
        model.load_state(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
