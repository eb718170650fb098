import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads. The models' matrices are small:
# a second OpenBLAS thread buys no wall time on two cores, and beside
# another busy process its spinning threads make training about 3x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from etp.data import Dataset, SyntheticSpec, generate_synthetic
from etp.pipeline import TrainConfig


def tiny_train_config(**kw) -> TrainConfig:
    base = dict(
        lam=1.0,
        epochs=2,
        patience=2,
        batch_size=4,
        learning_rate=5e-3,
        seed=0,
        embed_dim=8,
        enc_hidden=6,
        enc_layers=1,
        task_hidden=8,
        token_gru_hidden=6,
        span_hidden=4,
        dropout=0.1,
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(seed=0, n=24, pair=False) -> Dataset:
    spec = SyntheticSpec(
        vocab_size=40,
        num_classes=2,
        doc_len=(8, 12),
        phrase_len=(2, 3),
        distractor_rate=0.2,
        pair_task=pair,
        seed=seed,
    )
    splits, label_map = generate_synthetic(spec, n, n_val=8, n_test=8)
    from etp.data import Vocabulary

    corpus = [t for inst in splits["train"] for t in inst.document + (inst.query or [])]
    return Dataset(splits=splits, label_map=label_map, vocab=Vocabulary.build(corpus))


@pytest.fixture
def dataset():
    return tiny_dataset()


@pytest.fixture
def cfg():
    return tiny_train_config()
