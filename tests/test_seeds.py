"""The random streams: no two purposes share one, and the ids that predate
the table draw as their old two-word keys did."""

import numpy as np
import pytest

from sentimen import baselines, ingest, nn, train
from sentimen.ingest import Label
from sentimen.seeds import stream

SEEDS = (0, 1, 3, 2**32 + 5)
EPOCHS = 50


def _state(rng: np.random.Generator) -> tuple[int, int]:
    pcg = rng.bit_generator.state["state"]
    return pcg["state"], pcg["inc"]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_stream_is_distinct(monkeypatch, seed):
    # the state of every generator a seeded split, init, training run and
    # SVM fit makes, taken as it is made
    states = []
    default_rng = np.random.default_rng

    def recording(key):
        rng = default_rng(key)
        states.append(_state(rng))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    ingest.stratified_indices([Label.NEGATIVE, Label.POSITIVE] * 3,
                              ingest.SplitSpec(seed=seed))
    cfg = nn.ModelConfig(vocab_size=4, embed_dim=2, hidden_dim=2, max_len=2,
                         fc_dropout=0.5)
    ds = train.EncodedDataset(np.ones((2, 2), np.int64), np.full(2, 2),
                              np.array([0, 1]))
    train.train(nn.init_params(cfg, seed=seed), ds, None,
                train.TrainConfig(batch_size=2, epochs=EPOCHS, seed=seed))
    x = baselines.CsrMatrix(np.array([0, 1, 2]), np.array([0, 1]),
                            np.ones(2), 2)
    baselines.linear_fit(x, [0, 1], objective="hinge", epochs=1, seed=seed)
    # two split classes, init, dropout, one shuffle per epoch and the SVM
    assert len(states) == 2 + 1 + 1 + EPOCHS + 1
    assert len(set(states)) == len(states)


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_ids_draw_as_two_word_keys(seed):
    # so splits, dropout masks and baseline rows are as before the table
    for purpose, key in (("split_negative", 0), ("split_positive", 1),
                         ("dropout", 2), ("svm", 3)):
        assert (_state(stream(seed, purpose))
                == _state(np.random.default_rng((seed, key)))), purpose
