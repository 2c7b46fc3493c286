import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sentimen import nn
from sentimen.seeds import stream
from sentimen.train import (EncodedDataset, TrainConfig, batch_iter,
                            evaluate_split, save_history_csv, train)

from conftest import dense_grads, read_history_csv


def make_encoded(n, T=4, V=10, seed=0, balanced=True):
    rng = np.random.default_rng(seed)
    idx = rng.integers(1, V, size=(n, T))
    lengths = rng.integers(1, T + 1, size=n)
    for b in range(n):
        idx[b, lengths[b]:] = 0
    if balanced:
        labels = np.arange(n) % 2
    else:
        labels = rng.integers(0, 2, size=n)
    return EncodedDataset(idx, lengths, labels.astype(np.int64))


def separable_dataset(n=32, T=4):
    """Label fully determined by which token block a sequence uses."""
    rng = np.random.default_rng(42)
    idx = np.zeros((n, T), dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    lengths = np.full(n, T, dtype=np.int64)
    for b in range(n):
        label = b % 2
        lo, hi = (2, 6) if label == 0 else (6, 10)
        idx[b] = rng.integers(lo, hi, size=T)
        labels[b] = label
    return EncodedDataset(idx, lengths, labels)


class TestBatchIter:
    def test_sizes(self):
        ds = make_encoded(10)
        sizes = [len(b) for b in batch_iter(ds, 4, 0, 0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_identical(self):
        ds = make_encoded(10)
        a = [b.labels.tolist() for b in batch_iter(ds, 4, 7, 3)]
        b = [b.labels.tolist() for b in batch_iter(ds, 4, 7, 3)]
        assert a == b

    def test_different_epoch_differs(self):
        ds = make_encoded(50)
        a = np.concatenate([b.indices for b in batch_iter(ds, 8, 7, 0)])
        b = np.concatenate([b.indices for b in batch_iter(ds, 8, 7, 1)])
        assert not np.array_equal(a, b)

    def test_no_example_dropped_or_duplicated(self):
        ds = make_encoded(13)
        batches = list(batch_iter(ds, 5, 1, 0))
        rows = sorted(tuple(r) for b in batches for r in b.indices)
        assert rows == sorted(tuple(r) for r in ds.indices)


class TestTrain:
    def test_zero_epochs(self):
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4)
        params = nn.init_params(cfg, seed=0)
        before = {k: a.copy() for k, a in params.arrays().items()}
        result = train(params, make_encoded(8), None,
                       TrainConfig(epochs=0, seed=0))
        assert result.history == []
        assert result.best_epoch is None
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, before[name])

    def test_memorizes_toy_set(self):
        ds = separable_dataset(n=16)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=8, hidden_dim=8,
                             max_len=4, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=1)
        result = train(params, ds, None,
                       TrainConfig(batch_size=8, learning_rate=0.01,
                                   epochs=60, seed=1))
        assert result.history[-1].train_accuracy == 1.0
        loss, acc = evaluate_split(params, ds)
        assert acc == 1.0
        assert loss < 0.05

    def test_bit_determinism(self):
        ds = separable_dataset(n=12)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=6, hidden_dim=6,
                             max_len=4)
        histories = []
        for _ in range(2):
            params = nn.init_params(cfg, seed=3)
            result = train(params, ds, ds, TrainConfig(batch_size=4, epochs=3,
                                                       seed=3))
            histories.append([(s.train_loss, s.train_accuracy, s.val_loss,
                               s.val_accuracy) for s in result.history])
        assert histories[0] == histories[1]  # exact float equality

    def test_history_shape(self):
        ds = make_encoded(8)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4)
        params = nn.init_params(cfg, seed=0)
        result = train(params, ds, ds, TrainConfig(epochs=4, seed=0))
        assert [s.epoch for s in result.history] == [0, 1, 2, 3]

    def test_reduction_consistency_batch_one(self):
        # epoch loss must equal the mean of per-example losses seen by the
        # optimizer, recomputed here with a hand-rolled loop over the
        # seeded order
        ds = make_encoded(6, seed=5)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=7)
        manual = nn.init_params(cfg, seed=7)
        result = train(params, ds, None,
                       TrainConfig(batch_size=1, epochs=1, seed=7))

        state = nn.AdamState.for_params(manual)
        losses = []
        for batch in batch_iter(ds, 1, 7, 0):
            grads, loss = nn.backward(manual, batch.indices, batch.lengths,
                                      batch.labels,
                                      rng=stream(7, "dropout"))
            losses.append(loss)
            nn.adam_step(manual, grads, state, 5e-4)
        assert result.history[0].train_loss == pytest.approx(
            float(np.mean(losses)), rel=1e-12)

    def test_train_accuracy_is_pre_update_without_dropout(self):
        # accuracy of the inference-mode logits each batch has before its
        # own update, recomputed with a hand-rolled loop
        ds = make_encoded(10, seed=4, balanced=False)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4, fc_dropout=0.5)
        params = nn.init_params(cfg, seed=7)
        manual = nn.init_params(cfg, seed=7)
        result = train(params, ds, None,
                       TrainConfig(batch_size=3, epochs=1, seed=7,
                                   learning_rate=0.05))

        state = nn.AdamState.for_params(manual)
        drop_rng = stream(7, "dropout")
        correct = 0
        for b in batch_iter(ds, 3, 7, 0):
            logits = nn.forward_logits(manual, b.indices, b.lengths)
            correct += int((logits.argmax(axis=1) == b.labels).sum())
            grads, _ = nn.backward(manual, b.indices, b.lengths, b.labels,
                                   rng=drop_rng)
            nn.adam_step(manual, grads, state, 0.05)
        assert result.history[0].train_accuracy == correct / len(ds)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, manual.arrays()[name])

    def test_best_checkpoint_tracks_val_accuracy(self):
        ds = separable_dataset(n=12)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=6, hidden_dim=6,
                             max_len=4, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=2)
        result = train(params, ds, ds,
                       TrainConfig(batch_size=4, epochs=5, seed=2,
                                   learning_rate=0.01))
        accs = [s.val_accuracy for s in result.history]
        best = max(range(len(accs)), key=lambda i: (accs[i], -i))
        assert result.best_epoch == best


class TestEvaluateSplit:
    def test_majority_baseline_accuracy(self):
        # always-negative predictor on the reference test shape
        cfg = nn.ModelConfig(vocab_size=5, embed_dim=2, hidden_dim=2,
                             max_len=2)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 0.0
        params.b_out[:] = [10.0, -10.0]  # always predicts negative
        n_neg, n_pos = 845, 118
        idx = np.ones((n_neg + n_pos, 2), dtype=np.int64)
        lengths = np.full(n_neg + n_pos, 2, dtype=np.int64)
        labels = np.array([0] * n_neg + [1] * n_pos, dtype=np.int64)
        _, acc = evaluate_split(params, EncodedDataset(idx, lengths, labels))
        assert acc == pytest.approx(845 / 963)

    def test_perfect_model(self):
        ds = separable_dataset(n=16)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=8, hidden_dim=8,
                             max_len=4, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=1)
        train(params, ds, None, TrainConfig(batch_size=8, learning_rate=0.01,
                                            epochs=60, seed=1))
        _, acc = evaluate_split(params, ds)
        assert acc == 1.0

    def test_single_example_accuracy_is_zero_or_one(self):
        ds = make_encoded(1)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4)
        params = nn.init_params(cfg, seed=0)
        _, acc = evaluate_split(params, ds)
        assert acc in (0.0, 1.0)

    def test_empty_rejected(self):
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4)
        params = nn.init_params(cfg)
        empty = EncodedDataset(np.zeros((0, 4), dtype=np.int64),
                               np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate_split(params, empty)

    def test_length_sorted_batches_match_one_at_a_time(self, monkeypatch):
        ds = make_encoded(40, T=8, seed=3, balanced=False)
        ds.indices[:3] = 0
        ds.lengths[:3] = 0  # comments left empty by preprocessing
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=6, hidden_dim=5,
                             max_len=8)
        params = nn.init_params(cfg, seed=2, dtype=np.float64)
        losses, correct = [], 0
        for i in range(len(ds)):
            logits = nn.forward_logits(params, ds.indices[i:i + 1],
                                       ds.lengths[i:i + 1])[0]
            losses.append(float(nn.row_cross_entropy(
                logits[None], ds.labels[i:i + 1])[0]))
            correct += int(np.argmax(logits) == ds.labels[i])

        seen = []
        forward = nn.forward_logits

        def recording(p, indices, lengths):
            seen.append(lengths.copy())
            return forward(p, indices, lengths)

        monkeypatch.setattr(nn, "forward_logits", recording)
        monkeypatch.setattr(nn, "_PREDICT_BATCH", 8)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)  # one thread, in order
        loss, acc = evaluate_split(params, ds)
        assert loss == pytest.approx(math.fsum(losses) / len(ds), rel=1e-12)
        assert acc == correct / len(ds)
        assert len(seen) == 5
        # length-sorted batches, the longest first
        assert np.all(np.diff(np.concatenate(seen[::-1])) >= 0)


class TestWeightedLoss:
    def test_unit_weights_identity(self):
        # one example, weights [1, 1]: its cross-entropy and the unweighted
        # gradients
        cfg = nn.ModelConfig(vocab_size=4, embed_dim=2, hidden_dim=2,
                             max_len=2, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=1)
        idx, lengths, labels = np.array([[3, 1]]), np.array([2]), np.array([1])
        plain = nn.row_cross_entropy(nn.forward_logits(params, idx, lengths),
                                     labels)[0]
        g_plain, _ = nn.backward(params, idx, lengths, labels)
        grads, loss = nn.backward(params, idx, lengths, labels,
                                  class_weights=np.array([1.0, 1.0]))
        assert loss == pytest.approx(plain)
        grads = dense_grads(params, grads)
        for name, g in dense_grads(params, g_plain).items():
            assert np.allclose(grads[name], g, rtol=1e-12, atol=0), name

    def test_analytic_scaling(self):
        # zero weights leave logits = b_out, so softmax = [2/3, 1/3] per row
        cfg = nn.ModelConfig(vocab_size=4, embed_dim=2, hidden_dim=2,
                             max_len=2, fc_dropout=0.0)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 0.0
        params.b_out[:] = [math.log(2), 0.0]
        grads, loss = nn.backward(params, np.array([[1, 2], [3, 0]]),
                                  np.array([2, 1]), np.array([0, 1]),
                                  class_weights=np.array([1.0, 2.0]))
        # (1 * -ln(2/3) + 2 * -ln(1/3)) / (1 + 2)
        assert loss == pytest.approx((math.log(1.5) + 2 * math.log(3)) / 3,
                                     rel=1e-12)
        # (p - onehot) * w / sum(w): [-1/9, 1/9] + [4/9, -4/9]
        assert np.allclose(grads["b_out"], [1 / 3, -1 / 3], rtol=0,
                           atol=1e-12)

    def test_weighted_batch_reduction(self):
        # weight-normalized mean: weights [1,1] reproduce the unweighted loss
        ds = make_encoded(6, seed=3)
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=3)
        _, plain = nn.backward(params, ds.indices, ds.lengths, ds.labels)
        _, weighted = nn.backward(params, ds.indices, ds.lengths, ds.labels,
                                  class_weights=np.array([1.0, 1.0]))
        assert weighted == pytest.approx(plain, rel=1e-12)

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 2.0, 3.0)])
    def test_train_rejects_weights_not_one_per_class(self, weights):
        cfg = nn.ModelConfig(vocab_size=10, embed_dim=4, hidden_dim=4,
                             max_len=4)
        params = nn.init_params(cfg, seed=0)
        before = {k: a.copy() for k, a in params.arrays().items()}
        with pytest.raises(ValueError, match=f"^{len(weights)} class weights "
                                             f"for a model of 2 classes$"):
            train(params, make_encoded(8), None,
                  TrainConfig(epochs=1, class_weights=weights))
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, before[name]), name


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        from sentimen.train import EpochStats
        history = [EpochStats(0, 0.69, 0.5, 0.7, 0.45),
                   EpochStats(1, 0.42, 0.81, 0.5, 0.78)]
        save_history_csv(history, tmp_path / "h.csv")
        assert read_history_csv(tmp_path / "h.csv") == history


def test_import_binds_the_train_module():
    # the package does not re-export train(), which would shadow the module
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import types, sentimen.train as m; "
         "print(isinstance(m, types.ModuleType), callable(m.train))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["True", "True"]
