"""Batched inference on a thread pool (``nn.encoded_logits``): the
worker-count rule, bit identity with one batch at a time, a single row,
failures in a pool thread, and the probabilities against an independent
float64 LSTM."""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sentimen import nn
from sentimen.preprocess import PreprocessConfig, run_pipeline
from sentimen.train import EncodedDataset, evaluate_split
from sentimen.vocab import build_vocab, encode

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  REFERENCE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def machine(monkeypatch):
    """``machine(cores, openblas=None, omp=None)``: the affinity mask's size
    and the BLAS thread variables, None for unset."""
    def set_up(cores, openblas=None, omp=None):
        monkeypatch.setattr(nn.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas),
                           ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
    return set_up


# the unpatched forward pass, for the one-thread oracle
forward_logits = nn.forward_logits


class TwoThreadsRun:
    """Patches ``nn.forward_logits`` so that after each ``reset`` the first
    batch any thread starts waits until a second thread has started one:
    two threads then run a batch in every call.  ``ran`` holds the threads
    that ran a batch since the ``reset``."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.second = threading.Event()
        self.ran = set()
        self.reset()
        monkeypatch.setattr(nn, "forward_logits", self.forward_logits)

    def reset(self):
        self.first = True
        self.second.clear()
        self.ran.clear()

    def forward_logits(self, params, indices, lengths):
        with self.lock:
            first, self.first = self.first, False
            self.ran.add(threading.current_thread())
            if len(self.ran) > 1:
                self.second.set()
        if first:
            self.second.wait(timeout=30)
        return forward_logits(params, indices, lengths)


@pytest.fixture
def two_threads_run(monkeypatch):
    return TwoThreadsRun(monkeypatch)


def no_threads(*args, **kwargs):
    raise AssertionError("a thread was started")


def model(dtype, seed=3):
    """A random model whose labels on ``corpus`` rows take both classes."""
    cfg = nn.ModelConfig(vocab_size=60, embed_dim=16, hidden_dim=32,
                         max_len=12, fc_dropout=0.0)
    params = nn.init_params(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for b in (params.b_ih, params.b_hh):
        b[:] = rng.normal(0, 0.3, b.shape)
    params.embedding *= 4
    params.w_out *= 4
    return params


def corpus(rng, rows, cfg):
    idx = rng.integers(1, cfg.vocab_size, size=(rows, cfg.max_len))
    lengths = rng.integers(0, cfg.max_len + 1, size=rows)
    lengths[rng.random(rows) < 0.15] = 0  # rows left empty by preprocessing
    for r in range(rows):
        idx[r, lengths[r]:] = 0
    return idx, lengths


def serial_batch_logits(params, idx, lengths):
    """The (N, C) logits in row order, computed one batch at a time, on the
    calling thread, in batch order."""
    logits = np.empty((len(lengths), params.b_out.shape[0]),
                      dtype=params.b_out.dtype)
    for sel in nn.length_sorted_batches(lengths):
        logits[sel] = forward_logits(params, idx[sel], lengths[sel])
    return logits


# cores, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, batches -> workers
@pytest.mark.parametrize("cores,openblas,omp,batches,workers", [
    (2, None, None, 5, 1),   # unset: BLAS runs on every core
    (2, "1", None, 5, 2),
    (2, "1", None, 1, 1),    # never more than one a batch
    (2, "1", None, 0, 1),
    (4, "1", None, 3, 3),
    (4, "1", None, 9, 4),
    (2, None, "1", 5, 2),    # OMP_NUM_THREADS when OPENBLAS_ is unset
    (4, "2", "1", 5, 2),     # OPENBLAS_NUM_THREADS first
    (2, "0", None, 5, 1),    # 0 and junk read as unset
    (2, "x", "1", 5, 2),
    (2, "4", None, 5, 1),    # more BLAS threads than cores
    (1, "1", None, 5, 1),
])
def test_worker_count_rule(machine, cores, openblas, omp, batches, workers):
    machine(cores, openblas, omp)
    assert nn.batch_workers(batches) == workers


# without affinity masks the rule counts os.cpu_count(), or 1 core when
# that is unknown: cpu_count, OPENBLAS_NUM_THREADS, batches -> workers
@pytest.mark.parametrize("cpu_count,openblas,batches,workers", [
    (4, "1", 9, 4),
    (4, "1", 3, 3),
    (4, "2", 9, 2),
    (4, None, 9, 1),
    (None, "1", 9, 1),
])
def test_worker_count_without_affinity_masks(machine, monkeypatch, cpu_count,
                                             openblas, batches, workers):
    machine(1, openblas)
    monkeypatch.delattr(nn.os, "sched_getaffinity")
    monkeypatch.setattr(nn.os, "cpu_count", lambda: cpu_count)
    assert nn.batch_workers(batches) == workers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threads_match_one_batch_at_a_time(machine, two_threads_run,
                                           monkeypatch, dtype):
    machine(2, "1")
    monkeypatch.setattr(nn, "_PREDICT_BATCH", 7)
    params = model(dtype)
    rng = np.random.default_rng(41)
    for rows in (8, 15, 21, 29, 35):  # 2 to 5 batches
        idx, lengths = corpus(rng, rows, params.config)
        labels = rng.integers(0, 2, size=rows)
        want = serial_batch_logits(params, idx, lengths)
        two_threads_run.reset()
        got = nn.encoded_logits(params, idx, lengths)
        assert len(two_threads_run.ran) == 2, rows
        assert got.shape == (rows, 2) and got.dtype == dtype
        assert np.array_equal(got, want), rows

        probs = nn.softmax(want)
        two_threads_run.reset()
        preds = nn.predict_encoded(params, idx, lengths)
        assert np.array_equal([p.probabilities for p in preds], probs)
        assert [int(p.label) for p in preds] == \
            np.where(lengths > 0, probs.argmax(axis=1), 0).tolist()

        # losses summed in batch order, as one thread sums them
        total, correct = 0.0, 0
        for sel in nn.length_sorted_batches(lengths):
            part = want[sel]
            total += float(nn.row_cross_entropy(part, labels[sel]).sum(
                dtype=np.float64))
            correct += int((part.argmax(axis=1) == labels[sel]).sum())
        ds = EncodedDataset(idx, lengths, labels)
        two_threads_run.reset()
        assert evaluate_split(params, ds) == (total / rows, correct / rows)


def test_more_threads_than_cores_run_each_batch_once(machine, monkeypatch):
    # 8 workers on this machine's cores, switching threads every
    # microsecond: a batch taken twice or never would show in the calls
    # or the logits
    machine(8, "1")
    monkeypatch.setattr(nn, "_PREDICT_BATCH", 2)
    calls = []

    def counting(params, indices, lengths):
        calls.append(len(indices))
        return forward_logits(params, indices, lengths)

    params = model(np.float64)
    rng = np.random.default_rng(9)
    idx, lengths = corpus(rng, 61, params.config)  # 31 batches
    want = serial_batch_logits(params, idx, lengths)
    monkeypatch.setattr(nn, "forward_logits", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            got = nn.encoded_logits(params, idx, lengths)
            assert sorted(calls) == [1] + [2] * 30
            assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_unset_blas_threads_start_no_thread(machine, monkeypatch):
    machine(2)
    monkeypatch.setattr(nn, "_PREDICT_BATCH", 4)
    monkeypatch.setattr(threading, "Thread", no_threads)
    params = model(np.float32)
    rng = np.random.default_rng(5)
    idx, lengths = corpus(rng, 20, params.config)
    assert len(nn.predict_encoded(params, idx, lengths)) == 20
    evaluate_split(params, EncodedDataset(idx, lengths, np.zeros(20, int)))


def test_one_row_and_one_batch_start_no_thread(machine, monkeypatch):
    # a single prediction, and a predict command's chunk of one batch
    machine(2, "1")
    monkeypatch.setattr(threading, "Thread", no_threads)
    params = model(np.float64)
    rng = np.random.default_rng(6)
    for rows in (1, 2, nn._PREDICT_BATCH):
        idx, lengths = corpus(rng, rows, params.config)
        assert len(nn.predict_encoded(params, idx, lengths)) == rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_row_runs_as_given(tmp_path, machine, monkeypatch, dtype):
    # one row runs on the one-row recurrence, never through forward_logits:
    # its logits are forward_logits' on the row, bit for bit, on a loaded
    # (read-only) model and on its writable copy, for lengths out of range
    # too; evaluate_split and nn.predict score a single row off them
    machine(2, "1")
    nn.save_checkpoint(tmp_path / "m.bin", model(dtype))
    loaded, _ = nn.load_checkpoint(tmp_path / "m.bin")
    copy = nn.ModelParams(loaded.config, **{k: a.copy() for k, a in
                                            loaded.arrays().items()})
    assert loaded.read_only() and not copy.read_only()
    t_max = loaded.config.max_len
    rng = np.random.default_rng(7)
    cases = []
    for n in (0, 1, 2, t_max, t_max + 5, -1, -t_max - 2):
        for _ in range(4):
            idx, _ = corpus(rng, 1, loaded.config)
            idx[0, max(n, 0):] = 0
            cases.append((idx, np.array([n])))
    for k in range(10):
        cases.append(corpus(rng, 1, loaded.config))
    words = [f"kata{chr(97 + k // 26)}{chr(97 + k % 26)}" for k in range(58)]
    vocab = build_vocab([words])
    pp = PreprocessConfig()
    texts = ["", words[5], " ".join(rng.choice(words, 2 * t_max).tolist())]
    encoded = [encode([run_pipeline(t, pp)], vocab, t_max) for t in texts]
    assert [int(n[0]) for _, n in encoded] == [0, 1, t_max]
    want = [([forward_logits(params, *case) for case in cases],
             [nn.softmax(forward_logits(params, *e))[0] for e in encoded])
            for params in (loaded, copy)]

    def batch_path(*args):
        raise AssertionError("one row ran through forward_logits")

    monkeypatch.setattr(nn, "forward_logits", batch_path)
    for params, (logits, probabilities) in zip((loaded, copy), want):
        for k, ((idx, lengths), w) in enumerate(zip(cases, logits)):
            got = nn.encoded_logits(params, idx, lengths)
            assert got.dtype == dtype and got.shape == (1, 2)
            assert np.array_equal(got, w), lengths
            labels = np.array([k % 2])
            loss = float(nn.row_cross_entropy(got, labels)[0])
            assert evaluate_split(params, EncodedDataset(
                idx, lengths, labels)) == (loss, float(got.argmax() == k % 2))
        for text, probs in zip(texts, probabilities):
            pred = nn.predict(text, params, vocab, pp)
            assert np.array_equal(pred.probabilities, probs), text
            assert pred.low_confidence == (text == "")
            assert int(pred.label) == (int(probs.argmax()) if text else 0)


class Boom(Exception):
    pass


@pytest.mark.parametrize("call", ["predict_encoded", "evaluate_split"])
def test_helper_exception_reaches_the_caller(machine, monkeypatch, call):
    # the calling thread and a pool thread each start a batch before one
    # fails: the pool thread's batch alone, or both
    machine(2, "1")
    monkeypatch.setattr(nn, "_PREDICT_BATCH", 4)
    params = model(np.float32)
    rng = np.random.default_rng(8)
    idx, lengths = corpus(rng, 20, params.config)
    caller = threading.current_thread()
    for pool_only in (True, False):
        lock, both, ran = threading.Lock(), threading.Event(), set()

        def failing(params, indices, lengths):
            with lock:
                ran.add(threading.current_thread())
                if len(ran) > 1:
                    both.set()
            both.wait(timeout=30)
            if pool_only and threading.current_thread() is caller:
                return forward_logits(params, indices, lengths)
            raise Boom

        monkeypatch.setattr(nn, "forward_logits", failing)
        before = threading.active_count()
        with pytest.raises(Boom):
            if call == "predict_encoded":
                nn.predict_encoded(params, idx, lengths)
            else:
                evaluate_split(params, EncodedDataset(idx, lengths,
                                                      np.zeros(20, int)))
        pool = ran - {caller}
        assert caller in ran and pool, pool_only  # a batch ran on each
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in pool)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_probabilities_match_the_float64_reference(tmp_path, machine,
                                                   two_threads_run,
                                                   monkeypatch, dtype, tol):
    # perfbench/reference.py reads the checkpoint file and runs a masked
    # float64 LSTM over the padded rows, sharing no code with nn
    reference = load_reference()
    machine(2, "1")
    monkeypatch.setattr(nn, "_PREDICT_BATCH", 16)
    nn.save_checkpoint(tmp_path / "m.bin", model(dtype))
    params, _ = nn.load_checkpoint(tmp_path / "m.bin")
    ckpt = reference.read_checkpoint(tmp_path / "m.bin")
    rng = np.random.default_rng(12)
    idx, lengths = corpus(rng, 70, params.config)
    preds = nn.predict_encoded(params, idx, lengths)
    assert len(two_threads_run.ran) == 2
    got = np.array([p.probabilities for p in preds])
    want = np.exp(reference.log_softmax(reference.lstm_logits(ckpt, idx,
                                                               lengths)))
    assert np.max(np.abs(got - want)) <= tol
    labels = np.array([int(p.label) for p in preds])
    assert np.array_equal(labels[lengths > 0],
                          want.argmax(axis=1)[lengths > 0])
    assert set(labels[lengths > 0].tolist()) == {0, 1}  # both classes
