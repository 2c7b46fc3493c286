"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass line per criterion."""

import math

import numpy as np

from sentimen import cli, nn
from sentimen.evaluation import (ConfusionMatrix, report,
                                 report_from_confusion, round2)
from sentimen.ingest import (Dataset, Label, LabeledComment, SplitSpec,
                             stratified_split)
from sentimen.preprocess import _data_text, load_root_words
from sentimen.stemmer import IndonesianStemmer
from sentimen.train import EncodedDataset, TrainConfig, evaluate_split, train

from conftest import dense_grads, write_corpus_csv


def ok(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


def test_c01_parameter_count_parity():
    assert nn.count_parameters(16378, 128, 128, 2) == 2_228_738
    ok(1, "count_parameters(16378, 128, 128, 2) == 2,228,738 exactly")


def test_c02_metric_reproduction_from_reference_confusion_matrix():
    rep = report_from_confusion(ConfusionMatrix(tp=67, fn=51, fp=58, tn=787))
    cells = {
        "accuracy": (rep.accuracy, 0.89),
        "neg precision": (rep.per_class[Label.NEGATIVE].precision, 0.94),
        "neg recall": (rep.per_class[Label.NEGATIVE].recall, 0.93),
        "neg f1": (rep.per_class[Label.NEGATIVE].f1, 0.94),
        "pos precision": (rep.per_class[Label.POSITIVE].precision, 0.54),
        "pos recall": (rep.per_class[Label.POSITIVE].recall, 0.57),
        "pos f1": (rep.per_class[Label.POSITIVE].f1, 0.55),
        "macro precision": (rep.macro_precision, 0.74),
        "macro recall": (rep.macro_recall, 0.75),
        "macro f1": (rep.macro_f1, 0.74),
        "weighted precision": (rep.weighted_precision, 0.89),
        "weighted recall": (rep.weighted_recall, 0.89),
        "weighted f1": (rep.weighted_f1, 0.89),
    }
    for name, (value, want) in cells.items():
        assert round2(value) == want, f"{name}: {value} !~ {want}"
    assert rep.per_class[Label.NEGATIVE].support == 845
    assert rep.per_class[Label.POSITIVE].support == 118
    ok(2, "all 13 reference result cells reproduced at 2-decimal rounding")


def test_c03_split_shape_reproduction():
    records = tuple(
        [LabeledComment(f"n{i}", "s", "x", Label.NEGATIVE) for i in range(5629)]
        + [LabeledComment(f"p{i}", "s", "x", Label.POSITIVE) for i in range(790)])
    _, _, test = stratified_split(Dataset(records),
                                  SplitSpec(0.70, 0.15, 0.15, seed=0))
    counts = test.counts
    assert abs(counts[Label.NEGATIVE] - 845) <= 1
    assert abs(counts[Label.POSITIVE] - 118) <= 1
    assert abs(len(test) - 963) <= 2
    ok(3, f"test split {len(test)} with supports "
          f"{counts[Label.NEGATIVE]}/{counts[Label.POSITIVE]} "
          f"(targets 845/118, within +-1)")


def test_c04_gradient_correctness_20_random_models():
    rng = np.random.default_rng(2024)
    worst_overall = 0.0
    for trial in range(20):
        dims = dict(vocab_size=int(rng.integers(2, 9)),
                    embed_dim=int(rng.integers(1, 5)),
                    hidden_dim=int(rng.integers(1, 5)),
                    max_len=int(rng.integers(1, 6)))
        cfg = nn.ModelConfig(num_classes=2, fc_dropout=0.0, **dims)
        params = nn.init_params(cfg, seed=trial)
        params.b_ih[:] = rng.normal(0, 0.3, params.b_ih.shape)
        params.b_hh[:] = rng.normal(0, 0.3, params.b_hh.shape)
        params.b_out[:] = rng.normal(0, 0.3, params.b_out.shape)

        batch = int(rng.integers(1, 4))
        idx = rng.integers(1, cfg.vocab_size, size=(batch, cfg.max_len))
        lengths = rng.integers(1, cfg.max_len + 1, size=batch)
        for b in range(batch):
            idx[b, lengths[b]:] = 0
        labels = rng.integers(0, 2, size=batch)

        grads, _ = nn.backward(params, idx, lengths, labels)
        grads = dense_grads(params, grads)
        eps = 1e-5
        for name, p in params.arrays().items():
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                k = it.multi_index
                orig = p[k]
                p[k] = orig + eps
                _, up = nn.backward(params, idx, lengths, labels)
                p[k] = orig - eps
                _, down = nn.backward(params, idx, lengths, labels)
                p[k] = orig
                fd = (up - down) / (2 * eps)
                analytic = grads[name][k]
                if name == "embedding" and k[0] == 0:
                    assert analytic == 0.0
                    continue
                # denominator floored at 1e-6: below that, central-difference
                # roundoff (~1e-11 absolute) dominates and the quotient stops
                # measuring gradient correctness
                rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
                worst_overall = max(worst_overall, rel)
    assert worst_overall < 1e-4, worst_overall
    ok(4, f"20 random models: max relative gradient error "
          f"{worst_overall:.3e} < 1e-4")


def test_c05_masking_equivalence_100_cases():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        cfg = nn.ModelConfig(vocab_size=int(rng.integers(3, 10)),
                             embed_dim=int(rng.integers(1, 5)),
                             hidden_dim=int(rng.integers(1, 5)),
                             max_len=12, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=trial)
        length = int(rng.integers(1, 7))
        pad = int(rng.integers(1, 6))
        real = rng.integers(1, cfg.vocab_size, size=(1, length))
        padded = np.concatenate(
            [real, np.zeros((1, pad), dtype=np.int64)], axis=1)
        lengths = np.array([length])
        label = np.array([int(rng.integers(0, 2))])

        f_real = nn.forward_logits(params, real, lengths)
        f_pad = nn.forward_logits(params, padded, lengths)
        worst = max(worst, float(np.max(np.abs(f_real - f_pad))))

        g_real, l_real = nn.backward(params, real, lengths, label)
        g_pad, l_pad = nn.backward(params, padded, lengths, label)
        worst = max(worst, abs(l_real - l_pad))
        g_real, g_pad = dense_grads(params, g_real), dense_grads(params, g_pad)
        for name in g_real:
            worst = max(worst,
                        float(np.max(np.abs(g_real[name] - g_pad[name]))))
    assert worst < 1e-12, worst
    ok(5, f"100 padded-vs-unpadded cases: max |difference| {worst:.3e} < 1e-12")


def test_c06_overfit_capability():
    rng = np.random.default_rng(0)
    seq_len = 6
    idx = np.zeros((32, seq_len), dtype=np.int64)
    labels = (np.arange(32) % 2).astype(np.int64)
    for b in range(32):
        lo, hi = (2, 20) if labels[b] == 0 else (20, 38)
        idx[b] = rng.integers(lo, hi, size=seq_len)
    ds = EncodedDataset(idx, np.full(32, seq_len, dtype=np.int64), labels)

    # full-scale hyperparameters apart from the learning rate, which scales
    # from 0.0005 to 0.005 for the small model
    cfg = nn.ModelConfig(vocab_size=40, embed_dim=128, hidden_dim=128,
                         max_len=seq_len, fc_dropout=0.5)
    params = nn.init_params(cfg, seed=0)
    result = train(params, ds, None,
                   TrainConfig(batch_size=16, learning_rate=0.005,
                               epochs=200, seed=0))
    assert result.history[-1].train_accuracy == 1.0
    loss, acc = evaluate_split(params, ds)
    assert acc == 1.0
    assert loss < 0.01
    ok(6, f"32-example memorization: accuracy 1.0, train loss {loss:.2e} < 0.01")


def test_c07_chance_loss_sanity():
    rng = np.random.default_rng(1)
    n, seq_len, vocab = 128, 10, 50
    idx = rng.integers(1, vocab, size=(n, seq_len))
    labels = (np.arange(n) % 2).astype(np.int64)  # balanced
    ds = EncodedDataset(idx, np.full(n, seq_len, dtype=np.int64), labels)
    cfg = nn.ModelConfig(vocab_size=vocab, embed_dim=128, hidden_dim=128,
                         max_len=seq_len)
    params = nn.init_params(cfg, seed=1)
    result = train(params, ds, None,
                   TrainConfig(batch_size=16, learning_rate=5e-4, epochs=1,
                               seed=1))
    first = result.history[0].train_loss
    assert 0.68 <= first <= 0.70, first
    ok(7, f"initial-epoch loss {first:.4f} in [0.68, 0.70] "
          f"(ln 2 = {math.log(2):.4f})")


def test_c08_stemmer_golden_agreement():
    stemmer = IndonesianStemmer(load_root_words())
    pairs = [line.split("\t")
             for line in _data_text("stem_golden.tsv").split("\n") if line]
    assert len(pairs) >= 200
    mismatches = [(w, stemmer.stem(w), want)
                  for w, want in pairs if stemmer.stem(w) != want]
    assert mismatches == [], mismatches[:10]
    for word, want in pairs:
        assert stemmer.stem(want) == want, f"stem({want!r}) not idempotent"
    ok(8, f"{len(pairs)} golden pairs: 100% agreement and idempotent")


def test_c09_training_determinism(tmp_path):
    rows = []
    for i in range(12):
        rows.append((f"p{i}", "c", ["bagus enak", "mantap sehat enak",
                                    "bagus mantap"][i % 3], "positive"))
        rows.append((f"n{i}", "c", ["buruk jelek", "gagal basi jelek",
                                    "buruk gagal"][i % 3], "negative"))
    corpus = write_corpus_csv(tmp_path / "corpus.csv", rows)
    config = tmp_path / "cfg"
    config.write_text("embed_dim = 12\nhidden_dim = 12\nepochs = 5\n"
                      "batch_size = 4\nlearning_rate = 0.01\nmax_len = 6\n",
                      "utf-8")
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli.main(["--out-dir", str(out), "--seed", "17", "--quiet",
                         "train", str(corpus), "--config", str(config)])
        assert code == 0
        blobs.append((out / "history.csv").read_bytes())
    assert blobs[0] == blobs[1]
    ok(9, "two seeded cmd_train runs produced byte-identical history.csv")


def test_c10_eval_oracle_equivalence_1000_vectors():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n).tolist()
        truth = rng.integers(0, 2, n).tolist()
        rep = report(preds, truth)

        # independent recount
        tp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 0)
        tn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 0)
        fn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 1)

        def prf(tp_, fp_, fn_):
            precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
            recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            return precision, recall, f1

        pos, neg = prf(tp, fp, fn), prf(tn, fn, fp)
        assert rep.accuracy == (tp + tn) / n
        got_pos = rep.per_class[Label.POSITIVE]
        got_neg = rep.per_class[Label.NEGATIVE]
        assert (got_pos.precision, got_pos.recall, got_pos.f1) == pos
        assert (got_neg.precision, got_neg.recall, got_neg.f1) == neg
        assert rep.macro_f1 == (pos[2] + neg[2]) / 2
        weighted_f1 = (pos[2] * (tp + fn) + neg[2] * (tn + fp)) / n
        assert abs(rep.weighted_f1 - weighted_f1) < 1e-15
    ok(10, "1000 random prediction vectors match the per-sample recount oracle")
