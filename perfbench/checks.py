"""Correctness checks of one run's outputs against reference.py.

Each check returns a list of problems; an empty list means the outputs
hold.  Tolerances admit float32 rounding and BLAS summation order and
nothing more; no check compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref

_TOKEN = re.compile(r"[a-z]+")


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Inputs:
    """What run.py generated, as the checks need it."""

    def __init__(self, spec: dict, dicts: ref.TextDictionaries, stem):
        self.spec = spec
        self.dicts = dicts
        self.stem = stem  # the program's stemmer, applied to reference tokens
        self.comments = {c["id"]: c for c in
                         json.loads(Path(spec["comments"]).read_text("utf-8"))}
        self.split = json.loads(Path(spec["split"]).read_text("utf-8"))
        self._tokens: dict[str, list[str]] = {}
        self.svm_inputs = (json.loads(Path(spec["svm_inputs"]).read_text("utf-8"))
                           if "svm_inputs" in spec else None)  # text_baselines

    def tokens(self, cid: str) -> list[str]:
        """Reference steps 1-5 for one comment."""
        if cid not in self._tokens:
            self._tokens[cid] = ref.tokens_before_stemming(
                self.comments[cid]["text"], self.dicts)
        return self._tokens[cid]

    def stemmed(self, cid: str) -> list[str]:
        return [self.stem(t) for t in self.tokens(cid)]

    def labels(self, ids: list[str]) -> np.ndarray:
        return np.array([1 if self.comments[i]["label"] == "positive" else 0
                         for i in ids])


def _model_logits(inp: Inputs, ckpt_path: Path, vocab_path: Path,
                  ids: list[str]) -> tuple[ref.Checkpoint, np.ndarray, np.ndarray]:
    tokens, max_len = ref.read_vocab(vocab_path)
    ckpt = ref.read_checkpoint(ckpt_path)
    index = {t: i + 2 for i, t in enumerate(tokens)}
    rows, lengths = ref.encode_rows([inp.stemmed(i) for i in ids], index, max_len)
    return ckpt, ref.lstm_logits(ckpt, rows, lengths), lengths


# --- train_paper --------------------------------------------------------------

def check_train(inp: Inputs, run_dir: Path, rounds: int) -> list[str]:
    problems = []
    val_ids = inp.split["val"]
    labels = inp.labels(val_ids)
    for k in range(rounds):
        out = run_dir / f"round{k}"
        history = _read_rows(out / "history.csv")
        if len(history) != inp.spec["epochs"]:
            problems.append(f"round {k}: {len(history)} history rows")
            continue
        val_loss = float(history[-1]["val_loss"])
        ckpt, logits, _ = _model_logits(inp, out / "checkpoint.bin",
                                        out / "vocab.txt", val_ids)
        loss = float(-ref.log_softmax(logits)[np.arange(len(labels)), labels].mean())
        if not abs(val_loss - loss) <= 1e-4 * abs(loss):
            problems.append(f"round {k}: val_loss {val_loss!r} vs reference {loss!r}")
        if not (math.isfinite(val_loss) and val_loss < math.log(2)):
            problems.append(f"round {k}: val_loss {val_loss!r} not below ln 2")
        tokens, _ = ref.read_vocab(out / "vocab.txt")
        d = ckpt.dims
        v = len(tokens) + 2
        want = ref.parameter_count(v, d["embed_dim"], d["hidden_dim"], d["num_classes"])
        have = sum(a.size for a in ckpt.arrays.values())
        if d["vocab_size"] != v or have != want:
            problems.append(f"round {k}: {have} parameters for V={v}, expected {want}")
        if np.any(ckpt.arrays["embedding"][0] != 0):
            problems.append(f"round {k}: PAD embedding row is not zero")
    return problems


# --- infer_paper --------------------------------------------------------------

def _f1(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def check_infer(inp: Inputs, run_dir: Path, rounds: int) -> list[str]:
    problems = []
    spec = inp.spec
    test_ids = inp.split["test"]
    truth = inp.labels(test_ids)
    _, logits, lengths = _model_logits(inp, Path(spec["checkpoint"]),
                                       Path(spec["vocab"]), test_ids)
    p_pos = np.exp(ref.log_softmax(logits))[:, 1]
    live = lengths > 0
    sure_pos = live & (p_pos > 0.5) & (np.abs(p_pos - 0.5) >= 1e-4)
    unsure = live & (np.abs(p_pos - 0.5) < 1e-4)

    unl_ids = inp.split["unlabeled"]
    _, unl_logits, unl_lengths = _model_logits(inp, Path(spec["checkpoint"]),
                                               Path(spec["vocab"]), unl_ids)
    unl_probs = np.exp(ref.log_softmax(unl_logits))

    for k in range(rounds):
        out = run_dir / f"round{k}"
        cm = {r[""]: r for r in _read_rows(out / "confusion.csv")}
        tp = int(cm["actual_positive"]["predicted_positive"])
        fn = int(cm["actual_positive"]["predicted_negative"])
        fp = int(cm["actual_negative"]["predicted_positive"])
        tn = int(cm["actual_negative"]["predicted_negative"])
        for actual, predicted_pos, name in ((1, tp, "tp"), (0, fp, "fp")):
            row = truth == actual
            lo = int((sure_pos & row).sum())
            hi = lo + int((unsure & row).sum())
            if not lo <= predicted_pos <= hi:
                problems.append(f"round {k}: {name}={predicted_pos}, reference {lo}..{hi}")
        n_pos, n_neg = int(truth.sum()), int((1 - truth).sum())
        report = {r["row"]: r for r in _read_rows(out / "report.csv")}
        if (int(report["positive"]["support"]) != n_pos
                or int(report["negative"]["support"]) != n_neg
                or tp + fn != n_pos or fp + tn != n_neg):
            problems.append(f"round {k}: supports differ from the {n_pos}/{n_neg} "
                            "labels written")
        total = tp + fp + tn + fn
        expect = {("accuracy", "f1"): (tp + tn) / total,
                  ("positive", "f1"): _f1(tp, fp, fn),
                  ("negative", "f1"): _f1(tn, fn, fp)}
        expect[("macro_avg", "f1")] = (expect[("positive", "f1")]
                                       + expect[("negative", "f1")]) / 2
        for (row, col), value in expect.items():
            if not math.isclose(float(report[row][col]), value, rel_tol=1e-12,
                                abs_tol=1e-12):
                problems.append(f"round {k}: report {row}.{col} {report[row][col]} "
                                f"does not follow from the confusion counts ({value})")

        preds = json.loads((out / "predictions.json").read_text("utf-8"))
        probs = np.array(preds["probabilities"], dtype=np.float64)
        if probs.shape != unl_probs.shape:
            problems.append(f"round {k}: {probs.shape[0]} predictions for "
                            f"{len(unl_ids)} comments")
            continue
        worst = float(np.abs(probs - unl_probs).max())
        if not worst <= 1e-4:
            problems.append(f"round {k}: predict probabilities off by {worst:.3g}")
        if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
            problems.append(f"round {k}: predict probabilities do not sum to 1")
        low = np.array(preds["low_confidence"])
        if not np.array_equal(low, unl_lengths == 0):
            problems.append(f"round {k}: low_confidence flags differ from the "
                            f"{int((unl_lengths == 0).sum())} empty comments")
    return problems


# --- text_baselines ------------------------------------------------------------

def _token_problems(inp: Inputs, cid: str, tokens: list[str]) -> str | None:
    want = inp.tokens(cid)
    if len(tokens) != len(want):
        return f"{cid}: {len(tokens)} tokens, reference {len(want)}"
    for t, r in zip(tokens, want):
        if not _TOKEN.fullmatch(t):
            return f"{cid}: token {t!r} is not [a-z]+"
        if t != r and t not in inp.dicts.roots:
            return f"{cid}: {r!r} became {t!r}, which is not a root"
        if r in inp.dicts.golden and t != inp.dicts.golden[r]:
            return f"{cid}: {r!r} stemmed to {t!r}, golden {inp.dicts.golden[r]!r}"
    return None


def _baseline_problems(inp: Inputs, tokens: dict[str, list[str]],
                       result: dict) -> list[str]:
    problems = []
    train_ids, test_ids = inp.split["train"], inp.split["test"]
    y_train, y_test = inp.labels(train_ids), inp.labels(test_ids)
    train_docs = [tokens[i] for i in train_ids]
    test_docs = [tokens[i] for i in test_ids]
    columns = {t: c for c, t in enumerate(result["columns"])}
    if set(columns) != {t for d in train_docs for t in d}:
        problems.append("feature columns are not the training tokens")
        return problems
    train_counts = ref.count_matrix(train_docs, columns)
    test_counts = ref.count_matrix(test_docs, columns)
    rows = result["rows"]

    def compare(name: str, score: np.ndarray) -> None:
        acc = float(((score > 0).astype(int) == y_test).mean())
        slack = float((np.abs(score) < 1e-9).mean())
        have = rows[name]["accuracy"]
        if abs(have - acc) > slack:
            problems.append(f"{name} accuracy {have:.6f}, reference {acc:.6f}")

    compare("naive_bayes", ref.naive_bayes_margin(train_counts, y_train, test_counts))
    train_x, test_x = ref.tfidf(train_counts, test_counts)
    w, b = ref.logistic_fit(train_x, y_train, l2=1e-4, lr=1.0, epochs=200)
    compare("logistic_regression", test_x.matvec(w) + b)
    return problems


def _svm_objective(inp: Inputs, result: dict) -> float:
    """Hinge objective of the SVM fitted on the fixed inputs."""
    fixed = inp.svm_inputs
    columns = {t: c for c, t in enumerate(result["svm_columns"])}
    counts = ref.count_matrix(fixed["train_docs"], columns)
    train_x, _ = ref.tfidf(counts, counts)
    return ref.hinge_objective(train_x, np.array(fixed["train_labels"]),
                               np.array(result["svm_w"]), result["svm_b"], lam=1e-4)


def check_text(inp: Inputs, run_dir: Path, rounds: int) -> list[str]:
    problems = []
    ids = inp.split["all"]
    for k in range(rounds):
        out = run_dir / f"round{k}"
        rows = _read_rows(out / "tokenized.csv")
        if [r["id"] for r in rows] != ids:
            problems.append(f"round {k}: preprocess output lost or reordered rows")
            continue
        tokens = {r["id"]: r["tokens"].split() for r in rows}
        result = json.loads((out / "baselines.json").read_text("utf-8"))
        single = dict(zip(ids, result["single"]))
        for source in (tokens, single):
            found = next(filter(None, (_token_problems(inp, cid, toks)
                                       for cid, toks in source.items())), None)
            if found:
                problems.append(f"round {k}: {found}")
        problems += [f"round {k}: {p}" for p in _baseline_problems(inp, tokens, result)]
        svm_tokens = {t for d in inp.svm_inputs["train_docs"] for t in d}
        if set(result["svm_columns"]) != svm_tokens:
            problems.append(f"round {k}: SVM feature columns are not the training tokens")
    return problems


def failed_operations(workload: str, inp: Inputs, run_dir: Path,
                      rounds: int) -> list[str]:
    """Operations whose output is wrong in every round, whatever the seed:
    the SVM fit on the fixed inputs ends with a hinge objective not below
    1.0, its value at w = 0.  The checks above cover the other operations."""
    if workload != "text_baselines":
        return []
    faults = []
    for k in range(rounds):
        result = json.loads((run_dir / f"round{k}" / "baselines.json").read_text("utf-8"))
        objective = _svm_objective(inp, result)
        if not objective < 1.0:
            faults.append(f"round {k}: SVM hinge objective {objective:.6f} "
                          f"not below 1.0 at w = 0")
    return faults


CHECKS = {"train_paper": check_train, "infer_paper": check_infer,
          "text_baselines": check_text}
