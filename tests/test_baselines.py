import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen import baselines
from sentimen.baselines import (ComparisonRow, LinearModel, TfidfVectorizer,
                                compare_models, count_vector, linear_fit,
                                logistic_loss_and_grad, majority_class,
                                nb_fit, run_comparison)
from sentimen.ingest import Label
from sentimen.seeds import stream
from sentimen.vocab import build_vocab


def _dense(m):
    out = np.zeros((m.n_rows, m.n_cols))
    out[m.rows, m.indices] = m.data
    return out


@pytest.fixture
def small_vocab():
    return build_vocab([["bagus", "buruk", "enak", "jelek"]])


class TestTfidf:
    def test_single_doc_single_token(self):
        counts = count_vector([["bagus"]], build_vocab([["bagus"]]))
        vec = TfidfVectorizer.fit(counts)
        # idf = ln(2/2) + 1 = 1; single-component vector normalizes to 1.0
        assert vec.idf.tolist() == [1.0]
        out = vec.transform(counts)
        assert out.data.tolist() == [1.0]

    def test_empty_doc_zero_vector(self, small_vocab):
        vec = TfidfVectorizer.fit(count_vector([["bagus"]], small_vocab))
        out = vec.transform(count_vector([[]], small_vocab))
        assert out.n_rows == 1 and out.indices.size == 0
        assert np.all(_dense(out) == 0.0)

    def test_oov_token_ignored(self, small_vocab):
        vec = TfidfVectorizer.fit(count_vector([["bagus"]], small_vocab))
        assert vec.transform(count_vector([["zzz"]], small_vocab)).indices.size == 0

    def test_doubled_document_same_direction(self, small_vocab):
        vec = TfidfVectorizer.fit(count_vector([["bagus", "enak"], ["buruk"]],
                                               small_vocab))
        doc = ["bagus", "enak", "enak"]
        once, twice = _dense(vec.transform(count_vector([doc, doc + doc],
                                                        small_vocab)))
        assert np.allclose(once, twice, atol=1e-12)

    def test_l2_normalized(self, small_vocab):
        vec = TfidfVectorizer.fit(count_vector([["bagus", "enak"], ["jelek"]],
                                               small_vocab))
        out = vec.transform(count_vector([["bagus", "jelek", "jelek"]],
                                         small_vocab))
        assert np.linalg.norm(out.data) == pytest.approx(1.0, rel=1e-12)


class TestNaiveBayes:
    def test_hand_computed_posterior(self):
        # V=2, alpha=1: P(pos|bagus) = (0.5 * 2/3) / (0.5 * 2/3 + 0.5 * 1/3)
        vocab = build_vocab([["bagus"], ["buruk"]])
        model = nb_fit(count_vector([["bagus"], ["buruk"]], vocab),
                       [Label.POSITIVE, Label.NEGATIVE])
        counts = count_vector([["bagus"]], vocab)
        assert model.predict(counts).tolist() == [Label.POSITIVE]
        (posterior,) = np.exp(model.log_posteriors(counts))
        assert posterior[Label.POSITIVE] == pytest.approx(2 / 3, rel=1e-12)

    def test_single_class_always_predicted(self):
        vocab = build_vocab([["bagus"], ["enak"]])
        model = nb_fit(count_vector([["bagus"], ["enak"]], vocab),
                       [Label.POSITIVE, Label.POSITIVE])
        docs = [["bagus"], ["enak"], ["zzz"], []]
        assert model.predict(count_vector(docs, vocab)).tolist() == [Label.POSITIVE] * 4

    def test_empty_doc_falls_back_to_priors(self):
        vocab = build_vocab([["bagus"], ["buruk"]])
        model = nb_fit(count_vector([["buruk"], ["buruk"], ["bagus"]], vocab),
                       [0, 0, 1])
        assert model.predict(count_vector([[]], vocab)).tolist() == [Label.NEGATIVE]

    def test_no_documents_rejected(self):
        vocab = build_vocab([["a"]])
        with pytest.raises(ValueError):
            nb_fit(count_vector([], vocab), [])

    @given(st.lists(st.sampled_from(["bagus", "buruk", "enak", "jelek"]),
                    max_size=8))
    @settings(max_examples=50)
    def test_posteriors_sum_to_one(self, doc):
        vocab = build_vocab([["bagus", "buruk", "enak", "jelek"]])
        model = nb_fit(count_vector([["bagus", "enak"], ["buruk", "jelek"]],
                                    vocab), [1, 0])
        (posterior,) = np.exp(model.log_posteriors(count_vector([doc], vocab)))
        assert abs(posterior.sum() - 1.0) <= 1e-12


def separable_toy():
    docs = [["bagus"], ["enak"], ["buruk"], ["jelek"]]
    labels = [Label.POSITIVE, Label.POSITIVE, Label.NEGATIVE, Label.NEGATIVE]
    vocab = build_vocab(docs)
    counts = count_vector(docs, vocab)
    vec = TfidfVectorizer.fit(counts)
    return vec.transform(counts), labels, vocab, vec


class TestLinearModels:
    def test_separable_perfect_fit_both_objectives(self):
        x, labels, _, _ = separable_toy()
        for objective in ("logistic", "hinge"):
            model = linear_fit(x, labels, objective=objective, epochs=300,
                               seed=1)
            assert model.predict(x).tolist() == labels, objective

    def test_huge_regularization_shrinks_weights(self):
        x, labels, _, _ = separable_toy()
        # lr * l2 must stay below 1 for plain GD to contract
        model = linear_fit(x, labels, objective="logistic", l2=1e6,
                           lr=1e-7, epochs=50)
        assert np.max(np.abs(model.w)) < 1e-3
        assert abs(model.score(x)[0]) < 1e-3

    def test_exact_zero_score_ties_to_negative(self):
        x, _, _, _ = separable_toy()
        model = LinearModel(w=np.zeros(x.n_cols), b=0.0)
        assert model.predict(x)[0] == Label.NEGATIVE

    def test_logistic_gradient_matches_finite_differences(self):
        x, labels, _, _ = separable_toy()
        ys = np.array([1.0 if int(l) == 1 else -1.0 for l in labels])
        rng = np.random.default_rng(0)
        w = rng.normal(0, 0.5, x.n_cols)
        b = 0.3
        _, grad_w, grad_b = logistic_loss_and_grad(w, b, x, ys, l2=0.01)
        eps = 1e-7
        for j in range(len(w)):
            w[j] += eps
            up, _, _ = logistic_loss_and_grad(w, b, x, ys, l2=0.01)
            w[j] -= 2 * eps
            down, _, _ = logistic_loss_and_grad(w, b, x, ys, l2=0.01)
            w[j] += eps
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad_w[j]) / max(abs(fd), abs(grad_w[j]), 1e-8) < 1e-6

    def test_logistic_loss_decreases_monotonically(self):
        x, labels, _, _ = separable_toy()
        ys = np.array([1.0 if int(l) == 1 else -1.0 for l in labels])
        w = np.zeros(x.n_cols)
        b = 0.0
        losses = []
        for _ in range(40):
            loss, grad_w, grad_b = logistic_loss_and_grad(w, b, x, ys, 1e-4)
            losses.append(loss)
            w -= 0.5 * grad_w
            b -= 0.5 * grad_b
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_determinism_fixed_seed(self):
        x, labels, _, _ = separable_toy()
        a = linear_fit(x, labels, objective="hinge", epochs=20, seed=9)
        b = linear_fit(x, labels, objective="hinge", epochs=20, seed=9)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    def test_unknown_objective(self):
        x, labels, _, _ = separable_toy()
        with pytest.raises(ValueError, match="objective"):
            linear_fit(x, labels, objective="quadratic")

    @pytest.mark.parametrize("objective", ["logistic", "hinge"])
    def test_no_documents_rejected(self, small_vocab, objective):
        x = count_vector([], small_vocab)
        with pytest.raises(ValueError, match="no training documents"):
            linear_fit(x, [], objective=objective)


class TestComparison:
    def test_majority_class(self):
        assert majority_class([0, 0, 1]) == Label.NEGATIVE
        assert majority_class([1, 1, 0]) == Label.POSITIVE
        assert majority_class([0, 1]) == Label.NEGATIVE  # tie rule

    def test_degenerate_one_class_test_set(self):
        docs = [["bagus"], ["enak"], ["buruk"], ["jelek"]]
        labels = [1, 1, 0, 0]
        vocab = build_vocab(docs)
        rows = run_comparison(docs, labels, [["bagus"], ["enak"]], [1, 1],
                              vocab)
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
        named = {r.model: r for r in rows}
        assert named["naive_bayes"].accuracy == 1.0
        assert named["majority"].accuracy == 0.0  # majority class is negative

    def test_table_format(self):
        rows = [ComparisonRow("a_model", 0.5, 0.25),
                ComparisonRow("b", 1.0, 1.0)]
        table = compare_models(rows)
        lines = table.splitlines()
        assert lines[0].split() == ["model", "accuracy", "macro_f1"]
        assert len(lines) == 3
        assert "0.5000" in lines[1] and "0.2500" in lines[1]

    def test_all_models_beat_or_match_majority_on_separable_data(self):
        docs = ([["bagus", "enak"]] * 6 + [["buruk", "jelek"]] * 10)
        labels = [1] * 6 + [0] * 10
        vocab = build_vocab(docs)
        rows = run_comparison(docs, labels, docs, labels, vocab)
        named = {r.model: r for r in rows}
        floor = named["majority"].accuracy
        for name in ("naive_bayes", "logistic_regression", "linear_svm"):
            assert named[name].accuracy >= floor

    @pytest.mark.parametrize("include,objectives", [
        (baselines.MODELS, ["logistic", "hinge"]),
        (("linear_svm",), ["hinge"]),
        (("logistic_regression",), ["logistic"]),
        (("majority", "naive_bayes"), []),
    ])
    def test_fits_through_the_module_linear_fit(self, monkeypatch, include,
                                                objectives):
        # the benchmark swaps baselines.linear_fit to keep the fitted SVM,
        # scores that model, and splits its timing by the objective keyword
        docs = [["bagus", "enak"], ["buruk"], ["enak"], ["jelek", "buruk"]]
        labels = [1, 0, 1, 0]
        calls = []
        fit = baselines.linear_fit

        def spy(x, labels, **kwargs):
            calls.append(kwargs["objective"])
            fit(x, labels, **kwargs)
            # the real fits separate these documents; this model calls
            # every document Positive, so its rows read accuracy 0.5
            return LinearModel(w=np.zeros(x.n_cols), b=1.0)

        monkeypatch.setattr(baselines, "linear_fit", spy)
        rows = run_comparison(docs, labels, docs, labels, build_vocab(docs),
                              include=include)
        assert calls == objectives
        linear = [r.accuracy for r in rows
                  if r.model in ("logistic_regression", "linear_svm")]
        assert linear == [0.5] * len(objectives)

    @pytest.mark.parametrize("include", [
        baselines.MODELS, ("majority",), ("naive_bayes",),
        ("logistic_regression",), ("linear_svm",), ("majority", "linear_svm"),
    ])
    def test_counts_each_split_once(self, monkeypatch, include):
        docs = [["bagus", "enak"], ["buruk"], ["enak"], ["jelek", "buruk"]]
        labels = [1, 0, 1, 0]
        counted = []
        count = baselines.count_vector

        def spy(split, vocab):
            counted.append(split)
            return count(split, vocab)

        monkeypatch.setattr(baselines, "count_vector", spy)
        train, test = docs, docs[:3]
        run_comparison(train, labels, test, labels[:3], build_vocab(docs),
                       include=include)
        assert counted == ([] if include == ("majority",) else [train, test])

    def test_unknown_model_rejected_before_counting(self, monkeypatch):
        docs = [["bagus"], ["buruk"]]
        counted = []
        monkeypatch.setattr(baselines, "count_vector",
                            lambda split, vocab: counted.append(split))
        with pytest.raises(ValueError, match="naive_bayse"):
            run_comparison(docs, [1, 0], docs, [1, 0], build_vocab(docs),
                           include=("naive_bayes", "naive_bayse"))
        assert counted == []


# --- oracle: the per-document SparseVec implementation the matrix code replaced

@dataclass(frozen=True)
class _SparseVec:
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    def dot(self, dense):
        return float(dense[self.cols] @ self.vals)


def _oracle_counts(tokens, vocab):
    counts = Counter(vocab.token_to_index[t] - 2 for t in tokens
                     if t in vocab.token_to_index)
    cols = np.array(sorted(counts), dtype=np.int64)
    return cols, np.array([counts[c] for c in cols], dtype=np.float64)


def _oracle_tfidf(train_docs, docs, vocab):
    n_features = vocab.size - 2
    df = np.zeros(n_features, dtype=np.int64)
    for tokens in train_docs:
        df[_oracle_counts(tokens, vocab)[0]] += 1
    idf = np.log((1.0 + len(train_docs)) / (1.0 + df)) + 1.0
    out = []
    for tokens in docs:
        cols, vals = _oracle_counts(tokens, vocab)
        vals = vals * idf[cols]
        norm = np.linalg.norm(vals)
        if norm > 0:
            vals /= norm
        out.append(_SparseVec(cols, vals, n_features))
    return out


def _oracle_nb_log_posteriors(train_docs, labels, docs, vocab):
    class_counts = np.zeros(2)
    word_counts = np.zeros((2, vocab.size - 2))
    for tokens, label in zip(train_docs, labels):
        class_counts[label] += 1
        for t in tokens:
            if t in vocab.token_to_index:
                word_counts[label, vocab.token_to_index[t] - 2] += 1
    with np.errstate(divide="ignore"):
        log_priors = np.log(class_counts / class_counts.sum())
    smoothed = word_counts + 1.0
    log_likelihoods = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    out = []
    for tokens in docs:
        cols, vals = _oracle_counts(tokens, vocab)
        scores = log_priors + log_likelihoods[:, cols] @ vals
        m = float(np.max(scores))
        out.append(scores - (m + math.log(float(np.exp(scores - m).sum()))))
    return np.array(out)


def _oracle_neg_sigmoid(margin):
    if margin >= 0:
        e = math.exp(-margin)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(margin))


def _oracle_linear_fit(xs, labels, objective, epochs, seed=0, l2=1e-4, lr=1.0):
    ys = np.array([1.0 if int(l) == 1 else -1.0 for l in labels])
    w = np.zeros(xs[0].dim)
    b = 0.0
    if objective == "logistic":
        n = len(xs)
        for _ in range(epochs):
            grad_w = l2 * w
            grad_b = 0.0
            for x, y in zip(xs, ys):
                s = -y * _oracle_neg_sigmoid(y * (x.dot(w) + b))
                grad_w[x.cols] += (s / n) * x.vals
                grad_b += s / n
            w -= lr * grad_w
            b -= lr * grad_b
        return w, b
    rng = stream(seed, "svm")
    lam = l2
    t = 0
    for _ in range(epochs):
        for j in rng.permutation(len(xs)):
            t += 1
            eta = 1.0 / (lam * t)
            x, y = xs[j], ys[j]
            margin = y * (x.dot(w) + b)
            w *= (1.0 - eta * lam)
            if margin < 1.0:
                w[x.cols] += eta * y * x.vals
                b += eta * y
    return w, b


def _oracle_dense(xs):
    out = np.zeros((len(xs), xs[0].dim))
    for i, x in enumerate(xs):
        out[i, x.cols] = x.vals
    return out


class TestMatrixAgainstPerDocumentOracle:
    TOL = 1e-12

    def test_tfidf_values(self, random_corpus):
        train_docs, _, test_docs, vocab = random_corpus
        vec = TfidfVectorizer.fit(count_vector(train_docs, vocab))
        for docs in (train_docs, test_docs):
            want = _oracle_dense(_oracle_tfidf(train_docs, docs, vocab))
            got = _dense(vec.transform(count_vector(docs, vocab)))
            assert np.max(np.abs(got - want)) <= self.TOL

    def test_naive_bayes_log_posteriors(self, random_corpus):
        train_docs, labels, test_docs, vocab = random_corpus
        model = nb_fit(count_vector(train_docs, vocab), labels)
        got = model.log_posteriors(count_vector(test_docs, vocab))
        want = _oracle_nb_log_posteriors(train_docs, labels, test_docs, vocab)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= self.TOL

    @pytest.mark.parametrize("objective,epochs",
                             [("logistic", 200), ("hinge", 4), ("hinge", 30)])
    def test_linear_weights(self, random_corpus, objective, epochs):
        train_docs, labels, _, vocab = random_corpus
        counts = count_vector(train_docs, vocab)
        x = TfidfVectorizer.fit(counts).transform(counts)
        model = linear_fit(x, labels, objective=objective, epochs=epochs, seed=5)
        w, b = _oracle_linear_fit(_oracle_tfidf(train_docs, train_docs, vocab),
                                  labels, objective, epochs, seed=5)
        assert np.max(np.abs(model.w - w)) <= self.TOL
        assert abs(model.b - b) <= self.TOL

    @pytest.mark.parametrize("docs,labels,epochs", [
        ([["bagus", "enak"]], [1], 1),            # the t = 1 step alone
        ([["buruk"]], [0], 3),
        ([[], ["bagus", "enak"], [], ["buruk", "jelek", "buruk"], [],
          ["enak"]], [0, 1, 1, 0, 1, 1], 7),     # empty rows take steps too
        ([[], []], [1, 0], 2),                   # every row empty
    ])
    def test_hinge_small_corpora(self, docs, labels, epochs):
        vocab = build_vocab([["bagus", "enak", "buruk", "jelek"]])
        counts = count_vector(docs, vocab)
        x = TfidfVectorizer.fit(counts).transform(counts)
        model = linear_fit(x, labels, objective="hinge", epochs=epochs, seed=2)
        w, b = _oracle_linear_fit(_oracle_tfidf(docs, docs, vocab), labels,
                                  "hinge", epochs, seed=2)
        assert np.max(np.abs(model.w - w)) <= self.TOL
        assert abs(model.b - b) <= self.TOL
