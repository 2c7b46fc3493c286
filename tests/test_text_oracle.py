"""The text-path loops return exactly what their reference copies return.

``text_reference.py`` holds verbatim copies of ``load_csv``, ``save_csv``,
``build_vocab`` and ``linear_fit`` as they were before their loops were
made cheaper.  The rewrites do the same operations in the same order, so
datasets, vocabularies, weights and biases are compared with ``==`` and
``np.array_equal``, never with a tolerance, and written files byte for
byte.  The reference and the benchmark's corpus generator (standard
library only) are loaded by path.
"""

import csv
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentimen import ingest
from sentimen.baselines import (TfidfVectorizer, _logistic_grad, count_vector,
                                linear_fit, logistic_loss_and_grad)
from sentimen.ingest import (COLUMNS, CorpusError, Dataset, Label,
                             LabeledComment, load_csv)
from sentimen.preprocess import PreprocessConfig, run_pipeline
from sentimen.vocab import build_vocab

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "sentimen" / "data"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


reference = load("text_reference", HERE / "text_reference.py")
corpus = load("perfbench_corpus", HERE.parent / "perfbench" / "corpus.py")


# --- load_csv ------------------------------------------------------------------

def outcome(loader, path, strict):
    """The dataset a loader returns, or the message of its CorpusError."""
    try:
        return loader(path, strict=strict)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def assert_same_load(path):
    for strict in (True, False):
        assert (outcome(load_csv, path, strict)
                == outcome(reference.load_csv, path, strict)), strict


HEADER = b"id,source,text,label\r\n"
EDGE_CASES = {
    "empty_file": b"",
    "header_only": HEADER,
    "blank_first_line": b"\r\n" + HEADER + b"1,s,bagus,positive\r\n",
    "missing_column": b"id,source,text\r\n1,s,bagus\r\n",
    "utf8_bom": b"\xef\xbb\xbf" + HEADER + b"1,s,bagus,positive\r\n",
    "blank_rows_not_counted": HEADER + b"\r\n1,s,bagus,positive\r\n\r\n\r\n"
                              b"2,s,x,netral\r\n\n3,s,,negative\r\n",
    "short_rows": HEADER + b"1,s,bagus\r\n2,s\r\n3\r\n4,s,,\r\n"
                           b"5,s,enak,positive\r\n",
    "long_rows": HEADER + b"1,s,bagus,positive,extra,more\r\n"
                          b"2,s,,negative,x\r\n",
    "duplicate_name": b"id,text,source,text,label\r\n"
                      b"1,first,s,second,positive\r\n2,first,s\r\n"
                      b"3,first,s,,negative\r\n",
    "tokens_column": b"id,source,text,label,tokens\r\n"
                     b"1,s,bagus sekali,positive, bagus  sekali \r\n"
                     b"2,s,enak,negative\r\n3,s,x,netral,x\r\n"
                     b"4,s,ok,positive,\r\n",
    "quoted_commas_and_newlines": HEADER + b'1,s,"a, b\r\nc ""d""",positive\r\n'
                                           b'"",s,"\n",\r\n2,s,"x\ry",Negative\r\n',
    "field_over_limit": HEADER + b"1,s," + b"a" * (csv.field_size_limit() + 1)
                        + b",positive\r\n",
    "not_utf8_row": HEADER + b"1,s,bagus,positive\r\n\r\n2,s,\xff,negative\r\n",
    "not_utf8_header": b"\xffid,source,text,label\r\n",
    "not_utf8_row_after_bom": b"\xef\xbb\xbf" + HEADER
                              + b"1,s,bagus,positive\r\n2,s,\xff,negative\r\n",
}


@pytest.mark.parametrize("content", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_load_csv_edge_cases(tmp_path, content):
    path = tmp_path / "corpus.csv"
    path.write_bytes(content)
    assert_same_load(path)


def test_load_csv_byte_order_mark_dropped(tmp_path):
    # the mark is not part of the first column name, and a bad byte's row
    # number counts the rows as without it
    for name in ("utf8_bom", "not_utf8_row_after_bom"):
        content = EDGE_CASES[name]
        marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
        marked.write_bytes(content)
        plain.write_bytes(content[3:])
        want = outcome(load_csv, plain, True)
        assert outcome(load_csv, marked, True) == (
            want.replace(str(plain), str(marked)) if isinstance(want, str)
            else want)
    assert "row 3: not UTF-8 text" in want


# cells with quotes, commas and line breaks, and labels of every kind
CELLS = (st.sampled_from(["positive", "negative", "", " Positive ", "netral"])
         | st.text('ab ,"\r\n\té', max_size=8))


@st.composite
def corpus_files(draw):
    """CSV text whose header usually has every column, sometimes repeated
    or joined by others, and whose rows are blank, short or long."""
    extra = draw(st.lists(st.sampled_from(COLUMNS + ("tokens", "x")),
                          max_size=3))
    if draw(st.integers(0, 4)):
        extra = list(COLUMNS) + extra
    header = draw(st.permutations(extra))
    rows = draw(st.lists(st.just([]) | st.lists(CELLS, max_size=len(header) + 2),
                         max_size=8))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header] + rows)
    return buf.getvalue()


def check_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        path.write_text(text, "utf-8", newline="")
        assert_same_load(path)


@settings(max_examples=300, deadline=None)
@given(corpus_files())
def test_load_csv_written_files(text):
    check_text(text)


@settings(max_examples=200, deadline=None)
@given(st.text('ab,"\r\n', max_size=40))
def test_load_csv_raw_text(body):
    check_text("id,source,text,label,tokens\n" + body)


# --- save_csv ------------------------------------------------------------------

# every character the writer quotes on, line breaks of each kind, and
# characters it passes through: NUL, a vertical tab, non-ASCII, an emoji
WRITTEN = (st.lists(st.sampled_from(["a", " ", ",", '"', "\r", "\n", "\r\n",
                                     "\x00", "\x0b", "\t", "é", "\U0001F600"]),
                    max_size=8).map("".join)
           | st.text(max_size=6))
LABELS = st.sampled_from([None, Label.NEGATIVE, Label.POSITIVE])
EXTRA_NAMES = ("tokens", "x", "a,b", 'q"uote', "line\nbreak")


@st.composite
def saved_corpora(draw, key=WRITTEN):
    """(records, extra columns); ids and sources are drawn from ``key``."""
    records = draw(st.lists(st.builds(LabeledComment, key, key, WRITTEN, LABELS,
                                      tokens=st.none()),
                            max_size=6))
    names = draw(st.lists(st.sampled_from(EXTRA_NAMES), unique=True, max_size=2))
    extra = {name: draw(st.lists(WRITTEN, min_size=len(records),
                                 max_size=len(records)))
             for name in names}
    return records, extra


def written_bytes(writer, records, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        writer(Dataset(tuple(records)), path, extra_columns=extra)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(saved_corpora())
@example(([LabeledComment("1", "s", "a\rb", Label.POSITIVE)], {}))
@example(([LabeledComment("1", "s", 'kata "aneh"', None)], {"tokens": ["x"]}))
def test_save_csv_bytes(corpus_and_extra):
    records, extra = corpus_and_extra
    assert (written_bytes(ingest.save_csv, records, extra)
            == written_bytes(reference.save_csv, records, extra))


@settings(max_examples=300, deadline=None)
@given(saved_corpora(key=WRITTEN.map(str.strip)))
@example(([LabeledComment("1", "s", "a\rb", Label.POSITIVE)], {}))
@example(([LabeledComment("1", "s", 'kata "aneh"', None)], {}))
def test_save_csv_round_trip(corpus_and_extra):
    # load_csv strips ids and sources, and rejects a labeled blank text
    records = [r for r in corpus_and_extra[0]
               if r.label is None or r.text.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        ingest.save_csv(Dataset(tuple(records)), path)
        assert load_csv(path).records == tuple(records)


# --- build_vocab ---------------------------------------------------------------

def assert_same_vocab(docs, min_freq):
    got = build_vocab(docs, min_freq)
    want = reference.build_vocab(docs, min_freq)
    # the same tokens at the same indices, in the same insertion order
    assert list(got.token_to_index.items()) == list(want.token_to_index.items())
    assert list(got.index_to_token.items()) == list(want.index_to_token.items())


# a handful of tokens, so that many share a frequency
TOKENS = st.sampled_from(["a", "b", "ab", "ba", "B", "é", "aa"]) | st.text(
    "ab", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=8), min_size=1, max_size=12),
       st.integers(1, 3))
def test_build_vocab_ties(docs, min_freq):
    assert_same_vocab(docs, min_freq)


# --- linear_fit ----------------------------------------------------------------

def assert_same_fit(x, labels, objective, epochs, seed):
    got = linear_fit(x, labels, objective=objective, epochs=epochs, seed=seed)
    want = reference.linear_fit(x, labels, objective=objective, epochs=epochs,
                                seed=seed)
    assert np.array_equal(got.w, want.w)
    assert got.b == want.b


def tfidf(docs, vocab):
    counts = count_vector(docs, vocab)
    return TfidfVectorizer.fit(counts).transform(counts)


@pytest.mark.parametrize("objective,epochs,seed", [
    ("logistic", 200, 5), ("hinge", 1, 0), ("hinge", 30, 5), ("hinge", 30, 11)])
def test_fits_on_random_corpus(random_corpus, objective, epochs, seed):
    train_docs, labels, _, vocab = random_corpus
    assert_same_fit(tfidf(train_docs, vocab), labels, objective, epochs, seed)


def test_logistic_loss_and_grad(random_corpus):
    train_docs, labels, _, vocab = random_corpus
    x = tfidf(train_docs, vocab)
    ys = np.where(np.array(labels) == 1, 1.0, -1.0)
    w = np.random.default_rng(0).normal(0, 0.5, x.n_cols)
    loss, grad_w, grad_b = logistic_loss_and_grad(w, 0.3, x, ys, 0.01)
    want_loss, want_w, want_b = reference.logistic_loss_and_grad(w, 0.3, x, ys,
                                                                 0.01)
    assert loss == want_loss and grad_b == want_b
    assert np.array_equal(grad_w, want_w)
    only_w, only_b = _logistic_grad(w, 0.3, x, ys, 0.01)
    assert np.array_equal(only_w, want_w) and only_b == want_b


# --- the benchmark's seed-3 corpus ---------------------------------------------

@pytest.fixture(scope="module")
def seed3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed3") / "corpus.csv"
    corpus.write_csv(corpus.generate(corpus.Dictionaries.read(DATA),
                                     corpus.PAPER_SHAPE, 3), path)
    return path


@pytest.fixture(scope="module")
def seed3_train(seed3_csv):
    """Tokens and labels of the program's training split of the corpus."""
    labeled = load_csv(seed3_csv).labeled_only().records
    train, _, _ = ingest.stratified_indices([r.label for r in labeled],
                                            ingest.SplitSpec())
    cfg = PreprocessConfig.default()
    return ([run_pipeline(labeled[i].text, cfg) for i in train],
            [int(labeled[i].label) for i in train])


def test_seed3_load_csv(seed3_csv):
    assert_same_load(seed3_csv)


def test_seed3_save_csv(seed3_csv):
    # the corpus as the preprocess command writes it, tokens column included
    records = load_csv(seed3_csv).records
    cfg = PreprocessConfig.default()
    extra = {"tokens": [" ".join(run_pipeline(r.text, cfg)) for r in records]}
    assert (written_bytes(ingest.save_csv, records, extra)
            == written_bytes(reference.save_csv, records, extra))


@pytest.mark.parametrize("min_freq", [1, 2, 3])
def test_seed3_build_vocab(seed3_train, min_freq):
    assert_same_vocab(seed3_train[0], min_freq)


# the two fits run_comparison makes
@pytest.mark.parametrize("objective,epochs", [("logistic", 200), ("hinge", 30)])
def test_seed3_fits(seed3_train, objective, epochs):
    docs, labels = seed3_train
    assert_same_fit(tfidf(docs, build_vocab(docs)), labels, objective, epochs,
                    seed=0)
