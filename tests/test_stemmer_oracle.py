"""The stemmer returns the stems of its reference implementation.

``stemmer_reference.py`` is a verbatim copy of the stemmer as it was when it
matched its affixes with regexes.  It applies the same rules in the same
order, so any word on which the two disagree is a change in how a rule is
matched.  Both files are loaded by path, as is the benchmark's corpus
generator (it imports only the standard library).
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen.preprocess import _data_text, case_fold, clean, load_root_words
from sentimen.stemmer import IndonesianStemmer

from conftest import load_by_path

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "sentimen" / "data"

Reference = load_by_path("stemmer_reference",
                         HERE / "stemmer_reference.py").IndonesianStemmer
corpus = load_by_path("perfbench_corpus", HERE.parent / "perfbench" / "corpus.py")

ROOTS = load_root_words()
SORTED_ROOTS = sorted(ROOTS)
# every prefix surface form of the rule table, and every suffix
PREFIXES = ("", "di", "ke", "se", "be", "ber", "bel", "te", "ter", "me", "mem",
            "men", "meng", "menge", "meny", "mempe", "pe", "per", "pem", "pen",
            "peng", "penge", "peny", "pel", "ku", "kau")
SUFFIXES = ("", "lah", "kah", "tah", "pun", "nya", "ku", "mu", "kan", "an", "i")
CONFIXES = (("be", "lah"), ("be", "an"), ("me", "i"), ("di", "i"), ("pe", "i"),
            ("ter", "i"))


def disagreements(roots, words):
    new, old = IndonesianStemmer(roots), Reference(roots)
    return [(w, new.stem(w), old.stem(w)) for w in words
            if new.stem(w) != old.stem(w)]


def test_golden_words_roots_and_confixes():
    golden = [line.split("\t")[0]
              for line in _data_text("stem_golden.tsv").split("\n") if line]
    assert len(golden) == 385
    # every root inside each confix the precedence check tests for
    confixed = [p + r + s for r in SORTED_ROOTS for p, s in CONFIXES]
    assert disagreements(ROOTS, golden + SORTED_ROOTS + confixed) == []


@pytest.mark.parametrize("seed", [1, 3, 789478892])
def test_benchmark_corpus_words(seed):
    comments = corpus.generate(corpus.Dictionaries.read(DATA),
                               corpus.PAPER_SHAPE, seed)
    words = sorted({w for c in comments for w in clean(case_fold(c.text)).split()})
    assert len(words) > 20_000
    assert disagreements(ROOTS, words) == []


# built once: sampled_from scans its elements each time it is built
ROOT_WORDS = st.sampled_from(SORTED_ROOTS) | st.text("abcdefghijklmnopqrstuvwxyz",
                                                     min_size=1, max_size=6)


@st.composite
def cases(draw):
    """An affixed word and the root set to stem it under."""
    root = draw(ROOT_WORDS)
    surface = root[1:] if draw(st.booleans()) else root  # meny + apu: me- + sapu
    prefixes = draw(st.lists(st.sampled_from(PREFIXES), max_size=2))
    suffixes = draw(st.lists(st.sampled_from(SUFFIXES), max_size=2))
    kind = draw(st.sampled_from(["bundled", "bundled+root", "root", "empty", "subset"]))
    if kind == "subset":
        seed = draw(st.integers(0, 2**32 - 1))
        roots = frozenset(random.Random(seed).sample(SORTED_ROOTS, 700))
    else:
        roots = {"bundled": ROOTS, "bundled+root": ROOTS | {root},
                 "root": frozenset({root}), "empty": frozenset()}[kind]
    return "".join(prefixes) + surface + "".join(suffixes), roots


@given(cases())
@settings(max_examples=1000, deadline=None)
def test_affixed_words(case):
    word, roots = case
    assert disagreements(roots, [word]) == []
