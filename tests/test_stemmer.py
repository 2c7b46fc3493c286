import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen import stemmer as stemmer_module
from sentimen.preprocess import (PreprocessConfig, _data_text,
                                 load_root_words, run_pipeline)
from sentimen.stemmer import IndonesianStemmer

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def stemmer():
    return IndonesianStemmer(load_root_words())


def golden_pairs():
    return [tuple(line.split("\t"))
            for line in _data_text("stem_golden.tsv").split("\n") if line]


class TestGoldenFile:
    def test_full_agreement(self, stemmer):
        pairs = golden_pairs()
        assert len(pairs) >= 200
        mismatches = [(w, stemmer.stem(w), want)
                      for w, want in pairs if stemmer.stem(w) != want]
        assert mismatches == []

    def test_idempotence_over_golden_set(self, stemmer):
        for word, want in golden_pairs():
            assert stemmer.stem(want) == want
            assert stemmer.stem(stemmer.stem(word)) == stemmer.stem(word)


def benchmark_corpus_words() -> list[str]:
    """Every unstemmed token, in order, of the benchmark's seed-1 corpus."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", REPO / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses look the module up
    try:
        spec.loader.exec_module(corpus)
        comments = corpus.generate(
            corpus.Dictionaries.read(REPO / "src" / "sentimen" / "data"),
            corpus.PAPER_SHAPE, 1)
    finally:
        del sys.modules[spec.name]
    unstemmed = PreprocessConfig.default(stem=False)
    return [w for c in comments for w in run_pipeline(c.text, unstemmed)]


class TestCache:
    @pytest.fixture(scope="class")
    def words(self):
        golden = [w for pair in golden_pairs() for w in pair]
        return golden + benchmark_corpus_words()

    @pytest.fixture(scope="class")
    def uncached(self, words):
        reference = IndonesianStemmer(load_root_words())
        return [reference._stem(w) for w in words]

    def test_cold_and_warm_match_uncached(self, words, uncached):
        s = IndonesianStemmer(load_root_words())
        assert [s.stem(w) for w in words] == uncached  # cold, then repeats
        assert [s.stem(w) for w in words] == uncached  # every word warm
        assert len(s._cache) == len(set(words))

    def test_eviction_keeps_results_and_bound(self, words, uncached,
                                              monkeypatch):
        monkeypatch.setattr(stemmer_module, "CACHE_SIZE", 3)
        s = IndonesianStemmer(load_root_words())
        sizes = set()
        for word, want in zip(words, uncached):
            assert s.stem(word) == want
            sizes.add(len(s._cache))
        assert max(sizes) == 3

    def test_roots_are_read_only(self):
        s = IndonesianStemmer(load_root_words())
        assert s.stem("makanan") == "makan"
        with pytest.raises(AttributeError):
            s.roots = frozenset({"enak"})
        assert s.stem("makanan") == "makan"


class TestSpecCases:
    def test_plain_suffix(self, stemmer):
        assert stemmer.stem("makanan") == "makan"

    def test_prefix_suffix_with_recoding(self, stemmer):
        assert stemmer.stem("memberikan") == "beri"

    def test_dictionary_hit_identity(self, stemmer):
        assert stemmer.stem("makan") == "makan"

    def test_short_words_untouched(self, stemmer):
        for word in ("di", "ke", "ani", "ber"):
            assert stemmer.stem(word) == word

    def test_unknown_word_returned_unchanged(self, stemmer):
        assert stemmer.stem("zzyzzx") == "zzyzzx"

    def test_forbidden_pair_routed_through_restoration(self, stemmer):
        # be-..-i is not a valid confix: -i must be restored before ber- strips
        assert stemmer.stem("berlari") == "lari"

    def test_recoding_meny(self, stemmer):
        assert stemmer.stem("menyapu") == "sapu"
        assert stemmer.stem("menyanyi") == "nyanyi"

    def test_kan_restored_as_k(self, stemmer):
        assert stemmer.stem("gerakan") == "gerak"


class TestTotality:
    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_never_crashes_output_alphabetic(self, stemmer, word):
        out = stemmer.stem(word)
        assert out
        assert all("a" <= c <= "z" for c in out)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=4, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_everywhere(self, stemmer, word):
        assert stemmer.stem(stemmer.stem(word)) == stemmer.stem(word)

    def test_empty_root_dictionary_rejected(self):
        with pytest.raises(ValueError):
            IndonesianStemmer(set())
