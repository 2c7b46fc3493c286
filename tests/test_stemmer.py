import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen.preprocess import _data_text, load_root_words
from sentimen.stemmer import IndonesianStemmer


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


class TestCache:
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

    @given(st.from_regex(r"[a-z]{1,20}", fullmatch=True))
    @settings(max_examples=300, deadline=None)
    def test_empty_root_dictionary_is_the_identity(self, word):
        # every affix removal is gated by a root lookup
        assert IndonesianStemmer(frozenset()).stem(word) == word
