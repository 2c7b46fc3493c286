import dataclasses
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sentimen import preprocess
from sentimen.preprocess import (PreprocessConfig, case_fold, clean,
                                 load_root_words, load_slang_map,
                                 load_stopwords, normalize_slang,
                                 remove_stopwords, run_pipeline, tokenize)

# every code point, surrogates included, as one string
ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))
ISSPACE = "".join(c for c in ALL_CHARS if c.isspace())


def clean_oracle(text: str) -> str:
    """The six-step regex chain ``clean`` replaced, one substitution each."""
    text = re.sub(r"(?:\w+://|www\.)\S*", " ", text)
    text = re.sub(r"(?<!\S)@\S+", " ", text)
    text = re.sub(r"(?<!\S)#\S+", " ", text)
    text = re.sub(r"[0-9]", "", text)
    text = re.sub(r"[^A-Za-z\s]", "", text)
    return re.sub(r"\s+", " ", text).strip()


CLEAN_CASES = [
    "", "@http://x", "x#y", "a@b", "http://x.co#tag", "http://x.co #tag",
    "lihat http://x.co/a?b=1 #mbg", "www.contoh.id", "kunjungi www.x.id ya",
    "WWW.BESAR.ID", "a://b", "://", "@", "#", "@ #", "x @a@b #c#d y",
    "kirim ke a@b.com @user", "#1 @2 3#", "gr4tis makan4n 2024", "a1b2c3",
    "123", "4 sehat 5 sempurna", "\U0001f600 bagus\u00e9", "http://x@y #z",
    "\u00a0@user", "\u3000#tag\u2028www.x.id\x1c:// b",
    ISSPACE, "a" + ISSPACE + "b", "@u" + ISSPACE + "#t" + ISSPACE,
    *(f"x{ws}@m{ws}#h{ws}1y{ws}" for ws in ISSPACE),
]


class TestCaseFold:
    def test_mixed_case(self):
        assert case_fold("Program MBG BAGUS") == "program mbg bagus"

    def test_empty(self):
        assert case_fold("") == ""

    def test_already_lower_identity(self):
        assert case_fold("sudah kecil semua") == "sudah kecil semua"


class TestClean:
    def test_each_removal_rule(self):
        assert clean("cek http://a.co @user #mbg 123!!") == "cek"

    def test_digits_stripped_in_place(self):
        assert clean("makan4n gr4tis") == "makann grtis"

    def test_identity(self):
        assert clean("bagus") == "bagus"

    def test_www_urls_and_emoji(self):
        assert clean("situs www.contoh.id bagus \U0001f600") == "situs bagus"

    def test_whitespace_collapse(self):
        assert clean("  a   b\t c \n") == "a b c"

    def test_re_whitespace_is_str_isspace(self):
        assert set(re.findall(r"\s", ALL_CHARS)) == set(ISSPACE)

    @pytest.mark.parametrize("text", CLEAN_CASES)
    def test_matches_regex_chain_on_fixed_strings(self, text):
        assert clean(text) == clean_oracle(text)

    @given(st.lists(st.one_of(st.sampled_from(
        list("aZ09 @#:/w.\t\n\x1c\x85\u00a0\u2028\u3000") + ["://", "www."]),
        st.characters())).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_matches_regex_chain_property(self, text):
        assert clean(text) == clean_oracle(text)


class TestNormalizeSlang:
    def test_bundled_gak(self):
        assert normalize_slang("gak bagus", load_slang_map()) == "tidak bagus"

    def test_empty_dict_identity(self):
        assert normalize_slang("bagus", {}) == "bagus"

    def test_bundled_tdk(self):
        assert normalize_slang("tdk enak", load_slang_map()) == "tidak enak"

    def test_single_pass_no_chaining(self):
        # a -> b must not be re-normalized through b -> c
        assert normalize_slang("a", {"a": "b", "b": "c"}) == "b"

    def test_whole_word_only(self):
        assert normalize_slang("gakbagus", {"gak": "tidak"}) == "gakbagus"


class TestTokenize:
    def test_basic(self):
        assert tokenize("makan gratis bagus") == ["makan", "gratis", "bagus"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_runs(self):
        assert tokenize("  a  b ") == ["a", "b"]


class TestRemoveStopwords:
    def test_bundled_yang(self):
        assert remove_stopwords(["yang", "bagus"], load_stopwords()) == ["bagus"]

    def test_empty(self):
        assert remove_stopwords([], load_stopwords()) == []

    def test_empty_stoplist_identity(self):
        assert remove_stopwords(["enak"], frozenset()) == ["enak"]


class TestRunPipeline:
    def test_composed_example(self, pp_cfg):
        out = run_pipeline("Makanan GRATIS!! http://x.co enak", pp_cfg)
        assert out == ["makan", "gratis", "enak"]

    def test_composition_matches_steps(self, pp_cfg):
        # independent recomposition of the six steps
        text = "Anak SEKOLAH dapat makanan bergizi gak jelek http://a.co 12!"
        manual = case_fold(text)
        manual = clean(manual)
        manual = normalize_slang(manual, pp_cfg.slang)
        toks = tokenize(manual)
        toks = remove_stopwords(toks, pp_cfg.stopwords)
        from sentimen.stemmer import IndonesianStemmer
        stemmer = IndonesianStemmer(pp_cfg.roots)
        manual_tokens = [stemmer.stem(t) for t in toks]
        assert run_pipeline(text, pp_cfg) == manual_tokens

    def test_empty(self, pp_cfg):
        assert run_pipeline("", pp_cfg) == []

    def test_all_disabled_tokenize_only(self):
        cfg = PreprocessConfig(case_fold=False, clean=False, normalize=False,
                               remove_stopwords=False, stem=False)
        assert run_pipeline("A b", cfg) == ["A", "b"]

    def test_idempotent_on_fixture_corpus(self, pp_cfg):
        from conftest import NEGATIVE_TEXTS, POSITIVE_TEXTS
        for text in POSITIVE_TEXTS + NEGATIVE_TEXTS:
            once = run_pipeline(text, pp_cfg)
            twice = run_pipeline(" ".join(once), pp_cfg)
            assert twice == once

    @given(st.lists(st.sampled_from(
        "makanan bagus enak diberikan pemerintah kualitas buruk sekali "
        "anak sekolah gratis program yang untuk tidak".split()),
        min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, pp_cfg, words):
        # stopword removal precedes stemming, so a token whose *stem* is a
        # stopword re-filters on the second pass; restrict to the
        # stem-stable domain
        once = run_pipeline(" ".join(words), pp_cfg)
        assume(all(t not in pp_cfg.stopwords for t in once))
        assert run_pipeline(" ".join(once), pp_cfg) == once

    @given(st.text(max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_never_crashes_and_tokens_clean(self, pp_cfg, text):
        out = run_pipeline(text, pp_cfg)
        for token in out:
            assert token  # no empties
            assert all("a" <= ch <= "z" for ch in token)

    @given(st.text(max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_steps_never_grow_token_count(self, pp_cfg, text):
        full = run_pipeline(text, pp_cfg)
        bare = PreprocessConfig(case_fold=True, clean=True, normalize=False,
                                remove_stopwords=False, stem=False)
        assert len(full) <= len(run_pipeline(text, bare))


class TestDictionaryCache:
    def test_default_configs_share_one_stemmer(self):
        from sentimen.preprocess import _stemmer_for

        _stemmer_for.cache_clear()
        a, b = PreprocessConfig.default(), PreprocessConfig.default()
        assert a.roots is b.roots and a.stopwords is b.stopwords
        assert a.slang is not b.slang  # the mutable map is not shared
        run_pipeline("makanannya enak", a)
        run_pipeline("programnya bagus", b)
        assert _stemmer_for.cache_info().currsize == 1

    def test_equal_root_sets_share_one_stemmer(self):
        a = PreprocessConfig.default()
        b = PreprocessConfig.default(roots=frozenset(list(load_root_words())))
        assert a.roots is not b.roots and a.roots == b.roots
        assert a.stemmer is b.stemmer is not None

    def test_stemmer_resolved_once_per_config(self, monkeypatch):
        cfg = PreprocessConfig.default(roots=frozenset(list(load_root_words())))

        def unexpected(roots):
            raise AssertionError("stemmer looked up on a run_pipeline call")

        monkeypatch.setattr(preprocess, "_stemmer_for", unexpected)
        assert run_pipeline("makanannya enak", cfg) == ["makan", "enak"]

    def test_stemmer_follows_the_config(self):
        cfg = PreprocessConfig.default()
        assert dataclasses.replace(cfg, stem=False).stemmer is None
        assert PreprocessConfig(roots=frozenset()).stemmer is None
        other = dataclasses.replace(cfg, roots=frozenset({"enak"}))
        assert other.stemmer.roots == {"enak"}
        assert run_pipeline("makanannya enak", other) == ["makanannya", "enak"]
