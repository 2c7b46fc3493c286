import dataclasses
import re
import sys
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sentimen import preprocess
from sentimen.preprocess import (PreprocessConfig, _data_text, case_fold,
                                 clean, load_root_words, load_slang_map,
                                 load_stopwords, normalize_slang,
                                 read_slang_tsv, read_wordlist,
                                 remove_stopwords, run_pipeline, stem_tokens,
                                 tokenize)

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


def chain_oracle(text: str, cfg: PreprocessConfig) -> list[str]:
    """The six step functions run on the whole text, no memo."""
    text = normalize_slang(clean(case_fold(text)), cfg.slang)
    return stem_tokens(remove_stopwords(tokenize(text), cfg.stopwords),
                       cfg.stemmer)


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

    def test_ascii_translate_matches_regex_per_character(self):
        # an ASCII text skips the non-letter regex for bytes.translate
        for c in map(chr, range(128)):
            assert clean(f"a{c}b {c}") == clean_oracle(f"a{c}b {c}")
        ascii_chars = "".join(map(chr, range(128)))
        assert clean(ascii_chars) == clean_oracle(ascii_chars) == (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

    @pytest.mark.parametrize("text", CLEAN_CASES)
    def test_matches_regex_chain_on_fixed_strings(self, text):
        assert clean(text) == clean_oracle(text)

    @given(st.lists(st.one_of(st.sampled_from(
        list("aZ09 @#:/w.\t\n\x1c\x85\u00a0\u2028\u3000") + ["://", "www."]),
        st.characters())).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_matches_regex_chain_property(self, text):
        assert clean(text) == clean_oracle(text)

    @given(st.lists(st.sampled_from(
        list("ab:/.w x#@1_\u00e9\u00a0") + ["://", "www."])).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_url_regex_matches_unanchored_one(self, text):
        unanchored = re.compile(r"(?:\w+://|www\.)\S*")
        assert (preprocess._URL_RE.sub(" ", text)
                == unanchored.sub(" ", text))

    def test_long_word_run_before_url_is_linear(self):
        # the unanchored scheme regex rescans the run from every character
        start = time.perf_counter()
        assert clean("a" * 100_000 + " x://y") == "a" * 100_000
        assert time.perf_counter() - start < 2.0


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
        assert len(full) <= len(tokenize(clean(case_fold(text))))


class TestDictionaryFiles:
    def test_file_readers_parse_the_bundled_files_alike(self, tmp_path):
        for name, read, bundled, size in [
                ("root_words.txt", read_wordlist, load_root_words(), 2788),
                ("stopwords.txt", read_wordlist, load_stopwords(), 245),
                ("slang.tsv", read_slang_tsv, load_slang_map(), 151)]:
            path = tmp_path / name
            path.write_text(_data_text(name), "utf-8")
            assert read(path) == bundled and len(bundled) == size

    def test_empty_slang_word_names_file_and_line(self, tmp_path):
        # a cleaned word is never empty, so the entry could never apply
        path = tmp_path / "slang.tsv"
        path.write_text("gak\ttidak\n \tkata\n", "utf-8")
        with pytest.raises(ValueError, match=r"slang\.tsv:2: empty slang word"):
            read_slang_tsv(path)

    def test_slang_line_without_tab_names_file_and_line(self, tmp_path):
        path = tmp_path / "slang.tsv"
        path.write_text("gak\ttidak\n\nbanget sangat\n", "utf-8")
        with pytest.raises(ValueError, match=r"slang\.tsv:3: expected"):
            read_slang_tsv(path)

    def test_entries_stripped_and_lowercased(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text(" Makan\r\n\nENAK \n", "utf-8")
        assert read_wordlist(path) == {"makan", "enak"}

    @pytest.mark.parametrize("read", [read_wordlist, read_slang_tsv])
    def test_non_utf8_file_names_the_path(self, tmp_path, read):
        path = tmp_path / "latin1.txt"
        path.write_bytes("kata\tb\u00e9bas\n".encode("latin-1"))
        with pytest.raises(ValueError, match="latin1.txt: not UTF-8 text"):
            read(path)


class TestDictionaryCache:
    def test_stemmer_resolved_once_per_config(self, monkeypatch):
        cfg = PreprocessConfig.default(roots=frozenset(list(load_root_words())))

        def unexpected(roots):
            raise AssertionError("stemmer built on a run_pipeline call")

        monkeypatch.setattr(preprocess, "IndonesianStemmer", unexpected)
        assert run_pipeline("makanannya enak", cfg) == ["makan", "enak"]

    def test_stemmer_follows_the_config(self):
        cfg = PreprocessConfig.default()
        # an empty root set stems nothing
        for bare in (dataclasses.replace(cfg, roots=frozenset()),
                     PreprocessConfig(roots=frozenset())):
            assert run_pipeline("makanannya enak", bare) == ["makanannya",
                                                             "enak"]
        other = dataclasses.replace(cfg, roots=frozenset({"enak"}))
        assert run_pipeline("makanannya enak", other) == ["makanannya", "enak"]


# slang whose standard side is several words, one of them a stopword
MULTIWORD_SLANG = {"gpp": "tidak apa apa", "yg": "yang", "bgt": "sangat",
                   "sbg": "sebagai\tcontoh", "mkn": "makanan  enak"}
# fragments that stress every step, and every whitespace character, to be
# concatenated in any order with no separator at all
PIPELINE_PIECES = [
    "http://a.co/x", "https://b.id?q=1", "www.x.id", "WWW.BESAR.ID", "a://b",
    "://", "@user", "@", "#tag", "#", "x@y", "a#b", "gr4tis", "123", "0",
    "MAKANAN", "Programnya", "\u0130", "\u03a3", "\u0391\u03a3", "\u00df",
    "\u00e9", "!", ".", "?", "gak", "gpp", "yg", "bgt", "sbg", "mkn", "yang",
    "dan", "tidak", "makanan", "diberikan", "bagus", "enak", "pemerintah",
    *ISSPACE]
PIPELINE_TEXTS = st.lists(st.sampled_from(PIPELINE_PIECES),
                          max_size=24).map("".join)
PIPELINE_SLANGS = st.sampled_from([None, MULTIWORD_SLANG])


def slang_config(slang) -> PreprocessConfig:
    return PreprocessConfig.default(**({} if slang is None else {"slang": slang}))


class TestWordMemo:
    @given(PIPELINE_TEXTS, PIPELINE_SLANGS)
    @settings(max_examples=300, deadline=None)
    def test_matches_chain_cold_and_warm(self, text, slang):
        preprocess._memo_for.cache_clear()
        cfg = slang_config(slang)
        want = chain_oracle(text, cfg)
        cold = run_pipeline(text, cfg)
        assert cold == want
        cold.append("changed")  # the caller owns the list it gets
        assert run_pipeline(text, cfg) == want

    @given(st.lists(PIPELINE_TEXTS, max_size=6), PIPELINE_SLANGS)
    @settings(max_examples=100, deadline=None)
    def test_texts_sharing_tokens_match_chain(self, texts, slang):
        cfg = slang_config(slang)  # warm from earlier examples
        for text in texts:
            assert run_pipeline(text, cfg) == chain_oracle(text, cfg)

    def test_eviction_keeps_results_and_bound(self, monkeypatch):
        from conftest import NEGATIVE_TEXTS, POSITIVE_TEXTS

        texts = POSITIVE_TEXTS + NEGATIVE_TEXTS
        want = [chain_oracle(t, PreprocessConfig.default()) for t in texts]
        monkeypatch.setattr(preprocess, "CACHE_SIZE", 3)
        preprocess._memo_for.cache_clear()
        cfg = PreprocessConfig.default()
        sizes = set()
        for _ in range(2):
            for text, tokens in zip(texts, want):
                assert run_pipeline(text, cfg) == tokens
                sizes.add(len(cfg._memo))
                for word in text.split():
                    run_pipeline(word, cfg)
                    sizes.add(len(cfg._memo))
        assert max(sizes) == 3

    def test_threads_sharing_a_memo_get_exact_results(self, monkeypatch):
        from conftest import NEGATIVE_TEXTS, POSITIVE_TEXTS

        texts = POSITIVE_TEXTS + NEGATIVE_TEXTS
        cfg = PreprocessConfig.default()
        want = [chain_oracle(t, cfg) for t in texts]
        monkeypatch.setattr(preprocess, "CACHE_SIZE", 5)  # clear often
        wrong = []

        def work(offset):
            for i in range(20 * len(texts)):
                j = (i + offset) % len(texts)
                if run_pipeline(texts[j], cfg) != want[j]:
                    wrong.append(j)

        threads = [threading.Thread(target=work, args=(3 * k,))
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_equal_dictionaries_share_one_memo(self):
        a = PreprocessConfig.default()
        c = PreprocessConfig.default()
        assert a.roots is c.roots and a.stopwords is c.stopwords
        assert a.slang is not c.slang  # each config has its own read-only copy
        b = PreprocessConfig.default(slang=dict(load_slang_map()),
                                     roots=frozenset(list(load_root_words())))
        assert a._memo is b._memo is not None
        run_pipeline("makanannya enak", a)
        assert set(b._memo) == {"makanannya", "enak"}

    @pytest.mark.parametrize("name,value,tokens", [
        ("slang", {"enak": "lezat"}, ["makan", "lezat", "gak"]),
        ("stopwords", frozenset({"enak"}), ["makan", "tidak"]),
        ("roots", frozenset({"enak"}), ["makanannya", "enak", "tidak"])])
    def test_other_dictionaries_never_share_entries(self, name, value, tokens):
        text = "makanannya enak gak"
        a = PreprocessConfig.default()
        assert run_pipeline(text, a) == ["makan", "enak", "tidak"]
        b = dataclasses.replace(a, **{name: value})
        assert b._memo is not a._memo and not b._memo
        assert run_pipeline(text, b) == tokens == chain_oracle(text, b)

    def test_empty_slang_word_is_rejected(self):
        with pytest.raises(ValueError, match="empty word"):
            PreprocessConfig.default(slang={"": "kosong"})

    def test_dictionaries_are_read_only_copies(self):
        slang, stopwords = {"gak": "tidak"}, {"yang"}
        cfg = PreprocessConfig(slang=slang, stopwords=stopwords)
        with pytest.raises(TypeError):
            cfg.slang["gak"] = "ya"
        slang["gak"] = "ya"
        stopwords.add("tidak")
        assert run_pipeline("gak yang", cfg) == ["tidak"]
        assert cfg == PreprocessConfig(slang={"gak": "tidak"},
                                       stopwords=frozenset({"yang"}))
        other = dataclasses.replace(cfg, slang={"gak": "bukan"})
        assert other._memo is not cfg._memo
        assert run_pipeline("gak yang", other) == ["bukan"]
