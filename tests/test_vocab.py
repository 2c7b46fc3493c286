import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen.vocab import (OOV_TOKEN, build_vocab, decode, encode, load_vocab,
                            save_vocab, suggest_max_len)

words = st.text(alphabet="abcdefg", min_size=1, max_size=6)


class TestBuildVocab:
    def test_hand_enumeration(self):
        v = build_vocab([["a", "b", "a"]], min_freq=1)
        assert v.size == 4
        assert v.token_to_index == {"a": 2, "b": 3}

    def test_frequency_filter(self):
        v = build_vocab([["a", "b", "a"]], min_freq=2)
        assert v.size == 3
        assert v.token_to_index == {"a": 2}

    def test_ties_broken_lexicographically(self):
        v = build_vocab([["b", "a", "c", "a", "b", "c"]])
        assert v.token_to_index == {"a": 2, "b": 3, "c": 4}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_maps_mutually_inverse(self):
        v = build_vocab([["x", "y", "x", "z"]])
        for token, idx in v.token_to_index.items():
            assert v.index_to_token[idx] == token

    @given(st.lists(st.lists(words, max_size=8), min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_determinism_and_index_contiguity(self, corpus):
        a = build_vocab(corpus)
        b = build_vocab(corpus)
        assert a.token_to_index == b.token_to_index
        indices = sorted(a.token_to_index.values())
        assert indices == list(range(2, 2 + len(indices)))


def encode_one(tokens, vocab, max_len):
    """The row of ``encode`` for one document: (indices, true length)."""
    indices, lengths = encode([tokens], vocab, max_len)
    return indices[0], int(lengths[0])


class TestEncode:
    def test_post_padding(self):
        v = build_vocab([["a", "b"]])
        indices, true_length = encode_one(["a", "b"], v, max_len=4)
        assert indices.tolist() == [2, 3, 0, 0]
        assert true_length == 2

    def test_oov(self):
        v = build_vocab([["a"]])
        indices, true_length = encode_one(["z"], v, max_len=2)
        assert indices.tolist() == [1, 0]
        assert true_length == 1

    def test_empty(self):
        v = build_vocab([["a"]])
        indices, true_length = encode_one([], v, max_len=3)
        assert indices.tolist() == [0, 0, 0]
        assert true_length == 0

    def test_truncation_keeps_first(self):
        v = build_vocab([["a", "b", "c"]])
        indices, true_length = encode_one(["a", "b", "c"], v, max_len=2)
        assert indices.tolist() == [v.index("a"), v.index("b")]
        assert true_length == 2

    @given(st.lists(words, max_size=20), st.integers(1, 12))
    @settings(max_examples=60)
    def test_length_always_max_len(self, tokens, max_len):
        v = build_vocab([["a", "b", "c"]])
        indices, true_length = encode_one(tokens, v, max_len)
        assert len(indices) == max_len
        assert true_length == min(len(tokens), max_len)
        assert np.all(indices < v.size)

    def test_rows_match_one_document_at_a_time(self):
        v = build_vocab([["a", "b", "c", "a"]])
        docs = [["a", "b"], [], ["z", "a", "q"], ["c", "b", "a", "c", "b"],
                ["a"] * 5, ["y"]]
        indices, lengths = encode(docs, v, 4)
        assert indices.dtype == np.int64 and lengths.dtype == np.int64
        assert indices.shape == (len(docs), 4) and lengths.shape == (len(docs),)
        for row, n, doc in zip(indices, lengths, docs):
            want = np.zeros(4, dtype=np.int64)  # the one-document encoder
            kept = doc[:4]
            for i, tok in enumerate(kept):
                want[i] = v.index(tok)
            assert row.tolist() == want.tolist()
            assert n == len(kept)
        indices, lengths = encode([], v, 4)
        assert indices.shape == (0, 4) and lengths.shape == (0,)


class TestDecode:
    def test_inverse_map(self):
        v = build_vocab([["a", "b"]])
        assert decode(np.array([2, 3, 0, 0]), v) == ["a", "b"]

    def test_oov_sentinel(self):
        v = build_vocab([["a"]])
        assert decode(np.array([1, 0]), v) == [OOV_TOKEN]

    def test_all_pad(self):
        v = build_vocab([["a"]])
        assert decode(np.array([0, 0, 0]), v) == []

    def test_out_of_range_rejected(self):
        v = build_vocab([["a"]])
        for idx in (9, -1):
            with pytest.raises(IndexError):
                decode(np.array([idx]), v)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=6))
    @settings(max_examples=40)
    def test_round_trip(self, tokens):
        v = build_vocab([["a", "b", "c"]])
        assert decode(encode_one(tokens, v, 6)[0], v) == tokens


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab([["makan", "enak", "makan", "gizi"]])
        save_vocab(v, tmp_path / "vocab.txt", max_len=37, min_freq=2)
        loaded, max_len, min_freq = load_vocab(tmp_path / "vocab.txt")
        assert loaded.token_to_index == v.token_to_index
        assert (max_len, min_freq) == (37, 2)

    def test_file_layout_line_k_holds_index_k_plus_2(self, tmp_path):
        v = build_vocab([["b", "a", "a"]])  # a:2, b:3
        save_vocab(v, tmp_path / "vocab.txt", max_len=5)
        lines = (tmp_path / "vocab.txt").read_text().splitlines()
        assert lines == ["a", "b"]


class TestSuggestMaxLen:
    def test_percentile_and_cap(self):
        corpus = [["x"] * n for n in range(1, 101)]
        # interpolated 95th percentile of 1..100 is 95.05, ceiled
        assert suggest_max_len(corpus) == 96
        corpus = [["x"] * 500, ["x"] * 600]
        assert suggest_max_len(corpus) == 100  # capped

    def test_short_corpus(self):
        assert suggest_max_len([["a", "b"]]) == 2
