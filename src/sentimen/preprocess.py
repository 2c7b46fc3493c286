"""Six-step text cleaning chain for Indonesian comments.

Fixed order: case-fold -> clean -> slang normalization -> tokenization ->
stopword removal -> stemming.

``run_pipeline`` case-folds and cleans each text, then maps each cleaned
word through a memo of the last four steps, which configs with equal
dictionaries share.  A memo holds at most ``CACHE_SIZE`` (65,536)
words and is cleared when full; the benchmark corpus fills it with 26,773
words, about 3.5 MiB, and at most 8 memos are kept, so the worst case is
8 full memos, about 68 MiB.

Bundled dictionaries live in ``sentimen/data/``: a curated root-word list
(one lowercase word per line), a stopword list of Indonesian function words
(negations deliberately retained so "tidak bagus" keeps its polarity), and
a slang map (``slang<TAB>standard``, standard side may be multi-word).
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .stemmer import IndonesianStemmer

# (?<!\w): a long word run is scanned once, not once per character
_URL_RE = re.compile(r"(?:(?<!\w)\w+://|www\.)\S*")
_MENTION_RE = re.compile(r"(?<!\S)@\S+")
_HASHTAG_RE = re.compile(r"(?<!\S)#\S+")
_NON_LETTER_RE = re.compile(r"[^A-Za-z\s]")
# the ASCII characters _NON_LETTER_RE removes: an ASCII text (95% of the
# benchmark corpus) drops them in one bytes.translate, 4 times faster
_ASCII_NON_LETTERS = bytes(c for c in range(128) if _NON_LETTER_RE.match(chr(c)))


def _parse_wordlist(text: str) -> frozenset[str]:
    """One word per line; entries are stripped and lowercased."""
    return frozenset(w.strip().lower() for w in text.split("\n") if w.strip())


def _parse_slang_tsv(text: str, source: str | Path) -> dict[str, str]:
    """``slang<TAB>standard`` per line; ``source`` names the text in errors."""
    pairs = {}
    for ln, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            slang, standard = line.split("\t")
        except ValueError:
            raise ValueError(f"{source}:{ln}: expected 'slang<TAB>standard'") from None
        if not slang.strip():
            raise ValueError(f"{source}:{ln}: empty slang word")
        pairs[slang.strip().lower()] = standard.strip().lower()
    return pairs


def _data_text(name: str) -> str:
    return resources.files("sentimen").joinpath("data", name).read_text("utf-8")


def _file_text(path: str | Path) -> str:
    """The file's UTF-8 text, a leading byte-order mark dropped."""
    try:
        return Path(path).read_text("utf-8-sig")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


# cached: every default config then shares one roots set, which
# _memo_for finds by identity instead of comparing it word by word
@lru_cache(maxsize=1)
def load_root_words() -> frozenset[str]:
    return _parse_wordlist(_data_text("root_words.txt"))


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    return _parse_wordlist(_data_text("stopwords.txt"))


def load_slang_map() -> dict[str, str]:
    return _parse_slang_tsv(_data_text("slang.tsv"), "slang.tsv")


def read_wordlist(path: str | Path) -> frozenset[str]:
    return _parse_wordlist(_file_text(path))


def read_slang_tsv(path: str | Path) -> dict[str, str]:
    return _parse_slang_tsv(_file_text(path), path)


# words a memo holds before it is cleared
CACHE_SIZE = 1 << 16


@lru_cache(maxsize=8)
def _memo_for(slang: frozenset[tuple[str, str]], stopwords: frozenset[str],
              roots: frozenset[str]) -> dict[str, tuple[str, ...]]:
    return {}


@dataclass(frozen=True)
class PreprocessConfig:
    """The three dictionaries, read-only; an empty one changes nothing."""

    slang: Mapping[str, str] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    roots: frozenset[str] = frozenset()
    # resolved once per config: equal dictionaries share one word memo, and
    # run_pipeline never compares dictionaries
    stemmer: IndonesianStemmer = field(init=False, compare=False, repr=False)
    _memo: dict[str, tuple[str, ...]] = field(init=False, compare=False,
                                              repr=False)

    def __post_init__(self):
        if "" in self.slang:
            # no cleaned word is empty, so such an entry could never apply
            raise ValueError("slang map has an entry for the empty word")
        # private copies: a memo shared by equal configs cannot go stale
        slang = MappingProxyType(dict(self.slang))
        stopwords, roots = frozenset(self.stopwords), frozenset(self.roots)
        object.__setattr__(self, "slang", slang)
        object.__setattr__(self, "stopwords", stopwords)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "stemmer", IndonesianStemmer(roots))
        object.__setattr__(self, "_memo", _memo_for(
            frozenset(slang.items()), stopwords, roots))

    @classmethod
    def default(cls, **overrides) -> "PreprocessConfig":
        """Config backed by the bundled dictionaries."""
        base = dict(slang=load_slang_map(), stopwords=load_stopwords(),
                    roots=load_root_words())
        base.update(overrides)
        return cls(**base)


def case_fold(text: str) -> str:
    return text.lower()


def _clean_words(text: str) -> list[str]:
    """The words of ``clean(text)``."""
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if text.isascii():
        text = text.encode("ascii").translate(None, _ASCII_NON_LETTERS).decode("ascii")
    else:
        text = _NON_LETTER_RE.sub("", text)
    return text.split()


def clean(text: str) -> str:
    """Strip URLs, @mentions, #hashtags, digits and non-letter characters.

    Digits are removed in place (``gr4tis`` -> ``grtis``), not as whole
    words; mentions and hashtags drop the whole token.  Each of the three
    token regexes runs only when the text holds the substring it needs to
    match, an ASCII text drops non-letters through ``bytes.translate``,
    and whitespace runs collapse through ``str.split``, whose whitespace
    is the same 29 characters as ``re``'s ``\\s``.
    """
    return " ".join(_clean_words(text))


def normalize_slang(text: str, slang: Mapping[str, str]) -> str:
    """Whole-word substitution, single pass (outputs are not re-normalized)."""
    words = text.split(" ")
    return " ".join([slang.get(w, w) for w in words])


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens: list[str], stopwords: frozenset[str] | set[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def stem_tokens(tokens: list[str], stemmer: IndonesianStemmer) -> list[str]:
    return [stemmer.stem(t) for t in tokens]


def run_pipeline(text: str, cfg: PreprocessConfig) -> list[str]:
    """Apply the six steps in fixed order and return a new token list.

    Case folding and cleaning run on the whole text.  The last four steps
    go word by word, so the text's tokens are those of each of its cleaned
    words, joined, and they run only on a word the config's memo has not
    seen.  The memo is shared by configs with equal dictionaries, holds at
    most ``CACHE_SIZE`` words and is cleared when full.
    """
    memo, slang, stopwords, stemmer = cfg._memo, cfg.slang, cfg.stopwords, cfg.stemmer
    tokens = []
    for word in _clean_words(case_fold(text)):
        out = memo.get(word)
        if out is None:
            # the last four steps on this word, inline, and with no split
            # for a word without a slang entry: a miss costs about what the
            # step functions spend on the word in a whole text
            standard = slang.get(word)
            if standard is None:
                out = () if word in stopwords else (stemmer.stem(word),)
            else:
                out = tuple([stemmer.stem(t) for t in standard.split()
                             if t not in stopwords])
            if len(memo) >= CACHE_SIZE:
                memo.clear()
            memo[word] = out
        tokens += out
    return tokens
