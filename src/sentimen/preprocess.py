"""Six-step text cleaning chain for Indonesian comments.

Fixed order: case-fold -> clean -> slang normalization -> tokenization ->
stopword removal -> stemming.

Bundled dictionaries live in ``sentimen/data/``: a curated root-word list
(one lowercase word per line), a stopword list of Indonesian function words
(negations deliberately retained so "tidak bagus" keeps its polarity), and
a slang map (``slang<TAB>standard``, standard side may be multi-word).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .stemmer import IndonesianStemmer

# (?<!\w): a long word run is scanned once, not once per character
_URL_RE = re.compile(r"(?:(?<!\w)\w+://|www\.)\S*")
_MENTION_RE = re.compile(r"(?<!\S)@\S+")
_HASHTAG_RE = re.compile(r"(?<!\S)#\S+")
_NON_LETTER_RE = re.compile(r"[^A-Za-z\s]")


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
        pairs[slang.strip().lower()] = standard.strip().lower()
    return pairs


def _data_text(name: str) -> str:
    return resources.files("sentimen").joinpath("data", name).read_text("utf-8")


def _file_text(path: str | Path) -> str:
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


# cached: every default config then shares one roots set, which
# _stemmer_for finds by identity instead of comparing it word by word
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


@lru_cache(maxsize=8)
def _stemmer_for(roots: frozenset[str]) -> IndonesianStemmer:
    return IndonesianStemmer(roots)


@dataclass(frozen=True)
class PreprocessConfig:
    """The three dictionaries; an empty one skips its step."""

    slang: dict[str, str] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    roots: frozenset[str] = frozenset()
    # resolved once per config: equal root sets share one stemmer and its
    # cache, and run_pipeline never compares root sets
    stemmer: IndonesianStemmer | None = field(init=False, compare=False,
                                              repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stemmer",
                           _stemmer_for(self.roots) if self.roots else None)

    @classmethod
    def default(cls, **overrides) -> "PreprocessConfig":
        """Config backed by the bundled dictionaries."""
        base = dict(slang=load_slang_map(), stopwords=load_stopwords(),
                    roots=load_root_words())
        base.update(overrides)
        return cls(**base)


def case_fold(text: str) -> str:
    return text.lower()


def clean(text: str) -> str:
    """Strip URLs, @mentions, #hashtags, digits and non-letter characters.

    Digits are removed in place (``gr4tis`` -> ``grtis``), not as whole
    words; mentions and hashtags drop the whole token.  Each of the three
    token regexes runs only when the text holds the substring it needs to
    match, and whitespace runs collapse through ``str.split``, whose
    whitespace is the same 29 characters as ``re``'s ``\\s``.
    """
    if "://" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    return " ".join(_NON_LETTER_RE.sub("", text).split())


def normalize_slang(text: str, slang: dict[str, str]) -> str:
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
    """Apply the six steps in fixed order and return the token list."""
    text = normalize_slang(clean(case_fold(text)), cfg.slang)
    tokens = remove_stopwords(tokenize(text), cfg.stopwords)
    if cfg.stemmer is not None:
        tokens = stem_tokens(tokens, cfg.stemmer)
    return tokens
