"""Six-step text cleaning chain for Indonesian comments.

Fixed order: case-fold -> clean -> slang normalization -> tokenization ->
stopword removal -> stemming.  Each step can be toggled off, except
tokenization which always runs so the output is a token list.

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

_URL_RE = re.compile(r"(?:\w+://|www\.)\S*")
_MENTION_RE = re.compile(r"(?<!\S)@\S+")
_HASHTAG_RE = re.compile(r"(?<!\S)#\S+")
_DIGIT_RE = re.compile(r"[0-9]")
_NON_LETTER_RE = re.compile(r"[^A-Za-z\s]")
_WS_RE = re.compile(r"\s+")


def _data_text(name: str) -> str:
    return resources.files("sentimen").joinpath("data", name).read_text("utf-8")


# cached: every default config then shares one roots set, which
# _stemmer_for finds by identity instead of comparing it word by word
@lru_cache(maxsize=1)
def load_root_words() -> frozenset[str]:
    return frozenset(w for w in _data_text("root_words.txt").split("\n") if w)


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    return frozenset(w for w in _data_text("stopwords.txt").split("\n") if w)


def load_slang_map() -> dict[str, str]:
    pairs = {}
    for line in _data_text("slang.tsv").split("\n"):
        if not line:
            continue
        slang, standard = line.split("\t")
        pairs[slang] = standard
    return pairs


def read_wordlist(path: str | Path) -> frozenset[str]:
    """One word per line, UTF-8, LF endings; entries are lowercased."""
    return frozenset(w.strip().lower()
                     for w in Path(path).read_text("utf-8").split("\n")
                     if w.strip())


def read_slang_tsv(path: str | Path) -> dict[str, str]:
    pairs = {}
    for ln, line in enumerate(Path(path).read_text("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            slang, standard = line.split("\t")
        except ValueError:
            raise ValueError(f"{path}:{ln}: expected 'slang<TAB>standard'") from None
        pairs[slang.strip().lower()] = standard.strip().lower()
    return pairs


@dataclass(frozen=True)
class PreprocessConfig:
    case_fold: bool = True
    clean: bool = True
    normalize: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    slang: dict[str, str] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    roots: frozenset[str] = frozenset()

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
    words; mentions and hashtags drop the whole token.
    """
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _DIGIT_RE.sub("", text)
    text = _NON_LETTER_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


def normalize_slang(text: str, slang: dict[str, str]) -> str:
    """Whole-word substitution, single pass (outputs are not re-normalized)."""
    if not slang:
        return text
    words = text.split(" ")
    return " ".join(slang.get(w, w) for w in words)


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens: list[str], stopwords: frozenset[str] | set[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def stem_tokens(tokens: list[str], stemmer: IndonesianStemmer) -> list[str]:
    return [stemmer.stem(t) for t in tokens]


@lru_cache(maxsize=8)
def _stemmer_for(roots: frozenset[str]) -> IndonesianStemmer:
    return IndonesianStemmer(roots)


def run_pipeline(text: str, cfg: PreprocessConfig) -> list[str]:
    """Apply the enabled steps in fixed order and return the token list."""
    if cfg.case_fold:
        text = case_fold(text)
    if cfg.clean:
        text = clean(text)
    if cfg.normalize:
        text = normalize_slang(text, cfg.slang)
    tokens = tokenize(text)
    if cfg.remove_stopwords:
        tokens = remove_stopwords(tokens, cfg.stopwords)
    if cfg.stem and cfg.roots:
        tokens = stem_tokens(tokens, _stemmer_for(cfg.roots))
    return tokens
