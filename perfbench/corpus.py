"""Seeded synthetic YouTube-comment corpus in the canonical CSV shape.

The corpus mirrors the paper's data set: 7,733 comments, of which 6,419 are
labelled (5,629 negative, 790 positive) and 1,314 are unlabelled.  Words
come from the program's bundled dictionaries (roots, inflected words of the
stemmer's golden file, stopwords, slang keys) plus a long tail of made-up
words, sized so that the training split reaches a vocabulary near 16,378.
Each class draws from its own polarity words, with label noise.  Comments
also carry URLs, @mentions, #hashtags, digits, punctuation and emoji, and a
few are left with nothing after preprocessing.

Comment lengths are the quantiles of a log-normal law (median 10 words),
shuffled by the seed, and each comment gets a fixed share of stopwords, so
the token counts after preprocessing - and with them the program's
``max_len`` - barely move from seed to seed.

The generator reads the dictionary files itself and writes the CSV with the
standard library; the program under test receives only the file.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

LABELS = ("negative", "positive")

# polarity anchors present in the bundled root dictionary; each class adds
# seeded draws from the other roots
NEGATIVE_ANCHORS = ("buruk", "jelek", "gagal", "korupsi", "basi", "bohong",
                    "kecewa", "marah", "sedih", "bodoh", "rusak", "benci",
                    "takut", "malu")
POSITIVE_ANCHORS = ("bagus", "baik", "enak", "sehat", "mantap", "senang",
                    "hebat", "indah", "cinta", "bangga", "puas")

_CONSONANTS = "bcdghjklmnprstwy"
_VOWELS = "aiueo"
_VIDEOS = ("mbg-xk2aa", "mbg-q81zt", "mbg-74hfe", "mbg-c0p1w", "mbg-ttu9r")
_EMOJI = ("\U0001F621", "\U0001F44D", "\U0001F602", "\U0001F64F", "❤")
_PUNCT = ("!", "!!", "?", ",", ".", "...", "??", ":)")

_STOP_SHARE = 0.24
# the other word slots: (kind, weight)
_CONTENT_SLOTS = (("polar", 0.20), ("root", 0.16), ("golden", 0.05),
                  ("slang", 0.05), ("tail", 0.30))
_LABEL_NOISE = 0.08
_EMPTY_SHARE = 0.01
_LOG_MEDIAN, _LOG_SIGMA, _MAX_WORDS = math.log(10.0), 0.75, 150


@dataclass(frozen=True)
class CorpusShape:
    n_negative: int
    n_positive: int
    n_unlabeled: int
    common_tail: int    # made-up words drawn with Zipf weights
    hapax_share: float  # share of tail slots that coin a fresh word

    @property
    def n_labeled(self) -> int:
        return self.n_negative + self.n_positive


PAPER_SHAPE = CorpusShape(n_negative=5629, n_positive=790, n_unlabeled=1314,
                          common_tail=4000, hapax_share=0.74)
QUICK_SHAPE = CorpusShape(n_negative=175, n_positive=45, n_unlabeled=60,
                          common_tail=300, hapax_share=0.3)


@dataclass(frozen=True)
class Comment:
    id: str
    source: str
    text: str
    label: str  # "negative", "positive" or "" for unlabelled


@dataclass(frozen=True)
class Dictionaries:
    roots: tuple[str, ...]
    stopwords: tuple[str, ...]
    slang_keys: tuple[str, ...]
    golden: tuple[str, ...]

    @classmethod
    def read(cls, data_dir: Path) -> "Dictionaries":
        def lines(name):
            return [ln for ln in (data_dir / name).read_text("utf-8").split("\n")
                    if ln.strip()]
        first = lambda name: tuple(sorted({ln.split("\t")[0].strip()
                                           for ln in lines(name)}))
        return cls(roots=first("root_words.txt"), stopwords=first("stopwords.txt"),
                   slang_keys=first("slang.tsv"), golden=first("stem_golden.tsv"))


def _zipf_cdf(n: int, offset: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + offset) for r in range(n)))


class _Generator:
    def __init__(self, dicts: Dictionaries, shape: CorpusShape, seed: int):
        self.rng = random.Random(f"sentimen-perfbench-{seed}")
        self.shape = shape
        stop = set(dicts.stopwords)
        self.reserved = set(dicts.roots) | stop | set(dicts.slang_keys)
        anchors = set(NEGATIVE_ANCHORS) | set(POSITIVE_ANCHORS)
        content = [w for w in dicts.roots
                   if w not in stop and w not in anchors and len(w) > 3]
        self.rng.shuffle(content)
        self.polar = (list(NEGATIVE_ANCHORS) + content[:16],
                      list(POSITIVE_ANCHORS) + content[16:32])
        self.roots = content[32:]
        self.root_cdf = _zipf_cdf(len(self.roots), 20.0)
        self.golden = [w for w in dicts.golden if w not in stop]
        self.stop = list(dicts.stopwords)
        self.stop_cdf = _zipf_cdf(len(self.stop), 3.0)
        self.slang = list(dicts.slang_keys)
        tail: set[str] = set()
        while len(tail) < shape.common_tail:
            tail.add(self._fresh_word())
        self.tail = sorted(tail)
        self.tail_cdf = _zipf_cdf(len(self.tail), 5.0)
        self.slot_kinds = [k for k, _ in _CONTENT_SLOTS]
        self.slot_cdf = list(itertools.accumulate(w for _, w in _CONTENT_SLOTS))

    def _coin(self) -> str:
        rng = self.rng
        letters = []
        for _ in range(rng.randrange(2, 5)):
            letters.append(rng.choice(_CONSONANTS))
            letters.append(rng.choice(_VOWELS))
        if rng.random() < 0.3:
            letters.append(rng.choice(_CONSONANTS))
        return "".join(letters)

    def _fresh_word(self) -> str:
        while True:
            w = self._coin()
            if w not in self.reserved:
                return w

    def _zipf(self, items: list[str], cdf: list[float]) -> str:
        return items[bisect.bisect_left(cdf, self.rng.random() * cdf[-1])]

    def _content_word(self, signal: int) -> str:
        rng = self.rng
        kind = self.slot_kinds[bisect.bisect_left(
            self.slot_cdf, rng.random() * self.slot_cdf[-1])]
        if kind == "polar":
            return rng.choice(self.polar[signal])
        if kind == "root":
            return self._zipf(self.roots, self.root_cdf)
        if kind == "golden":
            return rng.choice(self.golden)
        if kind == "slang":
            return rng.choice(self.slang)
        if rng.random() < self.shape.hapax_share:
            return self._fresh_word()
        return self._zipf(self.tail, self.tail_cdf)

    def _decorate(self, word: str) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.02 and len(word) > 3:   # a digit inside a word: gr4tis
            k = rng.randrange(1, len(word) - 1)
            word = word[:k] + str(rng.randrange(10)) + word[k + 1:]
        elif r < 0.05:
            word = word.upper()
        elif r < 0.12:
            word = word.capitalize()
        if rng.random() < 0.10:
            word += rng.choice(_PUNCT)
        return word

    def _empty_text(self) -> str:
        rng = self.rng
        parts = [f"@user{rng.randrange(1000)}",
                 f"https://youtu.be/{self._coin()}{rng.randrange(100)}",
                 str(rng.randrange(1, 3000)), "!!!",
                 rng.choice(self.stop), rng.choice(self.stop)]
        rng.shuffle(parts)
        return " ".join(parts[:rng.randrange(2, len(parts) + 1)])

    def text(self, n_words: int, signal: int) -> str:
        rng = self.rng
        if rng.random() < _EMPTY_SHARE:
            return self._empty_text()
        n_stop = min(n_words - 1, int(n_words * _STOP_SHARE + rng.random()))
        words = [self._zipf(self.stop, self.stop_cdf) for _ in range(n_stop)]
        words += [self._content_word(signal) for _ in range(n_words - n_stop)]
        rng.shuffle(words)
        words = [self._decorate(w) for w in words]
        if rng.random() < 0.12:
            words.insert(0, f"@{self._coin()}{rng.randrange(100)}")
        if rng.random() < 0.06:
            words.append("#" + rng.choice(self.roots) + "gratis")
        if rng.random() < 0.07:
            words.insert(rng.randrange(len(words) + 1),
                         rng.choice(("https://", "www.", "http://"))
                         + f"{self._coin()}.id/{rng.randrange(999)}")
        if rng.random() < 0.05:
            words.append(str(rng.randrange(1, 100000)))
        if rng.random() < 0.05:
            words.append(rng.choice(_EMOJI))
        return " ".join(words)


def _lengths(n: int, rng: random.Random) -> list[int]:
    """Log-normal quantiles in a seeded order: the same multiset every seed."""
    law = NormalDist(_LOG_MEDIAN, _LOG_SIGMA)
    out = [min(_MAX_WORDS, max(1, round(math.exp(law.inv_cdf((i + 0.5) / n)))))
           for i in range(n)]
    rng.shuffle(out)
    return out


def generate(dicts: Dictionaries, shape: CorpusShape, seed: int) -> list[Comment]:
    """Comments in a seeded random order; the same seed gives the same list."""
    gen = _Generator(dicts, shape, seed)
    rng = gen.rng
    labels = (["negative"] * shape.n_negative + ["positive"] * shape.n_positive
              + [""] * shape.n_unlabeled)
    rng.shuffle(labels)
    lengths = _lengths(len(labels), rng)
    positive_rate = shape.n_positive / shape.n_labeled
    out = []
    for n, (label, n_words) in enumerate(zip(labels, lengths)):
        if label:
            signal = LABELS.index(label)
            if rng.random() < _LABEL_NOISE:
                signal = 1 - signal
        else:
            signal = int(rng.random() < positive_rate)
        out.append(Comment(id=f"c{n:05d}", source=_VIDEOS[n % len(_VIDEOS)],
                           text=gen.text(n_words, signal), label=label))
    return out


def write_csv(comments: list[Comment], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "source", "text", "label"])
        for c in comments:
            writer.writerow([c.id, c.source, c.text, c.label])


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="write the benchmark corpus")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    data = Path(__file__).resolve().parent.parent / "src" / "sentimen" / "data"
    write_csv(generate(Dictionaries.read(data),
                       QUICK_SHAPE if args.quick else PAPER_SHAPE, args.seed), args.out)
