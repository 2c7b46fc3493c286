"""Rule-based Indonesian stemmer (Nazief-Adriani family, Sastrawi-style).

Every affix removal is gated by a root-word dictionary lookup: an affix is
only considered stripped when some removal sequence reaches a known root,
otherwise the original word is returned unchanged.  So an empty root set
stems nothing.

Order of operations per word:

1. dictionary hit -> done (words of length <= 3 are never stemmed)
2. confix-precedence check: for the patterns be-..-lah, be-..-an, me-..-i,
   di-..-i, pe-..-i, ter-..-i the prefix side is tried before the suffixes
3. suffix phase: inflectional particle (-lah/-kah/-tah/-pun), possessive
   pronoun (-ku/-mu/-nya), derivational suffix (-kan/-an/-i), dictionary
   check after each removal
4. prefix phase: up to three derivational prefixes (di-/ke-/se-/ku-/kau-
   plus the me-/be-/te-/pe- rule table with recoding, e.g. meny+V -> s+V),
   dictionary check after each removal, honoring the disallowed
   prefix+suffix pairs (be-..-i, di-..-an, ke-..-i/-kan, me-..-an,
   se-..-i/-kan, te-..-an)
5. suffix restoration: if the prefix phase dead-ends, each removed suffix
   is restored once (innermost first, with -kan retried as root+k + -an)
   and the prefix phase re-run
6. nothing matched -> original word

Scope notes: the engine covers the standard derivational rule table with
recoding alternatives; the reduplication/plural split and the infix rules
are out of scope because pipeline input is single lowercase [a-z]+ tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

VOWELS = "aiueo"

# (prefix family, derivational suffix) pairs that never combine
FORBIDDEN_PAIRS = {
    ("be", "i"), ("di", "an"), ("ke", "i"), ("ke", "kan"),
    ("me", "an"), ("se", "i"), ("se", "kan"), ("te", "an"),
}

_PARTICLE_RE = re.compile(r"(lah|kah|tah|pun)$")
_POSSESSIVE_RE = re.compile(r"(ku|mu|nya)$")
_DERIVATIONAL_RE = re.compile(r"(kan|an|i)$")

_PRECEDENCE_RES = [re.compile(p) for p in (
    r"^be.*lah$", r"^be.*an$", r"^me.*i$", r"^di.*i$", r"^pe.*i$", r"^ter.*i$",
)]


@dataclass(frozen=True)
class _Removal:
    subject: str   # word before this removal
    result: str    # word after this removal
    removed: str   # the affix text


def _is_vowel(ch: str) -> bool:
    return ch in VOWELS


def _prefix_candidates(word: str) -> tuple[str, list[str]] | None:
    """Match one derivational-prefix rule against ``word``.

    Returns (prefix family, candidate stems in priority order) for the first
    rule whose surface pattern matches, or None.  Multiple candidates encode
    the recoding ambiguities (e.g. menV -> me-nV | me-tV).
    """
    # plain prefixes
    for plain in ("di", "ke", "se"):
        if word.startswith(plain) and len(word) > len(plain):
            return plain, [word[len(plain):]]

    # be- family
    if word in ("belajar", "belunjur"):
        return "be", [word[3:]]                               # bel-ajar
    if word.startswith("ber") and len(word) > 3:
        rest = word[3:]
        if _is_vowel(rest[0]):
            return "be", [rest, "r" + rest]                   # ber-V | be-rV
        if rest[0] != "r":
            return "be", [rest]                               # ber-CAP / ber-CAerV
    if (word.startswith("be") and len(word) > 5
            and word[2] not in VOWELS + "rl" and word[3:5] == "er"
            and word[5] not in VOWELS):
        return "be", [word[2:]]                               # be-C1erC2

    # te- family
    if word.startswith("ter") and len(word) > 3:
        rest = word[3:]
        if _is_vowel(rest[0]):
            return "te", [rest, "r" + rest]                   # ter-V | te-rV
        if rest[0] != "r":
            return "te", [rest]                               # ter-CP / ter-CerV
    if (word.startswith("te") and len(word) > 5
            and word[2] not in VOWELS + "r" and word[3:5] == "er"
            and word[5] not in VOWELS):
        return "te", [word[2:]]                               # te-C1erC2

    # me- family
    if word.startswith("me") and len(word) > 3:
        rest2 = word[2:]
        if rest2[0] in "lrwy" and _is_vowel(rest2[1]):
            return "me", [rest2]                              # me-{l|r|w|y}V
        if word.startswith("mempe"):
            return "me", [word[3:]]                           # mempe -> mem-pe
        if word.startswith("memp") and len(word) > 4 and word[4] in "aiuo":
            return "me", [word[3:]]                           # mem-pV, V != e
        if word.startswith("meng") and len(word) > 4:
            r = word[4:]
            if r[0] in "ghqk":
                return "me", [r]                              # meng-{g|h|q|k}
            if _is_vowel(r[0]):
                cands = [r, "k" + r]                          # meng-V | meng-kV
                if r[0] == "e" and len(r) > 1:
                    cands.append(r[1:])                       # menge-
                cands.append("ng" + r)                        # me-ngV
                return "me", cands
        if word.startswith("meny") and len(word) > 4 and _is_vowel(word[4]):
            r = word[4:]
            return "me", ["ny" + r, "s" + r]                  # me-nyV | meny-sV
        if word.startswith("mem") and len(word) > 3:
            r = word[3:]
            if r[0] in "bfv":
                return "me", [r]                              # mem-{b|f|v}
            if _is_vowel(r[0]):
                return "me", ["m" + r, "p" + r]               # me-mV | me-pV
        if word.startswith("men") and len(word) > 3:
            r = word[3:]
            if r[0] in "cdjstz":
                return "me", [r]                              # men-{c|d|j|s|t|z}
            if _is_vowel(r[0]):
                return "me", ["n" + r, "t" + r]               # me-nV | me-tV

    # pe- family
    if word == "pelajar":
        return "pe", ["ajar"]
    if word.startswith("pe") and len(word) > 3:
        rest2 = word[2:]
        if rest2[0] in "wy" and _is_vowel(rest2[1]):
            return "pe", [rest2]                              # pe-{w|y}V
        if word.startswith("per") and len(word) > 3:
            r = word[3:]
            if _is_vowel(r[0]):
                return "pe", [r, "r" + r]                     # per-V | pe-rV
            if r[0] != "r":
                return "pe", [r]                              # per-CAP / per-CAerV
        if word.startswith("peng") and len(word) > 4:
            r = word[4:]
            if _is_vowel(r[0]):
                cands = [r, "k" + r]                          # peng-V | peng-kV
                if r[0] == "e" and len(r) > 1:
                    cands.append(r[1:])                       # penge-
                return "pe", cands
            return "pe", [r]                                  # peng-C
        if word.startswith("peny") and len(word) > 4 and _is_vowel(word[4]):
            r = word[4:]
            return "pe", ["ny" + r, "s" + r]                  # pe-nyV | peny-sV
        if word.startswith("pem") and len(word) > 3:
            r = word[3:]
            if r[0] in "bfv":
                return "pe", [r]                              # pem-{b|f|v}
            if _is_vowel(r[0]):
                return "pe", ["m" + r, "p" + r]               # pe-mV | pe-pV
        if word.startswith("pen") and len(word) > 3:
            r = word[3:]
            if r[0] in "cdjz":
                return "pe", [r]                              # pen-{c|d|j|z}
            if _is_vowel(r[0]):
                return "pe", ["n" + r, "t" + r]               # pe-nV | pe-tV
        if word.startswith("pel") and len(word) > 3 and _is_vowel(word[3]):
            return "pe", [word[2:]]                           # pe-lV
        if rest2[0] not in VOWELS + "rwylmn":
            return "pe", [rest2]                              # pe-CP / pe-C1erC2

    # clitic subject pronouns
    if word.startswith("kau") and len(word) > 3:
        return "kau", [word[3:]]
    if word.startswith("ku") and len(word) > 2:
        return "ku", [word[2:]]

    return None


class IndonesianStemmer:
    """Dictionary-gated affix stripper for Indonesian."""

    def __init__(self, roots: set[str] | frozenset[str]):
        self._roots = frozenset(roots)

    @property
    def roots(self) -> frozenset[str]:
        return self._roots

    def stem(self, word: str) -> str:
        if len(word) <= 3 or word in self._roots:
            return word

        if any(p.match(word) for p in _PRECEDENCE_RES):
            result = self._prefix_first(word)
            if result is not None:
                return result

        result = self._suffix_first(word)
        if result is not None:
            return result
        return word

    # --- phases -----------------------------------------------------------

    def _suffix_first(self, word: str) -> str | None:
        current, removals, hit = self._remove_suffixes(word)
        if hit:
            return current
        reached, is_root = self._walk_prefixes(
            current, [r.removed for r in removals])
        if is_root:
            return reached
        return self._restore_suffixes(removals)

    def _prefix_first(self, word: str) -> str | None:
        reached, is_root = self._walk_prefixes(word)
        if is_root:
            return reached
        # prefixes alone were not enough: strip suffixes from where they led
        if reached != word:
            current, _, hit = self._remove_suffixes(reached)
            if hit:
                return current
        return None

    def _remove_suffixes(self, word: str) -> tuple[str, list[_Removal], bool]:
        """Particle, possessive, derivational; dict check after each."""
        removals: list[_Removal] = []
        current = word
        for pattern in (_PARTICLE_RE, _POSSESSIVE_RE, _DERIVATIONAL_RE):
            m = pattern.search(current)
            if not m or len(current) - len(m.group(1)) < 2:
                continue
            result = current[:m.start(1)]
            removals.append(_Removal(current, result, m.group(1)))
            current = result
            if current in self._roots:
                return current, removals, True
        return current, removals, False

    def _walk_prefixes(self, word: str,
                       removed_suffixes: Sequence[str] = ()) -> tuple[str, bool]:
        """Up to three prefix removals, stopping at the first root.

        Returns the word the walk reached and whether it is a root.
        """
        current = word
        for iteration in range(3):
            if current in self._roots:
                break
            matched = _prefix_candidates(current)
            if matched is None:
                break
            family, candidates = matched
            # pair rules constrain the outermost prefix only: once it is
            # stripped, the removed suffix belonged to that outer confix
            if iteration == 0 and any((family, s) in FORBIDDEN_PAIRS
                                      for s in removed_suffixes):
                break
            chosen = candidates[-1]
            for cand in candidates:
                if cand in self._roots:
                    chosen = cand
                    break
            if len(chosen) < 2:
                break
            current = chosen
        return current, current in self._roots

    def _restore_suffixes(self, removals: list[_Removal]) -> str | None:
        """Put removed suffixes back one at a time and retry the prefixes.

        The -kan removal is retried as root+k first: the derivational regex
        eats 'kan' even when the root itself ends in k (gerakan -> gera,
        restored to gerak).
        """
        for removal in reversed(removals):
            candidates = []
            if removal.removed == "kan":
                candidates.append(removal.result + "k")
            candidates.append(removal.subject)
            for cand in candidates:
                reached, is_root = self._walk_prefixes(cand)
                if is_root:
                    return reached
        return None
