"""Frequency-dictionary spellchecker.

A model counts surface forms from a monolingual corpus, skipping words
shorter than three characters and words that are not purely alphabetic,
and keeps a reference dictionary for words the corpus may lack. A word
is a suspect when it is rare (count below `known_min_count`), absent
from the dictionary, contains no digit, is not all-uppercase, and has
at least three characters.

A suspect's candidates are its one-edit neighbours: every string that
differs from it by swapping one pair of positions holding different
characters, or that sits at Levenshtein distance exactly 1 (one
deletion, or one substitution or insertion of a character that occurs
in some suggestible word). The neighbours are generated from the
suspect and looked up, so a suggestion costs O(length x alphabet), not
O(vocabulary). Suggestions are chosen in three stages:

1. the neighbour with the highest count above `candidate_min_count`
   (ties lexicographic);
2. the lexicographically smallest neighbour in the dictionary;
3. the leftmost split of the suspect into two known words.

Words with counts between `known_min_count` and `candidate_min_count`
are known (never flagged) but deliberately never suggested, mirroring
the two separate thresholds.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .fileio import atomic_write

DEFAULT_KNOWN_MIN_COUNT = 3
DEFAULT_CANDIDATE_MIN_COUNT = 20


@dataclass
class FrequencyModel:
    """Word counts plus a dictionary, with the suggestible words' alphabet."""

    counts: dict[str, int]
    dictionary: frozenset[str]
    known_min_count: int = DEFAULT_KNOWN_MIN_COUNT
    candidate_min_count: int = DEFAULT_CANDIDATE_MIN_COUNT
    _alphabet: str = field(init=False, repr=False, compare=False)
    _max_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dictionary = frozenset(self.dictionary)
        suggestible = [w for w, c in self.counts.items() if c > self.candidate_min_count]
        suggestible.extend(self.dictionary)
        self._alphabet = "".join(sorted(set("".join(suggestible))))
        self._max_len = max(map(len, suggestible), default=0)

    def in_dictionary(self, word: str) -> bool:
        """Case-sensitive membership with a lowercase fallback."""
        return word in self.dictionary or word.lower() in self.dictionary

    def is_known(self, word: str) -> bool:
        return self.counts.get(word, 0) >= self.known_min_count or self.in_dictionary(word)


def count_words(lines: Iterable[str]) -> Counter[str]:
    """Count surface forms, skipping short and non-alphabetic words.

    Counting is order-free, so a corpus may be split into shards whose
    Counters are summed afterwards with identical results.
    """
    counts: Counter[str] = Counter()
    for line in lines:
        for word in line.split():
            if len(word) >= 3 and word.isalpha():
                counts[word] += 1
    return counts


def build_model(
    lines: Iterable[str],
    dictionary: Iterable[str],
    known_min_count: int = DEFAULT_KNOWN_MIN_COUNT,
    candidate_min_count: int = DEFAULT_CANDIDATE_MIN_COUNT,
) -> FrequencyModel:
    return FrequencyModel(
        dict(count_words(lines)),
        frozenset(dictionary),
        known_min_count,
        candidate_min_count,
    )


def is_suspect(word: str, model: FrequencyModel) -> bool:
    """True when `word` looks misspelled and is worth trying to correct."""
    if len(word) < 3:
        return False
    if any(ch.isdigit() for ch in word):
        return False
    if word.isupper():
        return False
    if model.counts.get(word, 0) >= model.known_min_count:
        return False
    if model.in_dictionary(word):
        return False
    return True


def _neighbours(word: str, alphabet: str) -> set[str]:
    """Strings one deletion, substitution, insertion or swap away from `word`."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    out = {head + tail[1:] for head, tail in splits if tail}
    out.update(head + ch + tail[1:] for head, tail in splits if tail for ch in alphabet)
    out.update(head + ch + tail for head, tail in splits for ch in alphabet)
    out.update(
        word[:i] + word[j] + word[i + 1:j] + word[i] + word[j + 1:]
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] != word[j]
    )
    out.discard(word)
    return out


def suggest(word: str, model: FrequencyModel) -> str | None:
    """Best correction for a suspect word, or None when nothing qualifies.

    A returned suggestion is always a known word (or a pair of known
    words separated by a space, for the split stage), so correction is
    idempotent.
    """
    # a suggestible word one edit away is at most one character shorter
    if len(word) <= model._max_len + 1:
        neighbours = _neighbours(word, model._alphabet)
        counts, min_count = model.counts, model.candidate_min_count
        frequent = [(-counts[w], w) for w in neighbours if counts.get(w, 0) > min_count]
        if frequent:
            return min(frequent)[1]
        known = [w for w in neighbours if w in model.dictionary]
        if known:
            return min(known)
    for i in range(1, len(word)):
        left, right = word[:i], word[i:]
        if model.is_known(left) and model.is_known(right):
            return f"{left} {right}"
    return None


def _correct_token(token: str, model: FrequencyModel) -> list[str]:
    if len(token) < 3 or token.isupper() or any(ch.isdigit() for ch in token):
        return [token]
    capitalized = token[0].isupper()
    lookup = token.lower() if capitalized else token
    if not is_suspect(lookup, model):
        return [token]
    fixed = suggest(lookup, model)
    if fixed is None:
        return [token]
    if capitalized:
        fixed = fixed[0].upper() + fixed[1:]
    return fixed.split()


def correct_sentence(tokens: Sequence[str], model: FrequencyModel) -> list[str]:
    """Replace each suspect token with its suggestion, if any.

    Initial-capital tokens are lowercased for lookup and the suggestion
    re-capitalized; all-uppercase tokens and tokens containing digits
    pass through untouched. A split suggestion expands into two tokens.
    """
    out: list[str] = []
    for token in tokens:
        out.extend(_correct_token(token, model))
    return out


def save_model(path: str | os.PathLike, model: FrequencyModel) -> None:
    """Persist counts as "word<TAB>count", descending count then lexicographic."""
    rows = sorted(model.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    with atomic_write(path) as fh:
        for word, count in rows:
            fh.write(f"{word}\t{count}\n")


def load_model(
    path: str | os.PathLike,
    dictionary: Iterable[str],
    known_min_count: int = DEFAULT_KNOWN_MIN_COUNT,
    candidate_min_count: int = DEFAULT_CANDIDATE_MIN_COUNT,
) -> FrequencyModel:
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            try:
                word, count = line.split("\t")
                counts[word] = int(count)
            except ValueError:
                raise ValueError(f"model line {line_no}: expected 'word<TAB>count'") from None
    return FrequencyModel(counts, frozenset(dictionary), known_min_count, candidate_min_count)


def load_dictionary(path: str | os.PathLike) -> frozenset[str]:
    """One word per line; blank lines ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(word.strip() for word in fh if word.strip())
