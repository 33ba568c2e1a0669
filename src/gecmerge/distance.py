"""Character-level string distances used for spelling decisions."""

from __future__ import annotations


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance counting an adjacent transposition as one operation."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    above = None
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                cost = min(cost, above[j - 2] + 1)
            cur.append(cost)
        above = prev
        prev = cur
    return prev[-1]


def is_levenshtein_one(a: str, b: str) -> bool:
    """True iff levenshtein(a, b) == 1, decided in linear time."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if abs(la - lb) != 1:
        return False
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def is_character_swap(a: str, b: str) -> bool:
    """True iff b equals a with exactly one pair of positions exchanged.

    The pair need not be adjacent; swapping equal characters does not
    count (the strings would be identical).
    """
    if len(a) != len(b):
        return False
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(diff) != 2:
        return False
    i, j = diff
    return a[i] == b[j] and a[j] == b[i]
