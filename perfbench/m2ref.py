"""The benchmark's own minimal M2 reader and writer, edit applier and scorer.

These deliberately share no code with gecmerge, so that the output
checks and the quality metric do not trust the program they measure.
An edit is a plain tuple (start, end, etype, replacement, annotator);
a sentence is (tokens, edits).
"""

from __future__ import annotations

NONE = "-NONE-"


def read_m2(path):
    """Parse an M2 file into a list of (tokens, edits); noop lines are dropped."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    sentences = []
    for block in text.split("\n\n"):
        lines = [ln for ln in block.split("\n") if ln.strip()]
        if not lines:
            continue
        head = lines[0]
        if not (head == "S" or head.startswith("S ")):
            raise ValueError(f"{path}: block does not start with an S line: {head!r}")
        tokens = head[2:].split()
        edits = []
        for line in lines[1:]:
            if not line.startswith("A "):
                raise ValueError(f"{path}: stray line {line!r}")
            fields = line[2:].split("|||")
            if len(fields) != 6:
                raise ValueError(f"{path}: bad edit line {line!r}")
            start, end = (int(x) for x in fields[0].split())
            if fields[1] == "noop":
                continue
            repl = "" if fields[2] == NONE else fields[2]
            edits.append((start, end, fields[1], repl, int(fields[5])))
        sentences.append((tokens, edits))
    return sentences


def write_m2(path, sentences):
    """Write (tokens, edits) pairs as M2; edits are sorted by (start, end, annotator)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tokens, edits in sentences:
            fh.write("S " + " ".join(tokens) + "\n")
            if not edits:
                fh.write(f"A -1 -1|||noop|||{NONE}|||REQUIRED|||-NONE-|||0\n")
            for s, e, etype, repl, ann in sorted(edits, key=lambda x: (x[0], x[1], x[4])):
                fh.write(f"A {s} {e}|||{etype}|||{repl or NONE}|||REQUIRED|||-NONE-|||{ann}\n")
            fh.write("\n")


def conflict(a, b):
    """Two edits of one annotator cannot both apply (same rule as the M2 convention)."""
    if a[0] == a[1] and b[0] == b[1]:
        return a[0] == b[0]
    return a[0] < b[1] and b[0] < a[1]


def has_conflict(edits):
    return any(conflict(x, y) for i, x in enumerate(edits) for y in edits[i + 1:])


def apply(tokens, edits):
    """Apply a conflict-free edit set right to left; returns the new token list."""
    out = list(tokens)
    for s, e, _, repl, _ in sorted(edits, key=lambda x: (x[0], x[1]), reverse=True):
        out[s:e] = repl.split()
    return out


def keys(edits, annotator=None):
    return [(s, e, r) for s, e, _, r, a in edits if annotator is None or a == annotator]


def prf(tp, fp, fn, beta=0.5):
    """Precision, recall and F-beta from counts (0 where undefined)."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    b2 = beta * beta
    f = (1 + b2) * p * r / (b2 * p + r) if p + r else 0.0
    return p, r, f


def counts(hyp_keys_per_sent, ref_keys_per_sent):
    """Edit-level (tp, fp, fn) over parallel lists of per-sentence key lists."""
    tp = fp = fn = 0
    for hyp, ref in zip(hyp_keys_per_sent, ref_keys_per_sent):
        remaining = list(ref)
        for k in hyp:
            if k in remaining:
                remaining.remove(k)
                tp += 1
            else:
                fp += 1
        fn += len(remaining)
    return tp, fp, fn


def f05(hyp_sentences, ref_sentences, ref_annotator=0):
    """F0.5 of a hypothesis M2 (all annotators) against one reference annotator."""
    tp, fp, fn = counts(
        [keys(ed) for _, ed in hyp_sentences],
        [keys(ed, ref_annotator) for _, ed in ref_sentences],
    )
    return prf(tp, fp, fn)[2]
