"""Reader and writer for the M2 annotation format.

One block per sentence: an "S " line carrying the whitespace-tokenized
source, zero or more "A " edit lines, then a blank line::

    S He go home
    A 1 2|||R:VERB|||goes|||REQUIRED|||-NONE-|||0

An edit line is "A start end|||type|||replacement|||REQUIRED|||-NONE-|||annotator".
A sentence with no edits carries the noop sentinel
"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0". "-NONE-" in the
replacement field denotes the empty replacement (a deletion). The two
filler fields between replacement and annotator are written verbatim as
"REQUIRED" and "-NONE-" and ignored on read.

Files are UTF-8; the writer emits Unix newlines and the parser tolerates
carriage returns and extra blank lines.
"""

from __future__ import annotations

import os

from .core import AnnotatedSentence, Edit, M2Corpus, spans_overlap
from .fileio import atomic_write

NOOP_TYPE = "noop"
NOOP_LINE = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0"


class M2ParseError(ValueError):
    """A malformed M2 file, with the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"M2 line {line_no}: {message}")
        self.line_no = line_no


def _parse_a_line(line: str, line_no: int, n_tokens: int) -> Edit | None:
    body = line[2:]
    fields = body.split("|||")
    if len(fields) != 6:
        raise M2ParseError(line_no, f"expected 6 |||-separated fields, got {len(fields)}")
    span = fields[0].split()
    if len(span) != 2:
        raise M2ParseError(line_no, f"span must be two integers, got {fields[0]!r}")
    try:
        start, end = int(span[0]), int(span[1])
    except ValueError:
        raise M2ParseError(line_no, f"non-integer span offsets {fields[0]!r}") from None
    etype = fields[1]
    if etype == NOOP_TYPE:
        return None
    replacement = "" if fields[2] == "-NONE-" else fields[2]
    try:
        annotator = int(fields[5])
    except ValueError:
        raise M2ParseError(line_no, f"non-integer annotator id {fields[5]!r}") from None
    if end > n_tokens:
        raise M2ParseError(line_no, f"span end {end} exceeds sentence length {n_tokens}")
    try:
        return Edit(start, end, etype, replacement, annotator)
    except ValueError as exc:
        raise M2ParseError(line_no, str(exc)) from None


def parse_m2(text: str) -> M2Corpus:
    """Parse M2 text into a corpus.

    Raises M2ParseError (carrying the line number) on wrong field
    counts, non-integer offsets, spans outside the sentence, overlapping
    same-annotator edits, or stray lines.
    """
    sentences: list[AnnotatedSentence] = []
    tokens: tuple[str, ...] | None = None
    edits: list[Edit] = []
    sentence_line = 0

    def flush() -> None:
        nonlocal tokens, edits
        if tokens is not None:
            try:
                sentences.append(AnnotatedSentence(tokens, tuple(edits)))
            except ValueError as exc:
                raise M2ParseError(sentence_line, str(exc)) from None
            tokens = None
            edits = []

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line == "S" or line.startswith("S "):
            flush()
            tokens = tuple(line[2:].split())
            sentence_line = line_no
            continue
        if line.startswith("A "):
            if tokens is None:
                raise M2ParseError(line_no, "edit line before any source line")
            edit = _parse_a_line(line, line_no, len(tokens))
            if edit is not None:
                for prev in edits:
                    if prev.annotator == edit.annotator and spans_overlap(
                        prev.start, prev.end, edit.start, edit.end
                    ):
                        raise M2ParseError(
                            line_no,
                            f"edit {edit.describe()} overlaps same-annotator edit {prev.describe()}",
                        )
                edits.append(edit)
            continue
        raise M2ParseError(line_no, f"unrecognized line {line!r}")
    flush()
    return M2Corpus(tuple(sentences))


def write_m2(corpus: M2Corpus) -> str:
    """Render a corpus in normalized M2 form.

    Edits appear in (start, end, annotator) order; a sentence with no
    edits at all gets the annotator-0 noop sentinel; deletions write
    their replacement as "-NONE-". Output of this function parses back
    to an equal corpus, and normalized files round-trip byte-for-byte.
    """
    blocks = []
    for sent in corpus:
        lines = ["S " + " ".join(sent.tokens) if sent.tokens else "S"]
        if sent.edits:
            for e in sent.edits:
                repl = e.replacement if e.replacement else "-NONE-"
                lines.append(
                    f"A {e.start} {e.end}|||{e.etype}|||{repl}|||REQUIRED|||-NONE-|||{e.annotator}"
                )
        else:
            lines.append(NOOP_LINE)
        blocks.append("\n".join(lines))
    return "".join(block + "\n\n" for block in blocks)


def load_m2(path: str | os.PathLike) -> M2Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_m2(fh.read())


def dump_m2(path: str | os.PathLike, corpus: M2Corpus) -> None:
    with atomic_write(path) as fh:
        fh.write(write_m2(corpus))
