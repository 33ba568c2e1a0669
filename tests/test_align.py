import random

import pytest

from gecmerge import align_tokens, apply_edits, classify_edit, extract_edits
from helpers import alignment_cost, exhaustive_alignment_cost, perturb_tokens, random_tokens

SMALL_DICT = frozenset(
    "the a cat dog go goes home good new york armadillo".split()
)


class TestAlignTokens:
    def test_substitution_example(self):
        ops = align_tokens(["He", "go", "home"], ["He", "goes", "home"])
        assert [op.kind for op in ops] == ["match", "substitute", "match"]

    def test_identity_is_all_match(self):
        tokens = ["a", "b", "c", "d"]
        assert all(op.kind == "match" for op in align_tokens(tokens, tokens))

    def test_single_deletion(self):
        ops = align_tokens(["a", "b"], ["a"])
        assert [op.kind for op in ops] == ["match", "delete"]

    def test_empty_sides(self):
        assert [op.kind for op in align_tokens([], ["a", "b"])] == ["insert", "insert"]
        assert [op.kind for op in align_tokens(["a", "b"], [])] == ["delete", "delete"]
        assert align_tokens([], []) == []

    def test_case_variants_pair_up(self):
        # pairing x/New costs 1.5 via delete+substitute(case), beating
        # substitute(x->new)+delete(New) at 2.0
        ops = align_tokens(["x", "New"], ["new"])
        assert [op.kind for op in ops] == ["delete", "substitute"]
        assert ops[1].src_start == 1

    def test_ops_partition_both_sequences(self):
        rng = random.Random(3)
        for _ in range(100):
            source = list(random_tokens(rng, 0, 8))
            target = perturb_tokens(rng, source)
            ops = align_tokens(source, target)
            src_pos = tgt_pos = 0
            for op in ops:
                assert (op.src_start, op.tgt_start) == (src_pos, tgt_pos)
                src_pos, tgt_pos = op.src_end, op.tgt_end
            assert (src_pos, tgt_pos) == (len(source), len(target))

    def test_cost_matches_exhaustive_oracle(self):
        rng = random.Random(11)
        for _ in range(250):
            source = list(random_tokens(rng, 0, 6))
            target = perturb_tokens(rng, source)[:6]
            ops = align_tokens(source, target)
            got = alignment_cost(ops, source, target)
            assert got == pytest.approx(exhaustive_alignment_cost(source, target))

    def test_deterministic(self):
        source = ["a", "b", "c", "a"]
        target = ["b", "a", "c"]
        assert align_tokens(source, target) == align_tokens(source, target)


class TestClassifyEdit:
    def test_operation_prefixes(self):
        assert classify_edit((), ("xyzzy",)).startswith("M:")
        assert classify_edit(("xyzzy",), ()).startswith("U:")
        assert classify_edit(("xyzzy",), ("plugh",)).startswith("R:")

    def test_determiner_insertion(self):
        assert classify_edit((), ("the",)) == "M:DET"
        assert classify_edit(("a",), ("the",)) == "R:DET"
        assert classify_edit(("an",), ()) == "U:DET"

    def test_punctuation(self):
        assert classify_edit((".",), (",",)) == "R:PUNCT"
        assert classify_edit((), (",",)) == "M:PUNCT"

    def test_orthography(self):
        assert classify_edit(("new",), ("New",)) == "R:ORTH"
        assert classify_edit(("New", "York"), ("NewYork",)) == "R:ORTH"

    def test_preposition(self):
        assert classify_edit(("in",), ("at",)) == "R:PREP"
        assert classify_edit((), ("of",)) == "M:PREP"

    def test_spelling_needs_unknown_source_within_distance(self):
        assert classify_edit(("god",), ("good",), SMALL_DICT) == "R:SPELL"
        # "go" is a dictionary word, so this is not a spelling fix
        assert classify_edit(("go",), ("goes",), SMALL_DICT) == "R:OTHER"
        # too far for a typo
        assert classify_edit(("zzzzzz",), ("good",), SMALL_DICT) == "R:OTHER"

    def test_other_fallback(self):
        assert classify_edit(("dog",), ("cat", "dog"), SMALL_DICT) == "R:OTHER"

    def test_rule_priority_punct_first(self):
        # '.' is punctuation on both sides even though also case-equal
        assert classify_edit((".",), (".", "."),) == "R:PUNCT"

    def test_empty_edit_rejected(self):
        with pytest.raises(ValueError):
            classify_edit((), ())

    def test_deterministic(self):
        for _ in range(3):
            assert classify_edit(("teh",), ("the",), SMALL_DICT) == "R:SPELL"


class TestExtractEdits:
    def test_substitution(self):
        edits = extract_edits(["He", "go", "home"], ["He", "goes", "home"], SMALL_DICT)
        assert len(edits) == 1
        assert (edits[0].start, edits[0].end, edits[0].replacement) == (1, 2, "goes")

    def test_identity_yields_nothing(self):
        assert extract_edits(["a", "b"], ["a", "b"]) == ()

    def test_insertion(self):
        edits = extract_edits(["I", "saw", "dog"], ["I", "saw", "a", "dog"], SMALL_DICT)
        assert len(edits) == 1
        assert (edits[0].start, edits[0].end, edits[0].replacement) == (2, 2, "a")
        assert edits[0].etype == "M:DET"

    def test_adjacent_ops_merge(self):
        edits = extract_edits(["a", "b", "c", "d"], ["a", "x", "d"])
        assert len(edits) == 1
        assert (edits[0].start, edits[0].end, edits[0].replacement) == (1, 3, "x")

    def test_apply_reproduces_target(self):
        rng = random.Random(29)
        for _ in range(300):
            source = list(random_tokens(rng, 0, 10))
            target = perturb_tokens(rng, source)
            edits = extract_edits(source, target)
            assert apply_edits(source, edits) == target

    def test_source_recoverable_by_realignment(self):
        rng = random.Random(31)
        for _ in range(200):
            source = list(random_tokens(rng, 1, 9))
            target = perturb_tokens(rng, source)
            forward = extract_edits(source, target)
            corrected = apply_edits(source, forward)
            backward = extract_edits(corrected, source)
            assert apply_edits(corrected, backward) == source
