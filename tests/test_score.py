import random
from fractions import Fraction
from math import comb

import pytest

from gecmerge import (
    AnnotatedSentence,
    CorpusAlignmentError,
    Edit,
    M2Corpus,
    Score,
    f_beta_from_counts,
    match_edits,
    precision_stability,
    score_corpus,
)
from helpers import binomial_deviation_oracle, random_corpus


def _corpus(tokens, *edit_sets):
    return M2Corpus(
        tuple(AnnotatedSentence(tuple(tokens), tuple(edits)) for edits in edit_sets)
    )


class TestMatchEdits:
    def test_self_match(self):
        rng = random.Random(5)
        corpus = random_corpus(rng, min_sentences=3, max_sentences=5)
        stats = match_edits(corpus, corpus)
        assert all(s.fp == 0 and s.fn == 0 for s in stats.values())
        total_tp = sum(s.tp for s in stats.values())
        assert total_tp == sum(len(sent.edits) for sent in corpus)

    def test_spurious_and_missed(self):
        tokens = ("a", "b", "c", "d")
        e1 = Edit(0, 1, "T", "x")
        e2 = Edit(2, 3, "T", "y")
        e3 = Edit(3, 4, "T", "z")
        gold = _corpus(tokens, (e1, e2))
        hyp = _corpus(tokens, (e1, e3))
        stats = match_edits(hyp, gold)
        assert (stats["T"].tp, stats["T"].fp, stats["T"].fn) == (1, 1, 1)

    def test_empty_hypothesis(self):
        tokens = ("a", "b", "c")
        gold = _corpus(tokens, (Edit(0, 1, "T", "x"), Edit(2, 3, "T", "y")))
        hyp = _corpus(tokens, ())
        stats = match_edits(hyp, gold)
        assert (stats["T"].tp, stats["T"].fp, stats["T"].fn) == (0, 0, 2)

    def test_type_label_not_required_to_match(self):
        tokens = ("a", "b")
        gold = _corpus(tokens, (Edit(0, 1, "R:GOLDTYPE", "x"),))
        hyp = _corpus(tokens, (Edit(0, 1, "R:HYPTYPE", "x"),))
        stats = match_edits(hyp, gold)
        assert stats["R:GOLDTYPE"].tp == 1
        assert "R:HYPTYPE" not in stats

    def test_annotator_selects_reference_side(self):
        tokens = ("a", "b")
        gold = _corpus(tokens, (Edit(0, 1, "T", "x", annotator=1),))
        hyp = _corpus(tokens, (Edit(0, 1, "T", "x", annotator=0),))
        assert match_edits(hyp, gold, annotator=1)["T"].tp == 1
        stats0 = match_edits(hyp, gold, annotator=0)
        assert (stats0["T"].tp, stats0["T"].fp) == (0, 1)

    def test_gold_totals_independent_of_hypothesis(self):
        rng = random.Random(7)
        for _ in range(50):
            gold = random_corpus(rng, min_sentences=2, max_sentences=4)
            hyp = M2Corpus(
                tuple(AnnotatedSentence(s.tokens, s.edits[:1]) for s in gold)
            )
            stats = match_edits(hyp, gold)
            gold_per_type: dict[str, int] = {}
            for sent in gold:
                for e in sent.edits:
                    gold_per_type[e.etype] = gold_per_type.get(e.etype, 0) + 1
            for etype, count in gold_per_type.items():
                assert stats[etype].tp + stats[etype].fn == count

    def test_swap_symmetry(self):
        # single shared type so label attribution cannot differ
        from helpers import random_edits

        rng = random.Random(9)
        for _ in range(50):
            sents_gold, sents_hyp = [], []
            for _ in range(rng.randint(2, 4)):
                tokens = ("a", "b", "c", "d", "e")
                relabel = lambda edits: tuple(
                    Edit(e.start, e.end, "T", e.replacement) for e in edits
                )
                sents_gold.append(
                    AnnotatedSentence(tokens, relabel(random_edits(rng, len(tokens))))
                )
                sents_hyp.append(
                    AnnotatedSentence(tokens, relabel(random_edits(rng, len(tokens))))
                )
            gold = M2Corpus(tuple(sents_gold))
            hyp = M2Corpus(tuple(sents_hyp))
            forward = match_edits(hyp, gold)
            backward = match_edits(gold, hyp)
            for etype in set(forward) | set(backward):
                f = forward.get(etype)
                b = backward.get(etype)
                assert (f.tp if f else 0) == (b.tp if b else 0)
                assert (f.fp if f else 0) == (b.fn if b else 0)
                assert (f.fn if f else 0) == (b.fp if b else 0)

    def test_source_mismatch_raises_with_index(self):
        gold = _corpus(("a", "b"), ())
        hyp = M2Corpus((AnnotatedSentence(("a", "c")),))
        with pytest.raises(CorpusAlignmentError) as err:
            match_edits(hyp, gold)
        assert err.value.index == 0


class TestFBeta:
    def test_paper_precision_recall_pairs(self):
        # tp=1, fp=1/P-1, fn=1/R-1 realizes a given precision/recall pair
        for precision, recall, expected in [
            (0.6721, 0.5297, 0.6378),
            (0.4788, 0.1544, 0.3371),
            (0.5336, 0.6977, 0.5599),
        ]:
            value = f_beta_from_counts(1.0, 1 / precision - 1, 1 / recall - 1, 0.5)
            assert value == pytest.approx(expected, abs=5e-4)

    def test_edge_values(self):
        assert f_beta_from_counts(0, 5, 7) == 0.0
        assert f_beta_from_counts(0, 0, 0) == 0.0
        assert f_beta_from_counts(10, 0, 0) == 1.0

    def test_matches_precision_recall_form(self):
        rng = random.Random(13)
        for _ in range(300):
            tp = rng.randint(1, 50)
            fp = rng.randint(0, 50)
            fn = rng.randint(0, 50)
            beta = rng.choice([0.5, 1.0, 2.0])
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            b2 = beta * beta
            expected = (1 + b2) * precision * recall / (b2 * precision + recall)
            assert abs(f_beta_from_counts(tp, fp, fn, beta) - expected) < 1e-12

    def test_monotonicity(self):
        base = f_beta_from_counts(10, 5, 5)
        assert f_beta_from_counts(11, 5, 5) >= base
        assert f_beta_from_counts(10, 6, 5) <= base
        assert f_beta_from_counts(10, 5, 6) <= base

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            f_beta_from_counts(1, 1, 1, beta=0)
        with pytest.raises(ValueError):
            f_beta_from_counts(-1, 0, 0)


class TestScoreCorpus:
    def test_self_scoring_is_perfect(self):
        rng = random.Random(15)
        corpus = random_corpus(rng, min_sentences=3, max_sentences=5)
        if not any(sent.edits for sent in corpus):
            corpus = M2Corpus(
                (AnnotatedSentence(("a", "b"), (Edit(0, 1, "T", "x"),)),)
            )
        overall, per_type = score_corpus(corpus, corpus)
        assert (overall.precision, overall.recall, overall.f_beta) == (1.0, 1.0, 1.0)
        assert all(s.f_beta == 1.0 for s in per_type.values())

    def test_half_right(self):
        tokens = ("a", "b", "c", "d")
        e1 = Edit(0, 1, "T", "x")
        e2 = Edit(2, 3, "T", "y")
        e3 = Edit(3, 4, "T", "z")
        overall, _ = score_corpus(_corpus(tokens, (e1, e3)), _corpus(tokens, (e1, e2)))
        assert overall.precision == pytest.approx(0.5)
        assert overall.recall == pytest.approx(0.5)
        assert overall.f_beta == pytest.approx(0.5)

    def test_empty_hypothesis_scores_zero(self):
        tokens = ("a", "b")
        overall, _ = score_corpus(
            _corpus(tokens, ()), _corpus(tokens, (Edit(0, 1, "T", "x"),))
        )
        assert (overall.precision, overall.recall, overall.f_beta) == (0.0, 0.0, 0.0)

    def test_score_from_counts_zero_division(self):
        score = Score.from_counts(0, 0, 0)
        assert (score.precision, score.recall, score.f_beta) == (0.0, 0.0, 0.0)


class TestPrecisionStability:
    def test_frozen_exact_value(self):
        # Binomial(20, 0.5): P(X <= 7) + P(X >= 13) = 2 * 137980 / 2^20
        assert precision_stability(20, 0.5, 0.15) == pytest.approx(
            0.26317596435546875, abs=1e-12
        )

    def test_deviation_beyond_range_is_impossible(self):
        assert precision_stability(10, 0.5, 0.6) == 0.0
        assert precision_stability(5, 0.0, 0.5) == 0.0
        assert precision_stability(5, 1.0, 0.5) == 0.0

    def test_degenerate_single_sample(self):
        assert precision_stability(1, 0.0, 0.5) == 0.0

    def test_matches_rational_oracle(self):
        for n in (1, 7, 20, 33, 50):
            for p in (0.0, 0.25, 0.5, 0.6, 0.9, 1.0):
                for delta in (0.0, 0.05, 0.15, 0.5):
                    got = precision_stability(n, p, delta)
                    want = binomial_deviation_oracle(n, p, delta)
                    assert abs(got - want) < 1e-12, (n, p, delta)

    def test_matches_rational_oracle_large_n(self):
        # tails from about 0.2 down to 5e-13, so the error bound is relative
        for n in (2000, 5000):
            for p in (0.25, 0.5, 0.6):
                for delta in (0.01, 0.05):
                    got = precision_stability(n, p, delta)
                    want = binomial_deviation_oracle(n, p, delta)
                    assert 0.0 < want < 1.0
                    assert abs(got - want) <= 1e-10 * want, (n, p, delta)

    def test_oracle_equals_direct_rational_sum(self):
        for n in (1, 2, 9, 30):
            for p in (0.0, 0.3, 0.6, 1.0):
                for delta in (0.0, 0.1, 0.25):
                    P, D = Fraction(p), Fraction(delta)
                    direct = sum(
                        comb(n, k) * P**k * (1 - P) ** (n - k)
                        for k in range(n + 1)
                        if abs(Fraction(k, n) - P) >= D
                    )
                    assert binomial_deviation_oracle(n, p, delta) == float(direct)

    def test_sample_counts_past_float_range(self):
        # comb(1030, 515) alone exceeds the largest float
        got = precision_stability(1030, 0.6, 0.05)
        assert 0.0 <= got <= 1.0
        assert abs(got - binomial_deviation_oracle(1030, 0.6, 0.05)) < 1e-12

    def test_monotone_in_delta(self):
        values = [precision_stability(30, 0.5, d) for d in (0.05, 0.1, 0.2, 0.4)]
        assert values == sorted(values, reverse=True)

    def test_doubling_samples_tightens(self):
        values = [precision_stability(n, 0.5, 0.15) for n in (10, 20, 40, 80)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            precision_stability(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            precision_stability(5, 1.5, 0.1)
        with pytest.raises(ValueError):
            precision_stability(5, 0.5, -0.1)
