import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmerge import (
    AnnotatedSentence,
    CorrectionId,
    Edit,
    ErrorDistribution,
    GenerationExhaustedError,
    M2Corpus,
    apply_edits,
    generate_corpus,
    generate_pair,
    measure_distribution,
    score_corpus,
)
from gecmerge.rng import SplitMix64
from gecmerge.synth import (
    PoolIndex,
    _applicable_ids,
    _corrupt,
    distribution_from_json_dict,
    distribution_to_json_dict,
)
from helpers import random_corpus, synth_applicable_oracle


def _corpus(*sentences):
    return M2Corpus(tuple(AnnotatedSentence(tuple(t), tuple(e)) for t, e in sentences))


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs for seed 1234567, from the published algorithm
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_random_unit_interval(self):
        rng = SplitMix64(42)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_randrange_bounds_and_determinism(self):
        rng = SplitMix64(7)
        values = [rng.randrange(10) for _ in range(1000)]
        assert set(values) == set(range(10))
        again = SplitMix64(7)
        assert [again.randrange(10) for _ in range(1000)] == values

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(9)
        items = list(range(20))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items


class TestMeasureDistribution:
    def test_two_sentence_histogram(self):
        corpus = _corpus(
            (("a", "b"), ()),
            (("c", "d"), (Edit(0, 1, "T", "x"), Edit(1, 2, "U", "y"))),
        )
        dist = measure_distribution(corpus)
        assert dist.per_sentence_hist == {0: 0.5, 2: 0.5}

    def test_identical_edits_are_a_point_mass(self):
        corpus = _corpus(
            (("a", "b"), (Edit(0, 1, "T", "x"),)),
            (("a", "b"), (Edit(0, 1, "T", "x"),)),
        )
        dist = measure_distribution(corpus)
        assert dist.correction_freq == {CorrectionId("a", "x", "T"): 1.0}

    def test_hand_counted_fixture(self):
        # mirrors tests/data/synth_train.m2: 5 sentences, 4 distinct corrections
        corpus = _corpus(
            (("she", "go", "home", "now"), (Edit(1, 2, "R:VERB", "goes"), Edit(2, 3, "U:OTHER", ""))),
            (("he", "is", "here"), ()),
            (("the", "dog", "good"), (Edit(2, 2, "M:VERB", "is"),)),
            (("a", "cat", "sat"), ()),
            (("the", "dog", "flies", "home"), (Edit(1, 2, "R:NOUN", "bird"),)),
        )
        dist = measure_distribution(corpus)
        assert dist.per_sentence_hist == {2: 0.2, 0: 0.4, 1: 0.4}
        assert dist.correction_freq == {
            CorrectionId("go", "goes", "R:VERB"): 0.25,
            CorrectionId("home", "", "U:OTHER"): 0.25,
            CorrectionId("", "is", "M:VERB"): 0.25,
            CorrectionId("dog", "bird", "R:NOUN"): 0.25,
        }

    def test_annotator_selection(self):
        corpus = _corpus(
            (("a", "b"), (Edit(0, 1, "T", "x", annotator=1),)),
        )
        assert measure_distribution(corpus, annotator=0).per_sentence_hist == {0: 1.0}
        assert measure_distribution(corpus, annotator=1).per_sentence_hist == {1: 1.0}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            measure_distribution(M2Corpus(()))

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            ErrorDistribution({0: 0.5}, {})
        with pytest.raises(ValueError):
            ErrorDistribution({1: 1.0}, {})
        with pytest.raises(ValueError):
            ErrorDistribution({0: 1.0}, {CorrectionId("a", "b", "T"): 0.5})

    @pytest.mark.parametrize(
        "source, replacement, etype",
        [(" ", "a", "R:X"), ("a", " the", "R:X"), ("a", "the\tcat", "R:X"), ("a b ", "", "U:X"), ("a", "b", "")],
    )
    def test_correction_id_rejects_non_canonical_text(self, source, replacement, etype):
        with pytest.raises(ValueError, match="correction"):
            CorrectionId(source, replacement, etype)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ErrorDistribution({0: bad}, {})
        with pytest.raises(ValueError, match="non-finite"):
            ErrorDistribution({1: 1.0}, {CorrectionId("a", "b", "T"): bad})


class TestGeneratePair:
    def test_zero_edit_draw_copies_pool_sentence(self):
        dist = ErrorDistribution({0: 1.0}, {})
        pool = [["a", "b", "c"]]
        corrupted, clean, gold = generate_pair(pool, dist, seed=1)
        assert corrupted == clean == ["a", "b", "c"]
        assert gold == ()

    def test_point_mass_replacement_trace(self):
        dist = ErrorDistribution(
            {1: 1.0}, {CorrectionId("go", "goes", "R:VERB"): 1.0}
        )
        pool = [["he", "goes", "home"]]
        corrupted, clean, gold = generate_pair(pool, dist, seed=3)
        assert corrupted == ["he", "go", "home"]
        assert clean == ["he", "goes", "home"]
        assert gold == (Edit(1, 2, "R:VERB", "goes"),)
        assert apply_edits(corrupted, gold) == clean

    def test_insertion_correction_deletes_occurrence(self):
        dist = ErrorDistribution({1: 1.0}, {CorrectionId("", "the", "M:DET"): 1.0})
        pool = [["the", "cat"]]
        corrupted, clean, gold = generate_pair(pool, dist, seed=5)
        assert corrupted == ["cat"]
        assert gold == (Edit(0, 0, "M:DET", "the"),)
        assert apply_edits(corrupted, gold) == clean

    def test_deletion_correction_inserts_somewhere(self):
        dist = ErrorDistribution({1: 1.0}, {CorrectionId("very", "", "U:ADV"): 1.0})
        pool = [["it", "is", "good"]]
        corrupted, clean, gold = generate_pair(pool, dist, seed=7)
        assert len(corrupted) == 4
        assert "very" in corrupted
        assert apply_edits(corrupted, gold) == clean

    def test_multi_token_find(self):
        dist = ErrorDistribution(
            {1: 1.0}, {CorrectionId("alot", "a lot", "R:OTHER"): 1.0}
        )
        pool = [["thanks", "a", "lot", "friend"]]
        corrupted, clean, gold = generate_pair(pool, dist, seed=9)
        assert corrupted == ["thanks", "alot", "friend"]
        assert gold == (Edit(1, 2, "R:OTHER", "a lot"),)

    def test_inapplicable_draw_exhausts(self):
        dist = ErrorDistribution(
            {1: 1.0}, {CorrectionId("", "zebra", "M:NOUN"): 1.0}
        )
        pool = [["no", "such", "word"]]
        with pytest.raises(GenerationExhaustedError) as err:
            generate_pair(pool, dist, seed=11, max_attempts=25)
        assert err.value.attempts == 25
        assert err.value.n_edits == 1
        assert err.value.corrections[0].replacement == "zebra"

    def test_disjoint_targets_required(self):
        # two draws of the same correction need two separate occurrences
        dist = ErrorDistribution(
            {2: 1.0}, {CorrectionId("", "the", "M:DET"): 1.0}
        )
        single = [["the", "cat"]]
        with pytest.raises(GenerationExhaustedError):
            generate_pair(single, dist, seed=13, max_attempts=10)
        double = [["the", "cat", "the", "dog"]]
        corrupted, clean, gold = generate_pair(double, dist, seed=13)
        assert corrupted == ["cat", "dog"]
        assert apply_edits(corrupted, gold) == clean

    _ADJACENT_INSERTIONS = ErrorDistribution(
        {2: 1.0},
        {CorrectionId("", ",", "M:PUNCT"): 0.5, CorrectionId("", "the", "M:DET"): 0.5},
    )

    def test_adjacent_insertion_targets_are_not_applicable(self):
        # undoing both would leave two gold insertions at one position
        with pytest.raises(GenerationExhaustedError):
            generate_corpus([["he", ",", "the", "dog"]], self._ADJACENT_INSERTIONS, 1, seed=0)

    def test_separated_insertion_targets_generate(self):
        pool = [["a", ",", "b", "the", "c"]]
        for seed in range(10):
            corrupted, clean, gold = generate_corpus(pool, self._ADJACENT_INSERTIONS, 3, seed=seed)
            for sent, trg in zip(gold, clean):
                assert apply_edits(sent.tokens, sent.edits) == trg.split()

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_max_attempts_must_be_positive(self, attempts):
        dist = ErrorDistribution({0: 1.0}, {})
        with pytest.raises(ValueError, match="max_attempts"):
            generate_pair([["a"]], dist, seed=1, max_attempts=attempts)


_TOKENS = st.sampled_from(["a", "b", "c", ","])
_FINDS = st.lists(_TOKENS, min_size=1, max_size=2).map(" ".join)
_CORRECTIONS = st.one_of(
    _FINDS.map(lambda find: CorrectionId("", find, "M:X")),
    _FINDS.map(lambda text: CorrectionId(text, "", "U:X")),
    _FINDS.map(lambda find: CorrectionId("x", find, "R:X")),
)


class TestApplicability:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.lists(_TOKENS, max_size=7), min_size=1, max_size=6),
        st.lists(_CORRECTIONS, min_size=1, max_size=3),
    )
    def test_matches_exhaustive_span_search(self, pool, corrections):
        applicable = _applicable_ids(PoolIndex(pool), corrections)
        assert applicable == [
            i for i, sent in enumerate(pool) if synth_applicable_oracle(sent, corrections)
        ]
        for i in applicable:
            clean = tuple(pool[i])
            corrupted, gold = _corrupt(clean, corrections, SplitMix64(i))
            assert apply_edits(corrupted, gold) == list(clean)


class TestGenerateCorpus:
    def _fixture(self):
        pool = [
            ["the", "cat", "goes", "home", "now"],
            ["a", "dog", "goes", "to", "the", "park"],
            ["she", "goes", "there", "with", "the", "dog"],
            ["the", "bird", "sings", "now"],
        ]
        dist = ErrorDistribution(
            {0: 0.3, 1: 0.5, 2: 0.2},
            {
                CorrectionId("go", "goes", "R:VERB"): 0.4,
                CorrectionId("", "the", "M:DET"): 0.3,
                CorrectionId("now", "", "U:ADV"): 0.3,
            },
        )
        return pool, dist

    def test_forward_consistency(self):
        pool, dist = self._fixture()
        corrupted, clean, gold = generate_corpus(pool, dist, 300, seed=17)
        assert len(corrupted) == len(clean) == len(gold) == 300
        for src_line, trg_line, sent in zip(corrupted, clean, gold):
            assert list(sent.tokens) == src_line.split()
            assert apply_edits(sent.tokens, sent.edits) == trg_line.split()

    def test_gold_scores_perfectly_against_itself(self):
        pool, dist = self._fixture()
        _, _, gold = generate_corpus(pool, dist, 50, seed=19)
        if any(sent.edits for sent in gold):
            overall, _ = score_corpus(gold, gold)
            assert overall.f_beta == 1.0

    def test_seed_reproducibility(self):
        pool, dist = self._fixture()
        first = generate_corpus(pool, dist, 120, seed=23)
        second = generate_corpus(pool, dist, 120, seed=23)
        assert first == second
        different = generate_corpus(pool, dist, 120, seed=24)
        assert different != first

    def test_histogram_tracks_target(self):
        pool, dist = self._fixture()
        _, _, gold = generate_corpus(pool, dist, 4000, seed=29)
        observed = Counter(len(sent.edits) for sent in gold)
        for k, probability in dist.per_sentence_hist.items():
            assert observed[k] / 4000 == pytest.approx(probability, abs=0.04)

    def test_drawn_corrections_appear_in_gold(self):
        pool, dist = self._fixture()
        corrupted, _, gold = generate_corpus(pool, dist, 200, seed=31)
        valid_ids = set(dist.correction_freq)
        for sent in gold:
            for e in sent.edits:
                cid = CorrectionId(
                    " ".join(sent.tokens[e.start:e.end]), e.replacement, e.etype
                )
                assert cid in valid_ids

    def test_progress_recorded_on_exhaustion(self):
        # max_attempts=1 makes every k=1 draw fatal; seed 5 yields three
        # k=0 successes before the first k=1 draw
        pool = [["the", "cat"]]
        dist = ErrorDistribution(
            {0: 0.5, 1: 0.5}, {CorrectionId("", "zebra", "M:NOUN"): 1.0}
        )
        with pytest.raises(GenerationExhaustedError) as err:
            generate_corpus(pool, dist, 500, seed=5, max_attempts=1)
        assert err.value.progress == 3

    def test_invalid_sentence_count(self):
        pool, dist = self._fixture()
        with pytest.raises(ValueError):
            generate_corpus(pool, dist, 0, seed=1)

    def test_forced_zero_draw_emits_identical_sides(self):
        pool = [["all", "is", "well"]]
        corrupted, clean, gold = generate_corpus(
            pool, ErrorDistribution({0: 1.0}, {}), 1, seed=2
        )
        assert corrupted == clean
        assert all(not sent.edits for sent in gold)


class TestDistributionSerialization:
    def test_json_round_trip(self):
        rng = random.Random(41)
        corpus = random_corpus(rng, min_sentences=4, max_sentences=8)
        dist = measure_distribution(corpus)
        assert distribution_from_json_dict(distribution_to_json_dict(dist)) == dist

    def test_json_schema(self):
        dist = ErrorDistribution(
            {0: 0.5, 1: 0.5}, {CorrectionId("a", "b", "T"): 1.0}
        )
        data = distribution_to_json_dict(dist)
        assert data["per_sentence_hist"] == {"0": 0.5, "1": 0.5}
        assert data["corrections"] == [
            {"source": "a", "replacement": "b", "etype": "T", "prob": 1.0}
        ]
