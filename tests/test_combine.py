import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmerge import (
    AnnotatedSentence,
    Edit,
    M2Corpus,
    apply_policy,
    build_stats,
    combine_iterative,
    filter_system,
    optimize_selection,
    partition_pair,
    score_corpus,
    train_policy,
)
from gecmerge.combine import (
    CellStats,
    PolicyEntry,
    SelectionPolicy,
    StatsTable,
    Subset,
    SystemOutput,
    empty_system,
    policy_from_json_dict,
    policy_to_json_dict,
)
from gecmerge.score import CorpusAlignmentError
from helpers import (
    brute_force_best_f,
    policy_f,
    random_gold,
    random_stats_table,
    random_system_pair,
    slot_fixture,
    stats_oracle,
    subset_corpora_oracle,
)


def _system(name, tokens, *edit_sets):
    return SystemOutput(
        name,
        M2Corpus(
            tuple(AnnotatedSentence(tuple(toks), tuple(edits)) for toks, edits in zip(tokens, edit_sets))
        ),
    )


def _sentence_keys(parts, subset):
    return [frozenset(e.key for tag, e in tagged if tag == subset) for tagged in parts]


class TestPartitionPair:
    def test_set_algebra_example(self):
        tokens = [("a", "b", "c")]
        e1 = Edit(0, 1, "T", "x")
        e2 = Edit(1, 2, "T", "y")
        e3 = Edit(2, 3, "T", "z")
        parts = partition_pair(
            _system("a", tokens, (e1, e2)), _system("b", tokens, (e2, e3))
        )
        assert _sentence_keys(parts, Subset.ONLY_A) == [frozenset({e1.key})]
        assert _sentence_keys(parts, Subset.BOTH) == [frozenset({e2.key})]
        assert _sentence_keys(parts, Subset.ONLY_B) == [frozenset({e3.key})]

    def test_identical_systems(self):
        tokens = [("a", "b")]
        e1 = Edit(0, 1, "T", "x")
        a = _system("a", tokens, (e1,))
        parts = partition_pair(a, _system("b", tokens, (e1,)))
        assert _sentence_keys(parts, Subset.BOTH) == [frozenset({e1.key})]
        assert _sentence_keys(parts, Subset.ONLY_A) == [frozenset()]
        assert _sentence_keys(parts, Subset.ONLY_B) == [frozenset()]

    def test_disjoint_systems_have_empty_both(self):
        tokens = [("a", "b", "c")]
        parts = partition_pair(
            _system("a", tokens, (Edit(0, 1, "T", "x"),)),
            _system("b", tokens, (Edit(1, 2, "T", "y"),)),
        )
        assert _sentence_keys(parts, Subset.BOTH) == [frozenset()]

    def test_both_takes_a_label(self):
        tokens = [("a", "b")]
        parts = partition_pair(
            _system("a", tokens, (Edit(0, 1, "R:ALabel", "x"),)),
            _system("b", tokens, (Edit(0, 1, "R:BLabel", "x"),)),
        )
        assert [(tag, e.etype) for tag, e in parts[0]] == [(Subset.BOTH, "R:ALabel")]

    def test_partition_algebra_random(self):
        rng = random.Random(41)
        for _ in range(100):
            a, b = random_system_pair(rng)
            parts = partition_pair(a, b)
            for idx in range(len(a.corpus)):
                keys_a = {e.key for e in a.corpus[idx].edits}
                keys_b = {e.key for e in b.corpus[idx].edits}
                only_a, only_b, both = (
                    {e.key for tag, e in parts[idx] if tag == subset}
                    for subset in (Subset.ONLY_A, Subset.ONLY_B, Subset.BOTH)
                )
                assert only_a | both == keys_a
                assert only_b | both == keys_b
                assert not (only_a & both) and not (only_b & both) and not (only_a & only_b)
                assert len(parts[idx]) == len(only_a | only_b | both)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([(0,), (0, 1), (0, 1, 2)]))
    def test_tagged_lists_follow_subset_corpora(self, rng, annotators):
        # apply_policy draws in list order, so the order within a subset matters
        a, b = random_system_pair(rng, annotators=annotators)
        corpora = subset_corpora_oracle(a, b)
        for idx, tagged in enumerate(partition_pair(a, b)):
            expected = [
                (subset, e)
                for subset in (Subset.BOTH, Subset.ONLY_A, Subset.ONLY_B)
                for e in corpora[subset][idx].edits
            ]
            assert tagged == expected


class TestBuildStats:
    def test_hand_counted_fixture(self):
        tokens = [
            ("he", "go", "home"),
            ("she", "like", "cats"),
            ("dogs", "runs", "fast"),
        ]
        g1 = Edit(1, 2, "R:VERB", "goes")
        g2 = Edit(1, 2, "R:VERB", "likes")
        g3 = Edit(2, 2, "M:PUNCT", ".")
        g4 = Edit(1, 2, "R:VERB", "run")
        g5 = Edit(0, 0, "M:PUNCT", ";")
        gold = M2Corpus(
            (
                AnnotatedSentence(tokens[0], (g1,)),
                AnnotatedSentence(tokens[1], (g2, g3)),
                AnnotatedSentence(tokens[2], (g4, g5)),
            )
        )
        a2 = Edit(0, 1, "R:VERB", "she")
        a4 = Edit(2, 3, "M:PUNCT", "quick")
        b2 = Edit(1, 2, "R:VERB", "liked")
        sys_a = _system("a", tokens, (g1, a2), (g3,), (a4,))
        sys_b = _system("b", tokens, (g1,), (b2,), (g4,))
        table = build_stats(partition_pair(sys_a, sys_b), gold)
        expected = (
            CellStats("M:PUNCT", Subset.ONLY_A, tp=1, fp=1),
            CellStats("R:VERB", Subset.BOTH, tp=1, fp=0),
            CellStats("R:VERB", Subset.ONLY_A, tp=0, fp=1),
            CellStats("R:VERB", Subset.ONLY_B, tp=1, fp=1),
        )
        assert table.cells == expected
        assert table.gold_total_per_type == {"R:VERB": 3, "M:PUNCT": 2}
        assert table.gold_total == 5

    def test_gold_equals_both(self):
        tokens = [("a", "b", "c")]
        e1 = Edit(0, 1, "T", "x")
        e2 = Edit(2, 3, "U", "y")
        a = _system("a", tokens, (e1, e2))
        gold = a.corpus
        table = build_stats(partition_pair(a, _system("b", tokens, (e1, e2))), gold)
        assert all(c.subset == Subset.BOTH and c.fp == 0 for c in table.cells)
        assert sum(c.tp for c in table.cells) == table.gold_total == 2

    def test_empty_gold(self):
        tokens = [("a", "b")]
        a = _system("a", tokens, (Edit(0, 1, "T", "x"),))
        gold = _system("gold", tokens, ()).corpus
        table = build_stats(partition_pair(a, _system("b", tokens, ())), gold)
        assert table.gold_total == 0
        assert all(c.tp == 0 for c in table.cells)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            StatsTable((CellStats("T", Subset.BOTH, 5, 0),), {"T": 3}, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([(0,), (0, 1), (0, 1, 2)]),
        st.sampled_from([0, 1]),
    )
    def test_one_pass_count_matches_subset_scoring(self, rng, annotators, annotator):
        a, b = random_system_pair(rng, annotators=annotators)
        gold = random_gold(rng, a, b)
        want = stats_oracle(subset_corpora_oracle(a, b), gold, annotator)
        assert build_stats(partition_pair(a, b), gold, annotator) == want

    def test_sentence_count_mismatch(self):
        a, b = random_system_pair(random.Random(5), min_sentences=3)
        parts = partition_pair(a, b)
        with pytest.raises(CorpusAlignmentError, match="sentence counts differ"):
            build_stats(parts[:-1], a.corpus)
        with pytest.raises(ValueError):
            StatsTable((), {"T": 3}, 4)


class TestOptimizeSelection:
    def test_two_cell_example(self):
        table = StatsTable(
            (
                CellStats("T", Subset.ONLY_A, tp=8, fp=2),
                CellStats("U", Subset.ONLY_B, tp=1, fp=9),
            ),
            {"T": 10, "U": 10},
            20,
        )
        policy = optimize_selection(table, beta=0.5, min_samples=0)
        assert policy.entries[("T", Subset.ONLY_A)].s == 1.0
        assert policy.entries[("U", Subset.ONLY_B)].s == 0.0
        assert policy_f(policy, table.gold_total) == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect_systems_keep_everything(self):
        table = StatsTable(
            (
                CellStats("T", Subset.BOTH, tp=4, fp=0),
                CellStats("U", Subset.ONLY_A, tp=6, fp=0),
            ),
            {"T": 4, "U": 6},
            10,
        )
        policy = optimize_selection(table, min_samples=0)
        assert all(e.s == 1.0 for e in policy.entries.values())
        assert policy_f(policy, 10) == pytest.approx(1.0)

    def test_nothing_worth_keeping(self):
        table = StatsTable(
            (
                CellStats("T", Subset.ONLY_A, tp=0, fp=3),
                CellStats("U", Subset.ONLY_B, tp=0, fp=7),
            ),
            {"T": 2},
            2,
        )
        policy = optimize_selection(table, min_samples=0)
        assert all(e.s == 0.0 for e in policy.entries.values())

    def test_agreement_pattern_emerges(self):
        # one error type observed in all three subsets: only the
        # high-precision agreement cell should survive
        table = StatsTable(
            (
                CellStats("R:OTHER", Subset.BOTH, tp=67, fp=33),
                CellStats("R:OTHER", Subset.ONLY_A, tp=17, fp=83),
                CellStats("R:OTHER", Subset.ONLY_B, tp=28, fp=72),
            ),
            {"R:OTHER": 300},
            300,
        )
        policy = optimize_selection(table, beta=0.5, min_samples=0)
        assert policy.entries[("R:OTHER", Subset.BOTH)].s == 1.0
        assert policy.entries[("R:OTHER", Subset.ONLY_A)].s == 0.0
        assert policy.entries[("R:OTHER", Subset.ONLY_B)].s == 0.0
        assert policy_f(policy, 300) == pytest.approx(83.75 / 175, abs=1e-12)

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(100):
            table = random_stats_table(rng)
            beta = rng.choice([0.5, 1.0])
            policy = optimize_selection(table, beta=beta, min_samples=0)
            got = policy_f(policy, table.gold_total)
            want = brute_force_best_f(table.cells, table.gold_total, beta)
            assert abs(got - want) < 1e-9

    def test_min_samples_forces_small_cells_off(self):
        table = StatsTable(
            (
                CellStats("T", Subset.BOTH, tp=1, fp=0),
                CellStats("U", Subset.ONLY_A, tp=5, fp=1),
            ),
            {"T": 1, "U": 6},
            7,
        )
        policy = optimize_selection(table, min_samples=2)
        assert policy.entries[("T", Subset.BOTH)].s == 0.0
        assert policy.entries[("U", Subset.ONLY_A)].s == 1.0
        unforced = optimize_selection(table, min_samples=0)
        assert unforced.entries[("T", Subset.BOTH)].s == 1.0

    def test_scale_invariance(self):
        rng = random.Random(47)
        for _ in range(50):
            table = random_stats_table(rng, max_cells=8, max_count=20)
            base = optimize_selection(table, min_samples=0)
            for factor in (2, 5):
                scaled = StatsTable(
                    tuple(
                        CellStats(c.etype, c.subset, c.tp * factor, c.fp * factor)
                        for c in table.cells
                    ),
                    {t: n * factor for t, n in table.gold_total_per_type.items()},
                    table.gold_total * factor,
                )
                policy = optimize_selection(scaled, min_samples=0)
                assert {k: e.s for k, e in policy.entries.items()} == {
                    k: e.s for k, e in base.entries.items()
                }

    def test_adding_cells_monotonicity(self):
        rng = random.Random(53)
        for _ in range(50):
            table = random_stats_table(rng, max_cells=6)
            base_f = policy_f(optimize_selection(table, min_samples=0), table.gold_total)
            etype = table.cells[0].etype
            free_subsets = [
                s for s in Subset if (etype, s) not in {(c.etype, c.subset) for c in table.cells}
            ]
            if not free_subsets:
                continue
            helpful = StatsTable(
                table.cells + (CellStats(etype, free_subsets[0], tp=3, fp=0),),
                {
                    t: n + (3 if t == etype else 0)
                    for t, n in table.gold_total_per_type.items()
                },
                table.gold_total + 3,
            )
            # gold_total grows with the new true positives, so compare against
            # the same objective on the extended table without the new cell
            without = StatsTable(
                table.cells, helpful.gold_total_per_type, helpful.gold_total
            )
            f_without = policy_f(optimize_selection(without, min_samples=0), without.gold_total)
            f_with = policy_f(optimize_selection(helpful, min_samples=0), helpful.gold_total)
            assert f_with >= f_without - 1e-12
            useless = StatsTable(
                table.cells + (CellStats(etype, free_subsets[0], tp=0, fp=4),),
                table.gold_total_per_type,
                table.gold_total,
            )
            f_useless = policy_f(optimize_selection(useless, min_samples=0), table.gold_total)
            assert f_useless == pytest.approx(base_f, abs=1e-12)

    def test_sample_mode_keeps_indifferent_cells_fractional(self):
        # the optimum from the first cell alone is F = 3.75/6 = 0.625;
        # the second cell's standalone ratio 1.25 * 2/4 equals it exactly,
        # so keeping it at any fraction leaves F unchanged
        table = StatsTable(
            (
                CellStats("T", Subset.BOTH, tp=3, fp=0),
                CellStats("T", Subset.ONLY_A, tp=2, fp=2),
            ),
            {"T": 12},
            12,
        )
        rounded = optimize_selection(table, min_samples=0, rounding="round")
        sampled = optimize_selection(table, min_samples=0, rounding="sample")
        assert rounded.entries[("T", Subset.ONLY_A)].s == 0.0
        assert sampled.entries[("T", Subset.ONLY_A)].s == 0.5
        assert sampled.entries[("T", Subset.BOTH)].s == 1.0
        assert all(e.s in (0.0, 1.0) for e in rounded.entries.values())
        # a cell contributing no true positives is never kept fractionally
        junk = StatsTable(
            (CellStats("T", Subset.BOTH, tp=0, fp=5),), {"T": 2}, 2
        )
        assert optimize_selection(junk, min_samples=0, rounding="sample").entries[
            ("T", Subset.BOTH)
        ].s == 0.0

    def test_invalid_arguments(self):
        table = StatsTable((), {}, 0)
        with pytest.raises(ValueError):
            optimize_selection(table, beta=0)
        with pytest.raises(ValueError):
            optimize_selection(table, rounding="truncate")
        with pytest.raises(ValueError):
            optimize_selection(table, min_samples=-1)


class TestPolicySerialization:
    def test_round_trip(self):
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=2,
            entries={
                ("R:VERB", Subset.BOTH): PolicyEntry(1.0, 5, 1),
                ("M:DET", Subset.ONLY_A): PolicyEntry(0.0, 0, 4),
            },
            dev_name="dev",
            created="2021-06-01T00:00:00Z",
            system_names=("nem", "gram"),
        )
        assert policy_from_json_dict(policy_to_json_dict(policy)) == policy

    def test_stable_entry_order_and_fields(self):
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=2,
            entries={
                ("Z", Subset.ONLY_B): PolicyEntry(1.0, 2, 0),
                ("A", Subset.BOTH): PolicyEntry(1.0, 3, 1),
                ("A", Subset.ONLY_A): PolicyEntry(0.0, 1, 9),
            },
        )
        data = policy_to_json_dict(policy)
        assert [(e["etype"], e["subset"]) for e in data["entries"]] == [
            ("A", "both"),
            ("A", "only_a"),
            ("Z", "only_b"),
        ]
        assert list(data) == ["version", "beta", "min_samples", "entries", "metadata"]
        assert data["entries"][0]["precision"] == 0.75
        # serialization is deterministic
        assert json.dumps(data) == json.dumps(policy_to_json_dict(policy))

    def test_version_check(self):
        data = policy_to_json_dict(SelectionPolicy(0.5, 2))
        data["version"] = 99
        with pytest.raises(ValueError):
            policy_from_json_dict(data)

    def test_rejects_out_of_range_s(self):
        data = policy_to_json_dict(
            SelectionPolicy(0.5, 2, {("T", Subset.BOTH): PolicyEntry(1.0, 1, 0)})
        )
        data["entries"][0]["s"] = 1.5
        with pytest.raises(ValueError):
            policy_from_json_dict(data)


def _all_ones_policy(system, beta=0.5):
    entries = {}
    for sent in system.corpus:
        for e in sent.edits:
            for subset in Subset:
                entries[(e.etype, subset)] = PolicyEntry(1.0, 0, 0)
    return SelectionPolicy(beta=beta, min_samples=0, entries=entries)


class TestApplyPolicy:
    def test_self_combination_all_ones_reproduces_input(self):
        rng = random.Random(59)
        for _ in range(30):
            a, _ = random_system_pair(rng)
            result = apply_policy(a, a, _all_ones_policy(a))
            assert result == a.corpus

    def test_all_zeros_drops_everything(self):
        rng = random.Random(61)
        a, b = random_system_pair(rng)
        policy = SelectionPolicy(beta=0.5, min_samples=0, entries={})
        result = apply_policy(a, b, policy)
        assert all(not sent.edits for sent in result)

    def test_agreement_only_policy(self):
        tokens = [("it", "is", "good"), ("it", "is", "good")]
        shared = Edit(2, 3, "R:OTHER", "great")
        a = _system("a", tokens, (shared,), (shared,))
        b = _system("b", tokens, (shared,), ())
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=0,
            entries={("R:OTHER", Subset.BOTH): PolicyEntry(1.0, 1, 0)},
        )
        result = apply_policy(a, b, policy)
        assert [len(sent.edits) for sent in result] == [1, 0]

    def test_unseen_cells_default_to_drop(self):
        tokens = [("a", "b")]
        a = _system("a", tokens, (Edit(0, 1, "R:NEW", "x"),))
        b = _system("b", tokens, ())
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=0,
            entries={("R:OLD", Subset.ONLY_A): PolicyEntry(1.0, 1, 0)},
        )
        assert all(not sent.edits for sent in apply_policy(a, b, policy))

    def test_overlap_arbitration_prefers_only_a(self):
        tokens = [("a", "b", "c", "d")]
        edit_a = Edit(1, 3, "T", "x")
        edit_b = Edit(0, 2, "T", "y")
        a = _system("a", tokens, (edit_a,))
        b = _system("b", tokens, (edit_b,))
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=0,
            entries={
                ("T", Subset.ONLY_A): PolicyEntry(1.0, 1, 0),
                ("T", Subset.ONLY_B): PolicyEntry(1.0, 1, 0),
            },
        )
        result = apply_policy(a, b, policy)
        # despite B's edit starting earlier, the subset preference wins
        assert [e.key for e in result[0].edits] == [edit_a.key]

    def test_output_normalized_to_annotator_zero(self):
        tokens = [("a", "b")]
        a = _system("a", tokens, (Edit(0, 1, "T", "x", annotator=4),))
        result = apply_policy(a, a, _all_ones_policy(a))
        assert result[0].edits[0].annotator == 0

    def test_sampling_is_seed_deterministic(self):
        tokens = [("a", "b")] * 200
        edit_sets = [(Edit(0, 1, "T", "x"),)] * 200
        a = _system("a", tokens, *edit_sets)
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=0,
            entries={("T", Subset.BOTH): PolicyEntry(0.5, 1, 1)},
        )
        first = apply_policy(a, a, policy, seed=123)
        second = apply_policy(a, a, policy, seed=123)
        assert first == second
        kept = sum(len(s.edits) for s in first)
        assert 60 < kept < 140
        other = apply_policy(a, a, policy, seed=124)
        assert other != first

    def test_sampling_draws_in_annotator_order(self):
        # A proposes "x" under annotators 0 and 2 and "y" under 1; "x" counts
        # once, as annotator 2's edit, so "y" takes the first draw
        tokens = [("a", "b", "c")]
        a = _system(
            "a",
            tokens,
            (Edit(0, 1, "T", "x", 0), Edit(0, 1, "U", "y", 1), Edit(0, 1, "T", "x", 2)),
        )
        policy = SelectionPolicy(
            beta=0.5,
            min_samples=0,
            entries={
                ("T", Subset.ONLY_A): PolicyEntry(0.4, 1, 1),
                ("U", Subset.ONLY_A): PolicyEntry(0.7, 1, 1),
            },
        )
        kept = ""
        for seed in range(40):
            edits = apply_policy(a, empty_system(a.corpus), policy, seed=seed)[0].edits
            kept += edits[0].replacement if edits else "-"
        assert kept == "-yyyyy-xyyyxyxxyxxyxxy--yx-yy-y--xyyx-x-"


def _token_changed(corpus, index):
    """The corpus with sentence `index`'s first token replaced, same length."""
    sent = corpus[index]
    changed = AnnotatedSentence(("zzz",) + sent.tokens[1:], sent.edits)
    return M2Corpus(corpus.sentences[:index] + (changed,) + corpus.sentences[index + 1:])


class TestSourceAlignment:
    @pytest.mark.parametrize(
        "run",
        [
            lambda systems, gold: train_policy(systems[0], systems[1], gold),
            lambda systems, gold: filter_system(systems[0], gold),
            lambda systems, gold: combine_iterative(systems, gold),
        ],
        ids=["train_policy", "filter_system", "combine_iterative"],
    )
    def test_gold_token_mismatch_rejected(self, run):
        systems, gold = slot_fixture(random.Random(3), n_systems=3)
        with pytest.raises(CorpusAlignmentError, match="source tokens differ") as err:
            run(systems, _token_changed(gold, 2))
        assert err.value.index == 2

    def test_system_mismatch_reported_before_gold_mismatch(self):
        (a, b), gold = slot_fixture(random.Random(3))
        b = SystemOutput(b.name, _token_changed(b.corpus, 4))
        with pytest.raises(CorpusAlignmentError) as err:
            train_policy(a, b, _token_changed(gold, 2))
        assert err.value.index == 4


class TestTrainAndDominance:
    def test_dev_set_dominance(self):
        rng = random.Random(67)
        for _ in range(60):
            (a, b), gold = slot_fixture(rng)
            policy = train_policy(a, b, gold, min_samples=0)
            combined = apply_policy(a, b, policy)
            f_combined = score_corpus(combined, gold)[0].f_beta
            f_a = score_corpus(a.corpus, gold)[0].f_beta
            f_b = score_corpus(b.corpus, gold)[0].f_beta
            assert f_combined >= max(f_a, f_b) - 1e-9

    def test_metadata_recorded(self):
        rng = random.Random(71)
        (a, b), gold = slot_fixture(rng)
        policy = train_policy(a, b, gold, dev_name="dev42", created="now")
        assert policy.system_names == ("sys0", "sys1")
        assert policy.dev_name == "dev42"
        assert policy.created == "now"


class TestCombineIterative:
    def test_two_systems_equal_single_step(self):
        rng = random.Random(73)
        (a, b), gold = slot_fixture(rng)
        combined, policies = combine_iterative([a, b], gold, min_samples=0)
        policy = train_policy(a, b, gold, min_samples=0)
        assert len(policies) == 1
        assert combined == apply_policy(a, b, policy)

    def test_three_copies_yield_subset(self):
        rng = random.Random(79)
        (a, _), gold = slot_fixture(rng)
        combined, _ = combine_iterative([a, a, a], gold, min_samples=0)
        for out_sent, in_sent in zip(combined, a.corpus):
            assert {e.key for e in out_sent.edits} <= {e.key for e in in_sent.edits}

    def test_monotone_per_step(self):
        rng = random.Random(83)
        for _ in range(20):
            systems, gold = slot_fixture(rng, n_systems=4)
            current = systems[0]
            f_current = score_corpus(current.corpus, gold)[0].f_beta
            for nxt in systems[1:]:
                combined, _ = combine_iterative([current, nxt], gold, min_samples=0)
                f_next = score_corpus(nxt.corpus, gold)[0].f_beta
                f_combined = score_corpus(combined, gold)[0].f_beta
                assert f_combined >= max(f_current, f_next) - 1e-9
                current = SystemOutput("fold", combined)
                f_current = f_combined

    def test_requires_two_systems(self):
        rng = random.Random(89)
        (a, _), gold = slot_fixture(rng)
        with pytest.raises(ValueError):
            combine_iterative([a], gold)


class TestFilterSystem:
    def test_high_precision_system_untouched(self):
        tokens = [("a", "b", "c")] * 3
        edits = [(Edit(0, 1, "T", "x"),), (Edit(1, 2, "T", "y"),), (Edit(0, 1, "T", "z"),)]
        a = _system("a", tokens, *edits)
        gold = a.corpus
        policy, filtered = filter_system(a, gold, min_samples=0)
        assert filtered == a.corpus
        assert all(e.s == 1.0 for e in policy.entries.values())

    def test_zero_precision_type_dropped(self):
        # R:BAD ends up with tp=0, fp=5; selection must discard it
        tokens = [("a", "b", "c", "d")] * 5
        good = [Edit(0, 1, "R:GOOD", f"g{i}") for i in range(5)]
        bad = [Edit(2, 3, "R:BAD", f"b{i}") for i in range(5)]
        a = _system("a", tokens, *[(g, w) for g, w in zip(good, bad)])
        gold = _system("gold", tokens, *[(g,) for g in good]).corpus
        policy, filtered = filter_system(a, gold)
        assert policy.entries[("R:BAD", Subset.ONLY_A)].s == 0.0
        assert policy.entries[("R:GOOD", Subset.ONLY_A)].s == 1.0
        before = score_corpus(a.corpus, gold)[0]
        after = score_corpus(filtered, gold)[0]
        assert after.precision > before.precision
        assert after.f_beta > before.f_beta

    def test_never_hurts_on_dev(self):
        rng = random.Random(97)
        for _ in range(60):
            (a, _), gold = slot_fixture(rng)
            _, filtered = filter_system(a, gold, min_samples=0)
            f_before = score_corpus(a.corpus, gold)[0].f_beta
            f_after = score_corpus(filtered, gold)[0].f_beta
            assert f_after >= f_before - 1e-12
