import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmerge import build_model, correct_sentence, is_suspect, suggest
from gecmerge.distance import damerau_levenshtein, is_character_swap, is_levenshtein_one
from gecmerge.spellcheck import (
    FrequencyModel,
    count_words,
    load_dictionary,
    load_model,
    save_model,
)
from helpers import levenshtein


class TestDistances:
    def test_levenshtein(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("teh", "the") == 2

    def test_damerau_transposition(self):
        assert damerau_levenshtein("teh", "the") == 1
        assert damerau_levenshtein("kitten", "sitting") == 3
        assert damerau_levenshtein("go", "goes") == 2
        assert damerau_levenshtein("abcd", "abcd") == 0

    def test_is_levenshtein_one(self):
        assert is_levenshtein_one("cat", "cut")
        assert is_levenshtein_one("cat", "cats")
        assert is_levenshtein_one("cats", "cat")
        assert not is_levenshtein_one("cat", "cat")
        assert not is_levenshtein_one("cat", "dog")
        assert not is_levenshtein_one("cat", "catss")
        rng = random.Random(3)
        words = ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))) for _ in range(60)]
        for a in words:
            for b in words:
                assert is_levenshtein_one(a, b) == (levenshtein(a, b) == 1)

    def test_is_character_swap(self):
        assert is_character_swap("teh", "the")
        assert is_character_swap("abcd", "dbca")  # non-adjacent pair
        assert not is_character_swap("abc", "abc")
        assert not is_character_swap("abc", "abcd")
        assert not is_character_swap("abcd", "badc")  # two pairs


class TestCountWords:
    def test_skips_short_words(self):
        assert dict(count_words(["the the the an"])) == {"the": 3}

    def test_skips_non_alphabetic(self):
        assert dict(count_words(["don't cat cat"])) == {"cat": 2}
        assert dict(count_words(["x9yz abc-def hello"])) == {"hello": 1}

    def test_surface_forms_kept(self):
        counts = count_words(["The the THE"])
        assert counts == Counter({"The": 1, "the": 1, "THE": 1})

    def test_sharded_counting_merges_deterministically(self):
        rng = random.Random(7)
        words = ["alpha", "beta", "gamma", "delta", "ab", "x1y"]
        lines = [" ".join(rng.choice(words) for _ in range(12)) for _ in range(80)]
        whole = count_words(lines)
        shards = [lines[i::4] for i in range(4)]
        merged: Counter[str] = Counter()
        for shard in shards:
            merged += count_words(shard)
        assert merged == whole


def _model(counts, dictionary=(), **kwargs):
    return FrequencyModel(dict(counts), frozenset(dictionary), **kwargs)


class TestIsSuspect:
    def test_acronyms_skipped(self):
        assert not is_suspect("NASA", _model({}))

    def test_digits_skipped(self):
        assert not is_suspect("x9yz", _model({}))

    def test_short_words_skipped(self):
        assert not is_suspect("ab", _model({}))

    def test_unknown_word_is_suspect(self):
        assert is_suspect("thsi", _model({}))

    def test_counted_words_known_at_threshold(self):
        model = _model({"word": 3, "rare": 2})
        assert not is_suspect("word", model)
        assert is_suspect("rare", model)

    def test_dictionary_words_known(self):
        model = _model({}, dictionary={"armadillo"})
        assert not is_suspect("armadillo", model)
        # lowercase fallback
        assert not is_suspect("Armadillo", model)


class TestSuggest:
    def test_swap_from_frequent_words(self):
        model = _model({"the": 1000})
        assert suggest("teh", model) == "the"

    def test_distance_one_from_frequent_words(self):
        model = _model({"house": 500})
        assert suggest("huse", model) == "house"

    def test_frequency_order_wins(self):
        model = _model({"cost": 100, "cast": 50})
        assert suggest("cust", model) == "cost"
        flipped = _model({"cost": 50, "cast": 100})
        assert suggest("cust", flipped) == "cast"

    def test_equal_counts_break_lexicographically(self):
        model = _model({"cost": 60, "cast": 60})
        assert suggest("cust", model) == "cast"

    def test_candidate_threshold_is_strict(self):
        assert suggest("teh", _model({"the": 20})) is None
        assert suggest("teh", _model({"the": 21})) == "the"

    def test_dictionary_stage_in_lexicographic_order(self):
        model = _model({}, dictionary={"armadillo", "armadilly"})
        assert suggest("armadilo", model) == "armadillo"

    def test_split_stage_leftmost(self):
        model = _model({"hello": 5, "world": 5})
        assert suggest("helloworld", model) == "hello world"

    def test_split_halves_may_come_from_dictionary(self):
        model = _model({"world": 5}, dictionary={"a"})
        assert suggest("aworld", model) == "a world"

    def test_no_candidate_returns_none(self):
        model = _model({"the": 1000})
        assert suggest("zqzqzq", model) is None

    def test_stage_order_prefers_frequent_over_dictionary(self):
        model = _model({"cast": 100}, dictionary={"cost"})
        assert suggest("cust", model) == "cast"

    def test_suggestion_shape_is_checkable(self):
        # every suggestion is one swap, one edit, or a split of the input
        model = _model(
            {"the": 1000, "house": 500, "hello": 5, "world": 5},
            dictionary={"armadillo"},
        )
        for word in ("teh", "huse", "armadilo", "helloworld"):
            fixed = suggest(word, model)
            assert fixed is not None
            if " " in fixed:
                assert fixed.replace(" ", "") == word
            else:
                assert is_character_swap(word, fixed) != is_levenshtein_one(word, fixed)


def _scan_suggest(word, model):
    """Reference suggest: test every suggestible word in ranking order."""

    def close_enough(candidate):
        if len(word) == len(candidate):
            return is_character_swap(word, candidate) or is_levenshtein_one(word, candidate)
        return is_levenshtein_one(word, candidate)

    frequent = sorted(
        (w for w, c in model.counts.items() if c > model.candidate_min_count),
        key=lambda w: (-model.counts[w], w),
    )
    for candidate in frequent + sorted(model.dictionary):
        if close_enough(candidate):
            return candidate
    for i in range(1, len(word)):
        left, right = word[:i], word[i:]
        if model.is_known(left) and model.is_known(right):
            return f"{left} {right}"
    return None


VOCAB_LETTERS = "abcé"
VOCAB_WORDS = st.text(alphabet=VOCAB_LETTERS, min_size=1, max_size=5)
# "z" and "É" never occur in the vocabulary; lengths reach past the longest word + 1
SUSPECTS = st.text(alphabet=VOCAB_LETTERS + "zÉ", max_size=9)


@st.composite
def _edited(draw, word):
    """`word` with one random deletion, substitution, insertion or swap."""
    i = draw(st.integers(0, len(word)))
    ch = draw(st.sampled_from(VOCAB_LETTERS + "z"))
    kind = draw(st.sampled_from(["delete", "substitute", "insert", "swap"]))
    if kind == "insert" or i == len(word):
        return word[:i] + ch + word[i:]
    if kind == "delete":
        return word[:i] + word[i + 1:]
    if kind == "substitute":
        return word[:i] + ch + word[i + 1:]
    j = draw(st.integers(i, len(word) - 1))
    return word[:i] + word[j] + word[i + 1:j] + word[i] + word[j + 1:] if j > i else word


class TestSuggestMatchesScan:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_suggestion_as_full_scan(self, data):
        counts = data.draw(st.dictionaries(VOCAB_WORDS, st.integers(1, 40), max_size=12))
        dictionary = data.draw(st.frozensets(VOCAB_WORDS, max_size=12))
        # either order of the two thresholds; a suspect may itself be suggestible
        known_min = data.draw(st.integers(1, 30))
        candidate_min = data.draw(st.integers(0, 30))
        model = _model(counts, dictionary, known_min_count=known_min, candidate_min_count=candidate_min)
        vocab = sorted(set(counts) | dictionary)
        near = st.sampled_from(vocab).flatmap(_edited) if vocab else SUSPECTS
        word = data.draw(st.one_of(SUSPECTS, near))
        assert suggest(word, model) == _scan_suggest(word, model)

    def test_very_long_suspect_has_no_suggestion(self):
        model = _model({"the": 1000, "house": 500}, dictionary={"armadillo"})
        assert suggest("q" * 10_000, model) is None

    def test_neighbours_limited_to_one_edit(self):
        model = _model({"abcd": 100})
        assert suggest("abcdef", model) is None
        assert suggest("dbca", model) == "abcd"


class TestCorrectSentence:
    def test_clean_sentence_untouched(self):
        model = _model({"the": 100, "cat": 100, "sat": 100})
        tokens = ["the", "cat", "sat"]
        assert correct_sentence(tokens, model) == tokens

    def test_capitalization_round_trip(self):
        model = _model({"the": 1000})
        assert correct_sentence(["Teh"], model) == ["The"]

    def test_mixed_sentence(self):
        model = _model({"the": 1000, "cat": 900})
        got = correct_sentence(["Teh", "NASA", "cta", "x9yz", "on"], model)
        assert got == ["The", "NASA", "cat", "x9yz", "on"]

    def test_split_suggestion_expands_tokens(self):
        model = _model({"hello": 5, "world": 5})
        assert correct_sentence(["say", "helloworld"], model) == ["say", "hello", "world"]

    def test_dictionary_words_never_modified(self):
        model = _model({"the": 1000}, dictionary={"armadillo", "quokka"})
        tokens = ["armadillo", "quokka", "teh"]
        assert correct_sentence(tokens, model) == ["armadillo", "quokka", "the"]

    def test_idempotent(self):
        model = _model(
            {"the": 1000, "house": 500, "hello": 5, "world": 5},
            dictionary={"armadillo"},
        )
        tokens = ["teh", "huse", "armadilo", "helloworld", "zqzqzq"]
        once = correct_sentence(tokens, model)
        assert correct_sentence(once, model) == once


class TestModelIO:
    def test_tsv_round_trip_and_order(self, tmp_path):
        model = _model({"bbb": 5, "aaa": 5, "ccc": 9})
        path = tmp_path / "model.tsv"
        save_model(path, model)
        assert path.read_text(encoding="utf-8") == "ccc\t9\naaa\t5\nbbb\t5\n"
        loaded = load_model(path, dictionary=frozenset())
        assert loaded.counts == model.counts

    def test_malformed_model_line(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("word\tnot_a_number\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(path, dictionary=frozenset())

    def test_load_dictionary(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("alpha\n\nbeta\n", encoding="utf-8")
        assert load_dictionary(path) == {"alpha", "beta"}

    def test_custom_thresholds(self):
        model = build_model(["word " * 10], [], known_min_count=11, candidate_min_count=5)
        assert is_suspect("word", model)
        assert suggest("wrod", model) == "word"
