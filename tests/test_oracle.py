"""Brute-force optimal-expression search and its LP cross-check."""

from __future__ import annotations

import sys
from itertools import combinations
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import (
    Language,
    OracleResult,
    RunConfig,
    ResourceCapError,
    all_strings,
    binomial,
    compute_closure,
    ellul_b_n1_length,
    language_of,
    optimal_regex,
    oracle_vs_lp,
    parse,
    render,
    singleton,
    threshold,
)
from relp import oracle
from relp.oracle import _factor_pairs, factorizations

from _support import languages, reference_optimal_regex


class TestFrozenOptima:
    def test_two_string_language(self):
        res = optimal_regex(Language(["00", "000"]))
        assert res.length == 4
        assert res.pattern == "(00+0)0"
        assert res.explored == 5

    def test_full_square(self):
        res = optimal_regex(all_strings(2))
        assert res.length == 4
        assert res.pattern == "(0+1)(0+1)"

    def test_three_string_language(self):
        res = optimal_regex(Language(["00", "01", "10"]))
        assert res.length == 5
        assert language_of(parse(res.pattern)) == Language(["00", "01", "10"])

    def test_singleton_is_its_own_witness(self):
        res = optimal_regex(singleton("0101"))
        assert res.length == 4
        assert res.pattern == "0101"

    def test_threshold_2_1(self):
        res = optimal_regex(threshold(2, 1))
        assert res.length == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_weight_one_blocks_match_balanced_construction(self, n):
        res = optimal_regex(binomial(n, 1))
        assert res.length == ellul_b_n1_length(n)
        assert res.length == ceil(n * log2(2 * n))

    def test_not_monotone_under_inclusion(self):
        # a 3-string language can need a longer expression than a superset
        assert optimal_regex(Language(["00", "01", "10"])).length == 5
        assert optimal_regex(all_strings(2)).length == 4


class TestWitness:
    @given(languages(4, 4))
    @settings(max_examples=40, deadline=None)
    def test_witness_denotes_the_language(self, lang):
        res = optimal_regex(lang)
        assert language_of(res.witness) == lang
        assert render(res.witness) == res.pattern

    @given(languages(3, 3))
    @settings(max_examples=30, deadline=None)
    def test_no_expression_is_shorter(self, lang):
        # lower bound by exhaustive check only for tiny lengths; here
        # we use structural bounds: an expression needs at least one
        # symbol per distinct final character, and at least max length
        res = optimal_regex(lang)
        assert res.length >= lang.max_len()
        assert res.length <= lang.total_length()  # the plain union is available

    def test_deterministic_across_member_order(self):
        members = ["10", "11", "000", "001"]
        a = optimal_regex(Language(members))
        b = optimal_regex(Language(list(reversed(members))))
        assert a.pattern == b.pattern
        assert a.length == b.length


def partition_only_optimum(lang: Language, memo=None) -> int:
    """The same search restricted to disjoint (partition) unions."""
    if memo is None:
        memo = {}
    key = lang.members
    if key in memo:
        return memo[key]
    memo[key] = 10**9  # recursion guard; every real value is smaller
    best = None
    if lang.is_singleton:
        best = len(lang.only)
    for k1, k2 in factorizations(lang):
        total = partition_only_optimum(k1, memo) + partition_only_optimum(k2, memo)
        if best is None or total < best:
            best = total
    members = lang.members
    for r in range(1, len(members) // 2 + 1):
        for left in combinations(members, r):
            left_lang = Language(left)
            right_lang = Language([s for s in members if s not in left])
            total = partition_only_optimum(left_lang, memo) + partition_only_optimum(
                right_lang, memo
            )
            if best is None or total < best:
                best = total
    assert best is not None
    memo[key] = best
    return best


class TestOverlappingUnions:
    CURATED = Language(["10", "11", "000", "001", "010", "1101", "1110"])

    def test_overlap_beats_partitions_on_curated_language(self):
        # the two union sides of the optimum share the string 001; no
        # partition of the language reaches length 12
        res = optimal_regex(self.CURATED, RunConfig(oracle_max_strings=10))
        assert res.length == 12
        assert partition_only_optimum(self.CURATED) == 13

    def test_partition_restriction_never_wins(self):
        for members in [["00", "000"], ["01", "10", "11"], ["0", "11", "101"]]:
            lang = Language(members)
            assert partition_only_optimum(lang) >= optimal_regex(lang).length

    @given(languages(4, 3))
    @settings(max_examples=25, deadline=None)
    def test_partition_restriction_never_wins_random(self, lang):
        assert partition_only_optimum(lang) >= optimal_regex(lang).length


class TestCaps:
    def test_too_many_strings(self):
        lang = all_strings(4)  # 16 strings > default cap 8
        with pytest.raises(ResourceCapError):
            optimal_regex(lang)

    def test_long_singleton(self):
        # no length cap: the memo holds the 40 substrings 0^i
        found = optimal_regex(singleton("0" * 40))
        assert (found.length, found.explored) == (40, 40)

    def test_caps_are_configurable(self):
        lang = Language(["0", "1", "00"])
        tight = RunConfig(oracle_max_strings=2)
        with pytest.raises(ResourceCapError):
            optimal_regex(lang, tight)
        assert optimal_regex(lang, RunConfig(oracle_max_strings=3)).length == 4

    def test_cap_error_carries_a_message(self):
        with pytest.raises(ResourceCapError, match="strings"):
            optimal_regex(all_strings(4))

    @given(languages(5, 4), st.integers(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_member_cap_refuses_with_the_closure(self, lang, offset):
        # the memo is C(lang), so the search, the reference search and
        # compute_closure refuse a cap around its size alike, word for word
        def refusal(search, *args):
            try:
                search(*args)
            except ResourceCapError as exc:
                return str(exc)
            return None

        size = len(compute_closure(lang))
        cap = max(1, size + offset)
        cfg = RunConfig(closure_max_members=cap)
        expected = refusal(compute_closure, lang, cap)
        assert (expected is None) == (cap >= size)
        assert refusal(optimal_regex, lang, cfg) == expected
        assert refusal(reference_optimal_regex, lang, cfg) == expected

    def test_deep_witness_answers(self):
        # the spelled-out witness nests one level per symbol; it is rebuilt
        # and expanded on explicit stacks
        depth = sys.getrecursionlimit() + 10
        result = optimal_regex(singleton("0" * depth))
        assert (result.length, result.explored) == (depth, depth)
        assert result.pattern == "0" * depth

    def test_deep_witness_equals_its_parse(self):
        # the witness is one chain of 1 010 symbols, compared without recursion
        assert optimal_regex(singleton("0" * 1010)).witness == parse("0" * 1010)

    def test_deep_search_is_a_cap(self, monkeypatch):
        # the search itself still recurses per level
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(oracle, "_best_for", too_deep)
        with pytest.raises(ResourceCapError, match="recursion limit"):
            optimal_regex(Language(["0", "01"]))


class TestOracleVsLp:
    @pytest.mark.parametrize(
        "lang",
        [
            Language(["00", "000"]),
            all_strings(2),
            threshold(2, 1),
            singleton("0"),
            Language(["0", "01"]),
        ],
    )
    def test_named_languages_agree(self, lang):
        report = oracle_vs_lp(lang)
        assert report.strong_matches, (report.oracle.length, report.strong_objective)
        assert report.weak_bounded
        assert report.ok

    @given(languages(3, 3))
    @settings(max_examples=15, deadline=None)
    def test_random_languages_agree(self, lang):
        report = oracle_vs_lp(lang)
        assert report.ok

    @given(languages(5, 3))
    @settings(max_examples=60, deadline=None)
    def test_search_explores_exactly_the_closure(self, lang):
        # the memo holds every factor and every proper subset it reached,
        # a route to C(L) that shares nothing with the generator listing
        assert optimal_regex(lang).explored == len(compute_closure(lang))

    def test_report_fields(self):
        report = oracle_vs_lp(Language(["00", "000"]))
        assert isinstance(report.oracle, OracleResult)
        assert report.oracle.length == 4
        assert report.strong_objective == 4
        assert report.weak_objective <= 4


class TestAgainstCoverListing:
    """The union step over member bitmasks against the search that listed
    all 3^t cover pairs of a t-string language, one ``Language`` each."""

    @staticmethod
    def outcome(result: OracleResult):
        return result.length, render(result.witness), result.explored

    @given(languages(6, 3))
    @settings(max_examples=200, deadline=None)
    def test_same_optimum_witness_and_memo(self, lang):
        assert self.outcome(optimal_regex(lang)) == self.outcome(reference_optimal_regex(lang))

    @given(languages(5, 4))
    @settings(max_examples=100, deadline=None)
    def test_same_with_longer_strings(self, lang):
        # from length 4 on, a concatenation can tie a union at the optimum
        assert self.outcome(optimal_regex(lang)) == self.outcome(reference_optimal_regex(lang))

    @pytest.mark.parametrize(
        "lang, length, explored",
        [
            (all_strings(3), 6, 273),
            (Language(["00", "01", "10", "000", "011", "101", "110"]), 13, 144),
            # the union sides of its optimum overlap
            (TestOverlappingUnions.CURATED, 12, 162),
            # a concatenation ties a union at the optimum 9
            (Language(["10", "000", "010", "110", "0110"]), 9, 72),
        ],
    )
    def test_at_the_string_cap(self, lang, length, explored):
        got = self.outcome(optimal_regex(lang))
        assert got == self.outcome(reference_optimal_regex(lang))
        assert got[0] == length and got[2] == explored

    def test_factored_cover_subset(self):
        # the first member 0 has no cut, so the top language has no
        # factorization; its cover subset {000,100} factors as {0,1}{00}
        lang = Language(["0", "000", "100"])
        assert _factor_pairs(lang) == set()
        got = self.outcome(optimal_regex(lang))
        assert got == self.outcome(reference_optimal_regex(lang))
        assert got[:2] == (5, "((0+1)00+0)")
