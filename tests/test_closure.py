"""Closure fixpoint, factorization search, and the binomial block index."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relp import (
    BinomialIndex,
    Closure,
    Language,
    ResourceCapError,
    all_strings,
    binomial,
    compute_closure,
    factorizations,
    singleton,
    threshold,
)
from relp.closure import product_block
from relp.lang import canon_key

from _support import brute_factorizations, languages, naive_closure, reference_closure

# three-letter languages: the anchored search must not lean on a binary alphabet
ternary_languages = st.sets(
    st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=5
).map(Language)


# one length per language: the generators' rectangles then sit at one cut
uniform_languages = st.integers(1, 4).flatmap(
    lambda n: st.sets(st.text(alphabet="01", min_size=n, max_size=n), min_size=1, max_size=8)
).map(Language)


# two to six binary strings of lengths 1 to 3: the rectangles then mix cuts
mixed_languages = st.sets(
    st.text(alphabet="01", min_size=1, max_size=3), min_size=2, max_size=6
).map(Language)


def _members_or_refusal(closure, *args):
    try:
        return closure(*args)
    except ResourceCapError:
        return "refused"


def _pair_key(pair):
    return (pair[0].sort_key(), pair[1].sort_key())


def _assert_canonical(k: Language) -> None:
    # the search builds its languages without sorting or checking, so
    # each must still be what the public constructor would build
    assert k == Language(k.members)
    assert hash(k) == hash(Language(k.members))
    assert all(k.members), k
    assert len(set(k.members)) == len(k.members), k
    assert list(k.members) == sorted(k.members, key=canon_key), k


class TestFactorizations:
    def test_simple_pair(self):
        lang = Language(["00", "000"])
        found = set(factorizations(lang))
        assert found == {
            (Language(["0", "00"]), singleton("0")),
            (singleton("0"), Language(["0", "00"])),
        }

    def test_singleton_splits(self):
        found = set(factorizations(singleton("0101")))
        assert found == {
            (singleton("0101"[:i]), singleton("0101"[i:])) for i in (1, 2, 3)
        }

    def test_no_factorization(self):
        assert factorizations(binomial(2, 1)) == []
        assert factorizations(singleton("0")) == []

    def test_full_rectangle(self):
        found = set(factorizations(all_strings(2)))
        assert (all_strings(1), all_strings(1)) in found

    @given(languages(4, 4))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, lang):
        assert set(factorizations(lang)) == brute_factorizations(lang)

    @pytest.mark.parametrize(
        "lang",
        [
            Language(["00", "000"]),
            binomial(4, 2),
            threshold(3, 1),
            all_strings(2).union(singleton("000")),
            Language(["01", "10", "0101", "1010"]),
        ],
    )
    def test_agrees_with_brute_force_curated(self, lang):
        assert set(factorizations(lang)) == brute_factorizations(lang)

    def test_pool_cap(self):
        with pytest.raises(ResourceCapError):
            factorizations(all_strings(3), max_prefix_pool=1)

    @given(languages(6, 4) | ternary_languages)
    @settings(max_examples=100, deadline=None)
    def test_sorted_list_and_closure_match_oracles(self, lang):
        found = factorizations(lang)
        assert found == sorted(brute_factorizations(lang), key=_pair_key)
        for k1, k2 in found:
            _assert_canonical(k1)
            _assert_canonical(k2)
        closure = compute_closure(lang)
        assert set(closure.members) == naive_closure(lang)
        for member in closure.members:
            _assert_canonical(member)

    def test_pool_cap_fires_before_the_cut_is_skipped(self):
        # at the cut 00|0 the pool {00, 01} is over the cap, yet no proper
        # prefix of 111 is in it, so that cut could never be covered; the
        # cut 0|00 has the one-string pool {0} and is within the cap.  The
        # cap still refuses the search
        lang = Language(["000", "010", "111"])
        assert factorizations(lang) == []
        with pytest.raises(ResourceCapError):
            factorizations(lang, max_prefix_pool=1)


class TestComputeClosure:
    def test_simple_example_members(self):
        closure = compute_closure(Language(["00", "000"]))
        expected = {
            singleton("0"),
            singleton("00"),
            singleton("000"),
            Language(["0", "00"]),
            Language(["00", "000"]),
        }
        assert set(closure.members) == expected
        assert closure.strings() == ("0", "00", "000")

    def test_two_term_example_members(self):
        closure = compute_closure(Language(["001", "111"]))
        expected = {
            singleton("0"),
            singleton("1"),
            singleton("00"),
            singleton("11"),
            singleton("01"),
            singleton("001"),
            singleton("111"),
            Language(["00", "11"]),
            Language(["001", "111"]),
        }
        assert set(closure.members) == expected

    def test_unary_singleton(self):
        closure = compute_closure(singleton("a"))
        assert set(closure.members) == {singleton("a")}

    def test_sigma_2_closed_form(self):
        closure = compute_closure(all_strings(2))
        assert len(closure) == 18  # (2^2-1) + (2^4-1)
        expected = {
            Language(sub)
            for m in (1, 2)
            for sub in _nonempty_subsets(all_strings(m).members)
        }
        assert set(closure.members) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sigma_closed_form(self, n):
        closure = compute_closure(all_strings(n))
        assert len(closure) == sum(2 ** (2**m) - 1 for m in range(1, n + 1))

    @pytest.mark.parametrize("lang", [
        Language(["00", "000"]),
        Language(["001", "111"]),
        all_strings(2),
        binomial(3, 1),
        binomial(4, 2),
        threshold(2, 1),
    ])
    def test_matches_definitional_fixpoint(self, lang):
        assert set(compute_closure(lang).members) == naive_closure(lang)

    @given(languages(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_definitional_fixpoint_random(self, lang):
        assert set(compute_closure(lang).members) == naive_closure(lang)

    @pytest.mark.parametrize(
        "n,k", [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2)]
    )
    def test_binomial_closure_is_fitted_block_subsets(self, n, k):
        # every member is a nonempty subset of a block B(m,l) that leaves
        # room for the missing ones: l <= k and k - l <= n - m
        closure = compute_closure(binomial(n, k))
        expected = {
            Language(sub)
            for m in range(1, n + 1)
            for l in range(0, min(m, k) + 1)
            if k - l <= n - m
            for sub in _nonempty_subsets(binomial(m, l).members)
        }
        assert set(closure.members) == expected

    def test_all_zero_string_not_reachable(self):
        # {0^n} would need a decomposition that sheds every 1 at once
        for n in (2, 3, 4):
            closure = compute_closure(binomial(n, 1))
            assert singleton("0" * n) not in closure
            assert "0" * n not in closure.strings()

    def test_binomial_8_1_size(self):
        assert len(compute_closure(binomial(8, 1))) == 509

    def test_sigma_level_union_sizes(self):
        assert len(compute_closure(all_strings(1).union(all_strings(3)))) == 1038
        assert len(compute_closure(all_strings(2).union(all_strings(3)))) == 4143

    @pytest.mark.parametrize("lang,size", [(threshold(4, 1), 33_040), (binomial(6, 2), 33_922)])
    def test_pinned_member_counts(self, lang, size):
        assert len(compute_closure(lang)) == size

    @pytest.mark.parametrize("lang", [
        threshold(3, 1),
        binomial(5, 2),
        all_strings(1).union(all_strings(3)),
        Language(["01", "10", "0101", "1010"]),
    ])
    def test_closed_under_one_element_deletion(self, lang):
        closure = compute_closure(lang)
        for member in closure.members:
            if len(member) > 1:
                for s in member.members:
                    assert Language(set(member.members) - {s}) in closure

    def test_restriction_property(self):
        closure = compute_closure(Language(["00", "000"]))
        for member in closure.members:
            inner = compute_closure(member)
            assert set(inner.members) <= set(closure.members)

    def test_member_cap(self):
        with pytest.raises(ResourceCapError):
            compute_closure(binomial(6, 2), max_members=10)

    def test_member_cap_bounds_a_huge_closure(self):
        # C(T(5,1)) holds every nonempty subset of T(5,1)'s 31 strings;
        # the cap must stop the fixpoint long before any member's subsets
        # could be listed
        with pytest.raises(ResourceCapError):
            compute_closure(threshold(5, 1), max_members=1000)

    def test_default_member_cap_refuses_threshold_5_1(self):
        with pytest.raises(ResourceCapError):
            compute_closure(threshold(5, 1))


class TestAgainstDeletionFixpoint:
    """The generator fixpoint against the deletion fixpoint it replaced:
    the same members in the same order, and the same refusals."""

    @given(uniform_languages | ternary_languages | mixed_languages)
    # the rectangle {0,01} x {0} spans two cuts, and its intent {0} is
    # the intersection of the quotients {0,10,11} and {0,1}
    @example(Language(["00", "010", "011"]))
    @settings(max_examples=150, deadline=None)
    def test_same_members_and_refusals(self, lang):
        assert compute_closure(lang).members == reference_closure(lang)
        members = lambda *args: compute_closure(*args).members
        for max_members in (1, 5, 50, 500):
            for pool_cap in (1, 2, 3, 5):
                caps = (lang, max_members, pool_cap)
                assert _members_or_refusal(members, *caps) == _members_or_refusal(
                    reference_closure, *caps
                ), caps[1:]

    def test_sigma_level_union(self):
        lang = all_strings(2).union(all_strings(3))
        assert compute_closure(lang).members == reference_closure(lang)


class TestPairs:
    def test_concat_pairs_simple(self):
        closure = compute_closure(Language(["00", "000"]))
        zero = singleton("0")
        both = Language(["0", "00"])
        assert set(closure.concat_pairs()) == {
            (zero, zero),
            (zero, singleton("00")),
            (singleton("00"), zero),
            (both, zero),
            (zero, both),
        }

    def test_union_pairs_simple(self):
        # incomparable members, each pair once in canonical order; {0,000}
        # is not a member, and (K, K) or {0} with {0,00} add no row
        closure = compute_closure(Language(["00", "000"]))
        assert closure.union_pairs() == [
            (singleton("0"), singleton("00")),
            (singleton("00"), singleton("000")),
        ]

    def test_sigma_2_concat_pairs(self):
        closure = compute_closure(all_strings(2))
        pairs = closure.concat_pairs()
        one_by_one = [
            (a, b)
            for a, b in pairs
            if a.uniform_length() == 1 and b.uniform_length() == 1
        ]
        assert len(one_by_one) == 9  # every (K1 <= Sigma, K2 <= Sigma) pair

    def test_pairs_are_ordered(self):
        closure = compute_closure(Language(["00", "000"]))
        pairs = closure.concat_pairs()
        assert (singleton("0"), singleton("00")) in pairs
        assert (singleton("00"), singleton("0")) in pairs


class TestBinomialIndex:
    def test_blocks_match_set_builder(self):
        index = BinomialIndex(4, 2)
        assert set(index.blocks()) == {
            (m, l) for m in range(1, 5) for l in range(0, min(m, 2) + 1) if 2 - l <= 4 - m
        }
        # the rectangle's 11 blocks less the unfit (3,0), (4,0) and (4,1)
        assert len(index.blocks()) == 8

    def test_quadruples_2_1(self):
        # (1,0,1,0) would build {00}, which is not in C({01,10})
        assert set(BinomialIndex(2, 1).quadruples()) == {
            (1, 0, 1, 1),
            (1, 1, 1, 0),
        }

    def test_quadruples_1_0_empty(self):
        assert BinomialIndex(1, 0).quadruples() == []

    def test_quadruples_4_2_includes_balanced(self):
        assert (2, 1, 2, 1) in BinomialIndex(4, 2).quadruples()

    def test_quadruple_constraints(self):
        # the union over the weights up to 2 is every block row of length
        # at most 6 and weight at most 2, fitted or not
        quads = {q for k in range(3) for q in BinomialIndex(6, k).quadruples()}
        assert len(quads) == 80
        for n1, k1, n2, k2 in quads:
            assert n1 >= 1 and n2 >= 1 and n1 + n2 <= 6
            assert 0 <= k1 <= min(n1, 2) and 0 <= k2 <= min(n2, 2)
            assert k1 + k2 <= 2

    def test_fitted_quadruples_have_fitted_factors(self):
        for n in range(1, 9):
            for k in range(0, min(n, 3) + 1):
                index = BinomialIndex(n, k)
                for n1, k1, n2, k2 in index.quadruples():
                    assert index.fits(n1 + n2, k1 + k2)
                    assert index.fits(n1, k1) and index.fits(n2, k2)

    def test_strings_cover_all_blocks(self):
        index = BinomialIndex(3, 1)
        assert sorted(index.strings()) == sorted(
            s
            for m in range(1, 4)
            for l in (0, 1)
            if 1 - l <= 3 - m
            for s in binomial(m, l).members
        )
        assert "000" not in index.strings()

    def test_product_block(self):
        assert sorted(product_block(1, 0, 1, 1)) == ["01"]
        assert sorted(product_block(2, 1, 2, 1)) == [
            u + v for u in ("01", "10") for v in ("01", "10")
        ]
        assert len(product_block(3, 1, 3, 1)) == 9


def _nonempty_subsets(strings):
    from itertools import combinations

    for r in range(1, len(strings) + 1):
        yield from combinations(strings, r)
