"""Expression ASTs: parsing, rendering, semantics, and the balanced families."""

from __future__ import annotations

import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import (
    Concat,
    Language,
    RegexSyntaxError,
    Union,
    Word,
    all_strings,
    binomial,
    ellul_bnk,
    ellul_t_n1,
    language_of,
    length,
    optimal_regex,
    parse,
    render,
    threshold,
)
from relp.regex import (
    alt,
    cat,
    ellul_b_n1_length,
    ellul_t_n1_length,
    flip,
    fold,
)

from _support import (
    alternating_tree,
    languages,
    nodes,
    reference_flip,
    reference_language_of,
    reference_render,
    regexes,
)


class TestAst:
    def test_word_is_one_node(self):
        r = Word("010")
        assert length(r) == 3 and render(r) == "010"
        assert cat([Word("0"), Word("1")]) == Word("01")
        assert parse("010") == r
        with pytest.raises(ValueError):
            Word("")

    def test_cat_alt_flatten(self):
        x = alt([Word("0"), Word("1")])
        r = cat([x, Word("1"), x])
        assert r.parts == (x, Word("1"), x)
        u = alt([Word("0"), alt([Word("1"), Word("00")])])
        assert u.parts == (Word("0"), Word("1"), Word("00"))
        assert cat([u]) is u and alt([r]) is r  # a lone part comes back as is

    def test_cat_merges_each_run_of_words_once(self):
        x = alt([Word("0"), Word("1")])
        zeros = Word("00")
        r = cat([Word("0"), Word("1"), cat([Word("0"), x]), Word("1"), zeros, x, zeros])
        assert r.parts == (Word("010"), x, Word("100"), x, zeros)
        assert r.parts[-1] is zeros  # a lone word is kept, not copied

    def test_cat_rejects_empty(self):
        with pytest.raises(ValueError):
            cat([])

    def test_length_counts_symbols_only(self):
        assert length(parse("(0+00)0")) == 4
        assert length(parse("(0+1)(0+1)")) == 4
        assert length(Word("0")) == 1

    def test_cat_ignores_bracketing(self):
        zero, one = Word("0"), Word("1")
        r = cat([zero, cat([one, zero])])
        assert r == cat([cat([zero, one]), zero]) == parse("010") == Word("010")
        x = alt([zero, one])
        assert cat([x, cat([x, x])]) == cat([cat([x, x]), x]) == Concat((x, x, x))
        assert alt([alt([zero, one]), zero]) == alt([zero, alt([one, zero])]) == parse("(0+1+0)")

    # every leaf is a word and every other node has at least two parts,
    # none of its own type; no concatenation has two adjacent words
    @staticmethod
    def _chains_are_maximal(r):
        for node in nodes(r):
            if not isinstance(node, Word):
                assert isinstance(node, (Concat, Union))
                assert len(node.parts) >= 2
                assert not any(isinstance(part, type(node)) for part in node.parts)
                if isinstance(node, Concat):
                    pairs = zip(node.parts, node.parts[1:])
                    assert not any(isinstance(a, Word) and isinstance(b, Word) for a, b in pairs)

    def test_maximal_chains_refuse_adjacent_words(self):
        self._chains_are_maximal(Concat((Word("01"), alt([Word("0"), Word("1")]))))
        for bad in (Concat((Word("0"), Word("1"))), Union((Word("0"), Concat((Word("0"),) * 2)))):
            with pytest.raises(AssertionError):
                self._chains_are_maximal(bad)

    @given(st.lists(regexes(8), min_size=1, max_size=3), st.booleans())
    @settings(max_examples=200)
    def test_builders_keep_chains_maximal(self, parts, union):
        r = (alt if union else cat)(parts)
        self._chains_are_maximal(r)
        self._chains_are_maximal(flip(r))
        self._chains_are_maximal(parse(render(r)))

    def test_families_and_witnesses_keep_chains_maximal(self):
        for n in range(1, 17):
            self._chains_are_maximal(ellul_t_n1(n))
            for k in range(n + 1):
                self._chains_are_maximal(ellul_bnk(n, k))

    @given(languages(5, 3))
    @settings(max_examples=60, deadline=None)
    def test_oracle_witness_keeps_chains_maximal(self, lang):
        self._chains_are_maximal(optimal_regex(lang).witness)

    def test_flip_is_involution(self):
        r = parse("(0(01+10)+100)")
        assert flip(flip(r)) == r
        assert language_of(flip(r)) == Language(
            s.translate(str.maketrans("01", "10")) for s in language_of(r)
        )


class TestSemantics:
    def test_simple_example(self):
        assert language_of(parse("(0+00)0")) == Language(["00", "000"])

    def test_union_of_words(self):
        assert language_of(parse("(00+11)1")) == Language(["001", "111"])

    def test_sigma_square(self):
        assert language_of(parse("(0+1)(0+1)")) == all_strings(2)

    @given(regexes(8))
    @settings(max_examples=150)
    def test_language_size_bounded_by_terms(self, r):
        # each string in L(r) is produced by at least one branch assignment
        assert 1 <= len(language_of(r)) <= 2 ** length(r)


class TestTextForm:
    def test_render_examples(self):
        assert render(parse("(0+00)0")) == "(0+00)0"
        assert render(parse("(0+1)(0+1)")) == "(0+1)(0+1)"
        assert render(Word("0101")) == "0101"

    def test_parse_nested(self):
        r = parse("(00(01+10)+(01+10)00)")
        assert language_of(r) == binomial(4, 1)
        assert length(r) == 12

    @pytest.mark.parametrize(
        "bad",
        ["", "()", "0+", "+0", "(0", "0)", "0*", "0|1", "0.1", "a", "((0+1)"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(RegexSyntaxError):
            parse(bad)

    def test_parse_any_depth(self):
        # one loop over a stack of open groups: no depth is refused
        assert parse("(" * 5000 + "0" + ")" * 5000) == Word("0")

    def test_parse_errors_quote_a_window(self):
        # a long input is quoted around the fault, with its position, not whole
        text = "0" * 5000 + "*" + "1" * 4999
        with pytest.raises(RegexSyntaxError, match="at position 5000 near '...0+\\*1+...'"):
            parse(text)
        for bad, msg in ((text, "token"), ("(" * 5000 + "0", "expected '\\)'")):
            with pytest.raises(RegexSyntaxError, match=msg) as exc:
                parse(bad)
            assert len(str(exc.value)) < 200

    def test_parse_other_alphabet(self):
        r = parse("(a+ab)b", alphabet="ab")
        assert language_of(r) == Language(["ab", "abb"])

    @given(regexes(10))
    @settings(max_examples=300)
    def test_round_trip(self, r):
        # a chain is one node, so text loses nothing
        assert parse(render(r)) == r

    def test_round_trip_at_paper_scale(self):
        # the alternating tree's text nests 2 499 parentheses deep
        for r in (ellul_bnk(24, 3), alternating_tree(5000)):
            assert parse(render(r)) == r

    def test_long_word_compares_hashes_and_prints(self):
        # a word is one node, so none of these recurses per symbol
        r, again = parse("0" * 5000), parse("0" * 5000)
        assert r == again
        assert hash(r) == hash(again)
        assert repr(r).startswith("Word(s='000")

    def test_long_word_parses_to_one_node(self):
        r = parse("0" * 200_000)
        assert type(r) is Word and len(r.s) == 200_000

    def test_deep_tree_compares_hashes_and_prints(self):
        # equality walks an explicit stack; hash and repr read the text
        r, again = alternating_tree(5000), alternating_tree(5000)
        assert r == again and r is not again
        assert r != flip(again)
        assert hash(r) == hash(again) == hash(render(r))
        assert repr(r) == f"Concat({render(r)!r})"


class TestBalancedFamilies:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_b_n1_language(self, n):
        assert language_of(ellul_bnk(n, 1)) == binomial(n, 1)

    def test_b_n1_lengths_match_formula(self):
        observed = [length(ellul_bnk(n, 1)) for n in range(1, 11)]
        assert observed == [1, 4, 8, 12, 17, 22, 27, 32, 38, 44]
        assert observed == [ellul_b_n1_length(n) for n in range(1, 11)]
        assert observed == [math.ceil(n * math.log2(2 * n)) for n in range(1, 11)]

    def test_closed_forms_match_built_lengths(self):
        # ceil(n log2 2n) falls short from n = 19 (101 symbols against 100)
        for n in range(1, 65):
            assert ellul_b_n1_length(n) == length(ellul_bnk(n, 1))
            assert ellul_t_n1_length(n) == length(ellul_t_n1(n))
        assert [ellul_b_n1_length(n) for n in (19, 24, 40)] == [101, 136, 256]
        assert ellul_t_n1_length(19) == 183

    @pytest.mark.parametrize("n", range(1, 6))
    def test_t_n1_language(self, n):
        assert language_of(ellul_t_n1(n)) == threshold(n, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_t_n1_length(self, n):
        assert length(ellul_t_n1(n)) == ellul_t_n1_length(n)
        assert ellul_t_n1_length(n) == 2 * math.ceil(n * math.log2(2 * n)) - n

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bnk_language(self, n):
        for k in range(0, min(n, 3) + 1):
            assert language_of(ellul_bnk(n, k)) == binomial(n, k)

    def test_bnk_special_shapes(self):
        assert render(ellul_bnk(4, 0)) == "0000"
        assert render(ellul_bnk(3, 3)) == "111"
        assert ellul_bnk(3, 2) == flip(ellul_bnk(3, 1))

    def test_bnk_agrees_with_b_n1(self):
        for n in range(1, 8):
            assert length(ellul_bnk(n, 1)) == ellul_b_n1_length(n)

        def halving(n):  # R_1 = 1, R_n = 0^(n//2) R_ceil + R_floor 0^ceil(n/2)
            if n == 1:
                return Word("1")
            a, b = n // 2, n - n // 2
            return alt([cat([Word("0" * a), halving(b)]), cat([halving(a), Word("0" * b)])])

        for n in range(1, 65):
            assert ellul_bnk(n, 1) == halving(n), n

    def test_family_input_validation(self):
        with pytest.raises(ValueError):
            ellul_bnk(0, 1)
        with pytest.raises(ValueError):
            ellul_bnk(3, 4)


class TestFold:
    """Every walk is one iterative fold; each agrees with its recursive copy."""

    @staticmethod
    def _agree(r):
        assert render(r) == reference_render(r)
        assert flip(r) == reference_flip(r)
        assert language_of(r) == reference_language_of(r)
        assert length(r) == sum(ch in "01" for ch in reference_render(r))

    @given(regexes(12))
    @settings(max_examples=300)
    def test_walks_match_recursive_references(self, r):
        self._agree(r)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_walks_match_on_shared_dags(self, n):
        for k in range(n + 1):
            self._agree(ellul_bnk(n, k))

    def test_shared_node_is_folded_once(self):
        unions = []

        def union(values):
            unions.append(values)
            return sum(values)

        x = alt([Word("0"), Word("1")])
        r = cat([cat([x, x]), x])  # x is on the stack three times at once
        values = fold(r, len, sum, union)
        assert (values[id(r)], unions) == (6, [[1, 1]])
        assert set(values) == {id(r), id(x), *map(id, x.parts)}

    def test_deep_left_chain(self):
        # a run of symbols parses to one word, however long
        text = "01" * 2500
        r = parse(text)
        assert r == Word(text)
        assert (render(r), length(r)) == (text, 5000)
        assert flip(r) == Word(text.translate(str.maketrans("01", "10")))
        assert language_of(r) == Language([text])

    def test_deep_alternating_tree(self):
        r = alternating_tree(5000)
        text = render(r)
        assert text.count("0") + text.count("1") == length(r) == 5000
        assert render(flip(flip(r))) == text
        assert len(r.parts) == 2
        # its language gains a string per union, so it is expanded at a
        # depth just past the recursion limit
        depth = sys.getrecursionlimit() + 10
        lang = language_of(alternating_tree(depth))
        assert len(lang) == (depth - 1) // 2 + 1  # "0", and "1" per union

    def test_language_of_frees_values_as_it_goes(self):
        # a sublanguage is dropped once its parent has read it, so only a
        # few of the tree's 1 200 languages are alive at once
        r = alternating_tree(1200)
        tracemalloc.start()
        try:
            lang = language_of(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lang) == 600
        assert peak < 2_000_000

    def test_render_frees_texts_as_it_goes(self):
        # a part's text is dropped once its parent has read it, so the
        # texts alive at once do not grow with the square of the depth
        r = alternating_tree(1800)
        tracemalloc.start()
        try:
            text = render(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length(r) == 1800 and len(text) == 4497
        assert peak < 1_000_000
