"""Expression ASTs: parsing, rendering, semantics, and the balanced families."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings

from relp import (
    Concat,
    Language,
    RegexSyntaxError,
    Symbol,
    Union,
    all_strings,
    binomial,
    ellul_bnk,
    ellul_t_n1,
    language_of,
    length,
    parse,
    render,
    threshold,
)
from relp.regex import (
    MAX_NESTING,
    alt,
    as_word,
    cat,
    concat_factors,
    ellul_b_n1_length,
    ellul_t_n1_length,
    flip,
    fold,
    normalize,
    union_branches,
    word,
)

from _support import (
    alternating_tree,
    reference_flip,
    reference_language_of,
    reference_normalize,
    reference_render,
    regexes,
)


class TestAst:
    def test_word_and_as_word(self):
        r = word("010")
        assert as_word(r) == "010"
        assert length(r) == 3
        assert as_word(Union(Symbol("0"), Symbol("1"))) is None

    def test_cat_alt_flatten(self):
        r = cat([Symbol("0"), Symbol("1"), Symbol("0")])
        assert [f.ch for f in concat_factors(r)] == ["0", "1", "0"]
        u = alt([Symbol("0"), Symbol("1"), word("00")])
        assert len(union_branches(u)) == 3

    def test_cat_rejects_empty(self):
        with pytest.raises(ValueError):
            cat([])

    def test_length_counts_symbols_only(self):
        assert length(parse("(0+00)0")) == 4
        assert length(parse("(0+1)(0+1)")) == 4
        assert length(Symbol("0")) == 1

    def test_normalize_preserves_language_and_length(self):
        r = Concat(Symbol("0"), Concat(Symbol("1"), Symbol("0")))
        n = normalize(r)
        assert language_of(n) == language_of(r)
        assert length(n) == length(r)
        assert render(n) == render(r)

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
        assert render(word("0101")) == "0101"

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

    def test_parse_nesting_cap(self):
        # the parser recurses per level; past the cap it refuses, never
        # reaching Python's recursion limit
        deep = "(" * MAX_NESTING + "0" + ")" * MAX_NESTING
        assert parse(deep) == Symbol("0")
        for depth in (MAX_NESTING + 1, 5000):
            with pytest.raises(RegexSyntaxError, match="nested deeper"):
                parse("(" * depth + "0" + ")" * depth)

    def test_parse_errors_quote_a_window(self):
        # a long input is quoted around the fault, with its position, not whole
        text = "0" * 5000 + "*" + "1" * 4999
        with pytest.raises(RegexSyntaxError, match="at position 5000 near '...0+\\*1+...'"):
            parse(text)
        for bad in (text, "(" * 5000 + "0" + ")" * 5000):
            with pytest.raises(RegexSyntaxError) as exc:
                parse(bad)
            assert len(str(exc.value)) < 200

    def test_parse_other_alphabet(self):
        r = parse("(a+ab)b", alphabet="ab")
        assert language_of(r) == Language(["ab", "abb"])

    @given(regexes(10))
    @settings(max_examples=300)
    def test_round_trip(self, r):
        # text cannot carry association, so parsing lands on the canonical fold
        back = parse(render(r))
        assert back == normalize(r)
        assert render(back) == render(r)
        assert language_of(back) == language_of(r)
        assert length(back) == length(r)


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
                return Symbol("1")
            a, b = n // 2, n - n // 2
            return Union(Concat(word("0" * a), halving(b)), Concat(halving(a), word("0" * b)))

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
        assert normalize(r) == reference_normalize(r)
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

        def union(a, b):
            unions.append((a, b))
            return a + b

        x = Union(Symbol("0"), Symbol("1"))
        r = Concat(Concat(x, x), x)  # x is on the stack twice at once
        values = fold(r, lambda ch: 1, lambda a, b: a + b, union)
        assert (values[id(r)], unions) == (6, [(1, 1)])
        assert set(values) == {id(r), id(r.left), id(x), id(x.left), id(x.right)}

    def test_deep_left_chain(self):
        text = "01" * 2500
        r = parse(text)
        assert (render(r), length(r), as_word(r)) == (text, 5000, text)
        assert render(normalize(r)) == text
        assert render(flip(r)) == text.translate(str.maketrans("01", "10"))
        assert language_of(r) == Language([text])
        assert len(concat_factors(r)) == 5000

    def test_deep_alternating_tree(self):
        r = alternating_tree(5000)
        text = render(r)
        assert text.count("0") + text.count("1") == length(r) == 5000
        assert render(normalize(r)) == text
        assert render(flip(flip(r))) == text
        assert len(concat_factors(r)) == 2
        # its language gains a string per union, so it is expanded at a
        # depth just past the recursion limit
        depth = sys.getrecursionlimit() + 10
        lang = language_of(alternating_tree(depth))
        assert len(lang) == (depth - 1) // 2 + 1  # "0", and "1" per union
