"""Language container: canonical order, algebra, text form, families."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import Language, all_strings, binomial, gen_family, singleton, threshold
from relp.lang import canon_key, check_alphabet, ones

from _support import languages


class TestConstruction:
    def test_members_are_sorted_and_deduplicated(self):
        lang = Language(["00", "0", "00", "1"])
        assert lang.members == ("0", "1", "00")

    def test_order_is_length_then_lexicographic(self):
        lang = Language(["10", "1", "01", "000"])
        assert lang.members == ("1", "01", "10", "000")

    def test_empty_language_rejected(self):
        with pytest.raises(ValueError):
            Language([])

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            Language(["0", ""])

    def test_immutable(self):
        lang = Language(["0"])
        with pytest.raises(AttributeError):
            lang.members = ("1",)

    def test_container_protocol(self):
        lang = Language(["0", "00"])
        assert len(lang) == 2
        assert "00" in lang and "000" not in lang
        assert list(lang) == ["0", "00"]

    def test_equality_and_hash(self):
        assert Language(["0", "00"]) == Language(["00", "0"])
        assert hash(Language(["0"])) == hash(Language(["0"]))
        assert Language(["0"]) != Language(["1"])


class TestQueries:
    def test_singleton(self):
        lang = singleton("010")
        assert lang.is_singleton and lang.only == "010"

    def test_only_rejects_nonsingleton(self):
        with pytest.raises(ValueError):
            Language(["0", "1"]).only

    def test_lengths(self):
        lang = Language(["0", "0000"])
        assert lang.min_len() == 1
        assert lang.max_len() == 4
        assert lang.total_length() == 5
        assert lang.uniform_length() is None
        assert Language(["01", "10"]).uniform_length() == 2

    def test_subsets_counts(self):
        lang = Language(["0", "1", "00"])
        assert sum(1 for _ in lang.subsets()) == 7
        proper = list(lang.subsets(proper=True))
        assert len(proper) == 6
        assert lang not in proper

    def test_ones(self):
        assert ones("0101") == 2
        assert ones("000") == 0


class TestAlgebra:
    def test_concat_example(self):
        assert Language(["0", "00"]).concat(singleton("0")) == Language(["00", "000"])

    def test_union_example(self):
        assert singleton("001").union(singleton("111")) == Language(["001", "111"])

    @given(languages(3, 3), languages(3, 3), languages(3, 3))
    @settings(max_examples=100)
    def test_concat_associative(self, a, b, c):
        assert a.concat(b).concat(c) == a.concat(b.concat(c))

    @given(languages(3, 3), languages(3, 3))
    @settings(max_examples=100)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(languages(3, 3))
    def test_union_idempotent(self, a):
        assert a.union(a) == a

    @given(languages(4, 3), languages(4, 3))
    @settings(max_examples=100)
    def test_concat_size_bound(self, a, b):
        product = a.concat(b)
        assert len(product) <= len(a) * len(b)
        if a.uniform_length() is not None:
            # fixed-length left factors make every concatenation distinct
            assert len(product) == len(a) * len(b)


class TestTextForm:
    def test_serialize_canonical(self):
        assert Language(["00", "0", "000"]).serialize() == "{0,00,000}"

    def test_parse(self):
        assert Language.parse("{001,010,100}") == binomial(3, 1)
        assert Language.parse(" {0} ") == singleton("0")

    @given(languages(4, 4))
    @settings(max_examples=150)
    def test_round_trip(self, lang):
        assert Language.parse(lang.serialize()) == lang

    @pytest.mark.parametrize("bad", ["", "0,00", "{}", "{0,,00}", "{0", "0}"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Language.parse(bad)

    def test_alphabet_validation(self):
        check_alphabet("01")
        check_alphabet("abc")
        for bad in ["", "00", "0*", "a b", "0+"]:
            with pytest.raises(ValueError):
                check_alphabet(bad)

    def test_canon_key_orders_by_length_first(self):
        assert canon_key("1") < canon_key("00")
        assert canon_key("01") < canon_key("10")


class TestFamilies:
    def test_threshold_3_1_listing(self):
        assert threshold(3, 1) == Language(
            ["001", "010", "100", "011", "101", "110", "111"]
        )

    def test_binomial_4_2_listing(self):
        assert binomial(4, 2) == Language(
            ["0011", "0101", "0110", "1001", "1010", "1100"]
        )

    def test_binomial_zero_weight(self):
        assert binomial(5, 0) == singleton("00000")

    def test_binomial_blocks_are_memoised(self):
        # the block builders ask for the same small blocks over and over
        assert binomial(6, 2) is binomial(6, 2)
        with pytest.raises(ValueError):
            binomial(3, 4)

    def test_all_strings_size(self):
        for n in range(1, 5):
            assert len(all_strings(n)) == 2**n

    def test_all_strings_other_alphabet(self):
        assert all_strings(2, "ab") == Language(["aa", "ab", "ba", "bb"])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_threshold_is_disjoint_union_of_binomials(self, n):
        for k in range(0, n + 1):
            parts = [binomial(n, level) for level in range(k, n + 1)]
            combined = parts[0]
            total = len(parts[0])
            for part in parts[1:]:
                combined = combined.union(part)
                total += len(part)
            assert combined == threshold(n, k)
            assert len(combined) == total  # pairwise disjoint

    def test_gen_family_dispatch(self):
        assert gen_family("sigma", 2) == all_strings(2)
        assert gen_family("sigma_n", 3) == all_strings(3)
        assert gen_family("binomial", 3, 1) == binomial(3, 1)
        assert gen_family("threshold", 3, 1) == threshold(3, 1)

    def test_gen_family_errors(self):
        with pytest.raises(ValueError):
            gen_family("parity", 3, 1)
        with pytest.raises(ValueError):
            gen_family("binomial", 3)  # k missing
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            all_strings(0)
