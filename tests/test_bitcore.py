import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normbits.bitcore import (
    BitSequence,
    DyadicInterval,
    ExactValue,
    Pattern,
    format_bits_hex,
    parse_bits,
)


class TestParseFormat:
    def test_plain(self):
        assert tuple(parse_bits("0110")) == (0, 1, 1, 0)

    def test_empty(self):
        assert len(parse_bits("")) == 0

    def test_hex_msb_first(self):
        # 0xb = 1011 read MSB-first
        assert tuple(parse_bits("hex:b/4")) == (1, 0, 1, 1)

    def test_hex_leading_zeros_significant(self):
        assert parse_bits("hex:0/1").to01() == "0"
        assert parse_bits("hex:00/3").to01() == "000"
        assert parse_bits("hex:0/1") != parse_bits("hex:00/3")

    def test_hex_partial_takes_leading_bits(self):
        assert parse_bits("hex:b/3").to01() == "101"

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            parse_bits("012")

    def test_hex_length_exceeds_bits(self):
        with pytest.raises(ValueError):
            parse_bits("hex:b/9")

    def test_hex_malformed(self):
        with pytest.raises(ValueError):
            parse_bits("hex:b")
        with pytest.raises(ValueError):
            parse_bits("hex:zz/4")

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_round_trip(self, bits):
        seq = BitSequence(bits)
        assert parse_bits(seq.to01()) == seq
        assert parse_bits(format_bits_hex(seq)) == seq


class TestBitSequence:
    def test_one_based_access(self):
        seq = parse_bits("0110")
        assert [seq.e(i) for i in (1, 2, 3, 4)] == [0, 1, 1, 0]

    def test_access_contract(self):
        seq = parse_bits("01")
        with pytest.raises(IndexError):
            seq.e(0)
        with pytest.raises(IndexError):
            seq.e(3)

    def test_prefix_and_complement(self):
        seq = parse_bits("0110101")
        assert seq.prefix(3).to01() == "011"
        assert seq.complement().to01() == "1001010"
        assert seq.complement().complement() == seq

    def test_to01_matches_per_bit_join(self):
        rng = random.Random(11)
        for n in [0] + [rng.randrange(101) for _ in range(200)]:
            bits = [rng.randrange(2) for _ in range(n)]
            expected = "".join("1" if b else "0" for b in bits)
            assert BitSequence(bits).to01() == expected

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitSequence([0, 2])

    def test_immutable(self):
        seq = parse_bits("01")
        with pytest.raises(AttributeError):
            seq._n = 5


class TestPatternInterval:
    def test_101_interval(self):
        x = Pattern.from01("101")
        iv = DyadicInterval(x.k, x.value)
        assert (iv.level, iv.numerator) == (3, 5)
        assert iv.lower == ExactValue(5, 3)
        assert iv.upper == ExactValue(6, 3)

    def test_single_zero(self):
        x = Pattern.from01("0")
        iv = DyadicInterval(x.k, x.value)
        assert (iv.level, iv.numerator) == (1, 0)

    def test_all_ones_touches_one(self):
        x = Pattern.from01("1111")
        iv = DyadicInterval(x.k, x.value)
        assert (iv.level, iv.numerator) == (4, 15)
        assert iv.upper == ExactValue(1, 0)

    def test_contains_truncated_point(self):
        x = Pattern.from01("101")
        iv = DyadicInterval(x.k, x.value)
        assert iv.contains(ExactValue(85, 7))  # 0.1010101 binary

    def test_half_open_endpoints(self):
        iv = DyadicInterval(1, 0)  # [0, 1/2)
        assert iv.contains(ExactValue(0))
        assert not iv.contains(ExactValue(1, 1))

    def test_point_domain(self):
        iv = DyadicInterval(1, 0)
        with pytest.raises(ValueError):
            iv.contains(ExactValue(1))
        with pytest.raises(ValueError):
            iv.contains(ExactValue(-1, 3))

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            Pattern(0, 0)
        with pytest.raises(ValueError):
            Pattern(2, 4)
        with pytest.raises(ValueError):
            Pattern(65, 0)

    def test_containment_matches_leading_digits_exhaustive(self):
        # For every k <= 8 and every pattern: a point lies in the interval
        # iff its first k digits equal the pattern.
        rng = random.Random(1)
        for k in range(1, 9):
            for value in range(1 << k):
                iv = DyadicInterval(k, value)
                for _ in range(3):
                    w = rng.randint(k, k + 12)
                    num = rng.randrange(1 << w)
                    p = ExactValue(num, w)
                    assert iv.contains(p) == ((num >> (w - k)) == value)

    def test_intervals_partition_unit(self):
        # Exactly one level-k interval contains any given point, k <= 10.
        rng = random.Random(2)
        for k in range(1, 11):
            intervals = [DyadicInterval(k, v) for v in range(1 << k)]
            assert len({iv.numerator for iv in intervals}) == 1 << k
            for _ in range(5):
                p = Fraction(rng.randrange(10**6), 10**6)
                assert sum(iv.contains(p) for iv in intervals) == 1


class TestExactValue:
    def test_canonical(self):
        assert ExactValue(6, 1) == ExactValue(3, 0)
        assert ExactValue(6, 1).log2_den == 0
        assert ExactValue(0, 7) == ExactValue(0)
        assert str(ExactValue(21, 2)) == "21/2^2"

    def test_arithmetic(self):
        assert ExactValue(1, 1) + ExactValue(1, 2) == ExactValue(3, 2)
        assert ExactValue(1, 1) - 1 == ExactValue(-1, 1)
        assert ExactValue(3, 2) * 4 == ExactValue(3, 0)
        assert abs(ExactValue(-5, 3)) == ExactValue(5, 3)

    def test_decimal(self):
        assert ExactValue(21, 2).decimal() == "5.25"
        assert ExactValue(3, 2).decimal() == "0.75"

    def test_fraction_round_trip(self):
        v = ExactValue(-19, 3)
        assert ExactValue.from_fraction(v.as_fraction()) == v
        with pytest.raises(ValueError):
            ExactValue.from_fraction(Fraction(1, 3))

    @given(
        st.integers(-(2**100), 2**100),
        st.integers(0, 90),
        st.integers(-(2**100), 2**100),
        st.integers(0, 90),
    )
    def test_comparison_matches_fraction(self, a, wa, b, wb):
        x, y = ExactValue(a, wa), ExactValue(b, wb)
        fx, fy = Fraction(a, 1 << wa), Fraction(b, 1 << wb)
        assert (x < y) == (fx < fy)
        assert (x == y) == (fx == fy)
        assert (x >= y) == (fx >= fy)
        assert (x <= fy) == (fx <= fy)
