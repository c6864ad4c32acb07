import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normbits.bitcore import BitSequence, ExactValue, Pattern, decimal_str, parse_bits


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
        # MSB-first hex, zero-padded on the right to whole nibbles
        n, nibbles = len(bits), (len(bits) + 3) // 4
        value = int(seq.to01() or "0", 2) << (4 * nibbles - n)
        assert parse_bits(f"hex:{value:0{nibbles}x}/{n}") == seq


class TestBitSequence:
    def test_one_based_access(self):
        # digit e_n of the expansion 0.e1 e2 ... is seq[n - 1]
        seq = parse_bits("0110")
        assert [seq[n - 1] for n in (1, 2, 3, 4)] == [0, 1, 1, 0]

    def test_access_contract(self):
        seq = parse_bits("01")
        with pytest.raises(IndexError):
            seq[-1]
        with pytest.raises(IndexError):
            seq[2]

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


class TestPattern:
    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            Pattern(0, 0)
        with pytest.raises(ValueError):
            Pattern(2, 4)
        with pytest.raises(ValueError):
            Pattern(65, 0)


class TestExactValue:
    def test_canonical(self):
        assert ExactValue(6, 1) == ExactValue(3, 0)
        assert ExactValue(6, 1).log2_den == 0
        assert ExactValue(0, 7) == ExactValue(0)
        assert str(ExactValue(21, 2)) == "21/2^2"

    def test_arithmetic(self):
        assert ExactValue(1, 1) - ExactValue(1, 2) == ExactValue(1, 2)
        assert ExactValue(1, 2) - ExactValue(3, 0) == ExactValue(-11, 2)
        assert ExactValue(3, 2) - ExactValue(6, 3) == 0
        assert abs(ExactValue(-5, 3)) == ExactValue(5, 3)
        assert abs(ExactValue(1, 1) - ExactValue(3, 1)) == 1

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


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: decimal_str(1, 0), "denominator must be positive",
                     id="decimal_str-den"),
        pytest.param(lambda: ExactValue(1, -1), "log2_den must be >= 0",
                     id="ExactValue-log2_den"),
        pytest.param(lambda: ExactValue.from_fraction(Fraction(1, 3)),
                     "1/3 does not have a power-of-two denominator",
                     id="from_fraction"),
        pytest.param(lambda: BitSequence([0, 2]), "bits must be 0 or 1",
                     id="BitSequence"),
        pytest.param(lambda: BitSequence.from_numpy(np.array([1, 2])),
                     "bits must be 0 or 1", id="from_numpy"),
        pytest.param(lambda: BitSequence.from01("0a1"),
                     "invalid binary digit(s): ['a']", id="from01"),
        pytest.param(lambda: parse_bits("01").prefix(3),
                     "prefix length 3 outside [0, 2]", id="prefix-long"),
        pytest.param(lambda: parse_bits("01").prefix(-1),
                     "prefix length -1 outside [0, 2]", id="prefix-negative"),
        pytest.param(lambda: Pattern(65, 0), "pattern length 65 outside [1, 64]",
                     id="Pattern-k"),
        pytest.param(lambda: Pattern(2, 4), "pattern value 4 outside [0, 2^2)",
                     id="Pattern-value"),
        pytest.param(lambda: Pattern.from01(""), "invalid pattern string ''",
                     id="Pattern-empty"),
        pytest.param(lambda: Pattern.from01("012"), "invalid pattern string '012'",
                     id="Pattern-digit"),
        pytest.param(lambda: parse_bits("hex:b"),
                     "hex form must be hex:<digits>/<length>", id="hex-no-length"),
        pytest.param(lambda: parse_bits("hex:b/x"), "invalid bit length 'x'",
                     id="hex-length-text"),
        pytest.param(lambda: parse_bits("hex:b/-1"), "bit length must be >= 0",
                     id="hex-length-negative"),
        pytest.param(lambda: parse_bits("hex:b/5"),
                     "bit length 5 exceeds the 4 bits available", id="hex-length-long"),
        pytest.param(lambda: parse_bits("hex:zz/4"), "invalid hex digits 'zz'",
                     id="hex-digits"),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
