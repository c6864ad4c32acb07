import copy
import dataclasses
import json
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normbits.bitcore import (
    BitSequence, ExactValue, Pattern, check_int, decimal_str, parse_bits,
)
from normbits.discrepancy import PointSet, extreme_discrepancy, phi_envelope
from normbits.generators import (
    GeneratorSpec, champernowne_bits, random_bits, rational_bits,
)
from normbits.measure import normality_fast
from normbits.orbit import default_checkpoints, lemma1_verify, orbit_points
from normbits.search import exhaustive_min, typical_scan


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

    def test_reads_bool_and_empty_digits(self):
        # bools are integers; an empty list or array reads as float64 and holds none
        assert BitSequence([True, False, 1]).to01() == "101"
        assert BitSequence(np.array([1, 0], dtype=bool)).to01() == "10"
        for empty in ((), [], np.array([])):
            assert len(BitSequence(empty)) == 0

    def test_immutable(self):
        seq = parse_bits("0110")
        with pytest.raises(AttributeError):
            seq._bits = np.ones(4, np.uint8)
        # to_numpy() and prefix() share the held array, which stays read-only
        assert seq.to_numpy() is seq.to_numpy()
        assert np.shares_memory(seq.prefix(3).to_numpy(), seq.to_numpy())
        for held in (seq, seq.prefix(3), BitSequence(np.array([0, 1])),
                     parse_bits("hex:b/3"), random_bits(1, 70), rational_bits(1, 3, 5),
                     seq.complement(), pickle.loads(pickle.dumps(seq.prefix(2)))):
            arr = held.to_numpy()
            with pytest.raises(ValueError):
                arr[0] = 1
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert seq.to01() == "0110"

    def test_constructor_copies(self):
        arr = np.array([0, 1, 1], dtype=np.uint8)
        seq = BitSequence(arr)
        arr[0] = 1
        assert seq.to01() == "011"

    def test_equality_and_hash(self):
        assert parse_bits("0110") == BitSequence([0, 1, 1, 0])
        assert hash(parse_bits("0110")) == hash(BitSequence([0, 1, 1, 0]))
        view = parse_bits("011011").prefix(4)
        assert view == parse_bits("0110") and hash(view) == hash(parse_bits("0110"))
        assert parse_bits("0110") != parse_bits("011")
        assert (parse_bits("01") == "01") is False

    def test_repr(self):
        assert repr(parse_bits("01" * 32)) == f"BitSequence({'01' * 32!r})"
        assert repr(parse_bits("0" * 65)) == "BitSequence(<65 bits>)"


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
        assert repr(ExactValue(12, 4)) == "ExactValue(3, 2)"

    def test_hash_matches_fraction(self):
        assert hash(ExactValue(12, 4)) == hash(Fraction(3, 4))
        assert {ExactValue(3, 2), ExactValue(6, 3), Fraction(3, 4)} == {Fraction(3, 4)}

    def test_foreign_operand(self):
        assert (ExactValue(3, 2) == "x") is False
        with pytest.raises(TypeError):
            ExactValue(3, 2) < "x"

    def test_arithmetic(self):
        assert ExactValue(1, 1) - ExactValue(1, 2) == ExactValue(1, 2)
        assert ExactValue(1, 2) - ExactValue(3, 0) == ExactValue(-11, 2)
        assert ExactValue(3, 2) - ExactValue(6, 3) == 0
        assert abs(ExactValue(-5, 3)) == ExactValue(5, 3)
        assert abs(ExactValue(1, 1) - ExactValue(3, 1)) == 1

    def test_decimal(self):
        assert ExactValue(21, 2).decimal() == "5.25"
        assert ExactValue(3, 2).decimal() == "0.75"

    def test_json_fields(self):
        fields = ExactValue(42, 3).json_fields("value_")
        assert list(fields.items()) == [
            ("value_num", 21), ("value_log2_den", 2), ("value_decimal", "5.25")
        ]
        assert list(ExactValue(0, 5).json_fields()) == ["num", "log2_den", "decimal"]

    def test_float_numerator_refused(self):
        # read with operator.index, as Fraction reads it, never truncated to 1/4
        with pytest.raises(TypeError):
            ExactValue(1.5, 2)

    def test_from_float_and_decimal(self):
        # Fraction's versions build cls(numerator, denominator): 1/4, 3/2, 3/16
        assert ExactValue.from_float(0.5) == ExactValue(1, 1)
        assert ExactValue.from_float(3.0) == ExactValue(3)
        assert ExactValue.from_decimal(Decimal("0.75")) == ExactValue(3, 2)
        assert type(ExactValue.from_float(0.5)) is ExactValue

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
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "value",
    [ExactValue(3, 2), ExactValue(-19, 7), ExactValue(0), parse_bits("0110"),
     parse_bits("01" * 40), parse_bits("011010").prefix(5)],
    ids=["ExactValue", "ExactValue-negative", "ExactValue-zero", "BitSequence",
         "BitSequence-long", "BitSequence-prefix"],
)
def test_copy_and_pickle_keep_type_and_value(clone, value):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert repr(twin) == repr(value)


def test_reports_convert_with_asdict():
    # asdict deep-copies every value that is not a dataclass, tuple, list or dict
    r = normality_fast(parse_bits("0110101110"))
    assert dataclasses.asdict(r)["per_k_max"] == r.per_k_max
    s = exhaustive_min(6)
    d = dataclasses.asdict(s)
    assert (d["min_value"], d["witnesses"]) == (s.min_value, s.witnesses)
    v = lemma1_verify(GeneratorSpec.parse("random:1").stream(), 64, 8)
    normality = [c["normality"] for c in dataclasses.asdict(v)["checkpoints"]]
    assert normality == [c.normality for c in v.checkpoints]
    assert {type(x) for x in normality} == {ExactValue}


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
        pytest.param(lambda: ExactValue.from_decimal(Decimal("0.1")),
                     "1/10 does not have a power-of-two denominator",
                     id="from_decimal"),
        pytest.param(lambda: BitSequence([0, 2]), "bits must be 0 or 1",
                     id="BitSequence"),
        pytest.param(lambda: BitSequence(np.array([1, 2])),
                     "bits must be 0 or 1", id="BitSequence-ndarray"),
        pytest.param(lambda: BitSequence([0.0, 1.0]), "bits must be integers, got float64",
                     id="BitSequence-float"),
        pytest.param(lambda: BitSequence(np.array([0.0, 1.0])),
                     "bits must be integers, got float64", id="BitSequence-float-ndarray"),
        pytest.param(lambda: BitSequence([[0, 1], [1, 0]]),
                     "bits must be one-dimensional, got shape (2, 2)",
                     id="BitSequence-2d"),
        pytest.param(lambda: BitSequence(np.array(1)),
                     "bits must be one-dimensional, got shape ()",
                     id="BitSequence-0d"),
        pytest.param(lambda: BitSequence.from01("0a1"),
                     "invalid binary digit(s): ['a']", id="from01"),
        pytest.param(lambda: parse_bits("01").prefix(3),
                     "prefix length m=3 outside [0, 2]", id="prefix-long"),
        pytest.param(lambda: parse_bits("01").prefix(-1),
                     "prefix length m=-1 outside [0, 2]", id="prefix-negative"),
        pytest.param(lambda: Pattern(65, 0), "k=65 outside [1, 64]",
                     id="Pattern-k"),
        pytest.param(lambda: Pattern(2, 4), "value=4 outside [0, 3]",
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
        pytest.param(lambda: parse_bits("hex:-1/8"), "invalid hex digits '-1'",
                     id="hex-minus"),
        pytest.param(lambda: parse_bits("hex:+f/4"), "invalid hex digits '+f'",
                     id="hex-plus"),
        pytest.param(lambda: parse_bits("hex:1_f/8"), "invalid hex digits '1_f'",
                     id="hex-underscore"),
        pytest.param(lambda: parse_bits("hex:0x1/8"), "invalid hex digits '0x1'",
                     id="hex-0x"),
        pytest.param(lambda: parse_bits("hex: f/4"), "invalid hex digits ' f'",
                     id="hex-space"),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_decimal_str_reads_integers_and_refuses_floats():
    assert decimal_str(np.int64(3), 4) == "0.75"
    assert decimal_str(-3, np.uint8(4)) == "-0.75"  # margins can be negative
    assert decimal_str(-1, 3) == "-0.33333333333333333"
    for num, den in ((0.1, 1), (1, 4.0), (Fraction(1, 2), 1)):
        with pytest.raises(TypeError):
            decimal_str(num, den)


@pytest.mark.parametrize(
    "value,lo,hi",
    [(True, 0, 1), (np.uint64((1 << 64) - 1), 0, None), (np.int8(-3), -5, 0),
     (np.uint8(41), 1, 64)],
)
def test_check_int_reads_a_plain_int(value, lo, hi):
    v = check_int(value, "x", lo, hi)
    assert type(v) is int and v == int(value)


def _spec_stream():
    return GeneratorSpec.parse("random:1").stream()


def _nums(n, w):
    """The first n random:1 orbit points of w bits, read with a plain int w."""
    return orbit_points(_spec_stream(), n, int(w)).nums


def _envelope(w):
    """2^w*Phi at 2^0 .. 2^14 for the 2^14 random:1 orbit points of w bits."""
    return phi_envelope(_nums(1 << 14, w), w, [1 << i for i in range(15)])


def _points(ps):
    return [ps.nums.tolist(), ps.den]


# Each integer argument is read once, by check_int. A numpy integer gives
# the result (as JSON, which takes no numpy scalar) of the same plain int;
# before, it wrapped or overflowed inside a shift. A float is refused, not
# cast or passed on.
@pytest.mark.parametrize(
    "call,arg,want",
    [
        pytest.param(_envelope, np.int64(50), 50, id="phi_envelope-w50"),
        pytest.param(_envelope, np.int64(56), 56, id="phi_envelope-w56"),
        pytest.param(_envelope, np.int64(63), 63, id="phi_envelope-w63"),
        pytest.param(_envelope, np.int64(64), 64, id="phi_envelope-w64"),
        pytest.param(_envelope, np.uint8(41), 41, id="phi_envelope-uint8"),
        pytest.param(lambda w: _points(PointSet.from_dyadic(_nums(256, w), w)),
                     np.int64(64), 64, id="from_dyadic-w64"),
        pytest.param(lambda w: extreme_discrepancy(
                         PointSet.from_dyadic(_nums(256, w), w)).to_json_dict(),
                     np.int64(41), 41, id="from_dyadic-discrepancy"),
        pytest.param(lambda w: _points(orbit_points(_spec_stream(), 256, w)),
                     np.int64(64), 64, id="orbit_points-w64"),
        pytest.param(lambda w: lemma1_verify(_spec_stream(), 256, w).to_json_dict(),
                     np.int64(40), 40, id="lemma1_verify-w40"),
        pytest.param(lambda w: lemma1_verify(_spec_stream(), 256, w).to_json_dict(),
                     np.int64(64), 64, id="lemma1_verify-w64"),
        pytest.param(lambda d: ExactValue(3, d).json_fields(), np.int64(70), 70,
                     id="ExactValue-log2_den"),
        pytest.param(lambda k: dataclasses.astuple(Pattern(k, np.int64(5))),
                     np.int64(63), 63, id="Pattern-k63"),
        pytest.param(lambda seed: typical_scan(16, 2, seed).to_json_dict(),
                     np.uint64(7), 7, id="typical_scan-seed"),
        pytest.param(lambda v: Pattern(2, v), 1.5, "value=1.5 is not an integer",
                     id="Pattern-float-value"),
        pytest.param(default_checkpoints, 5.0, "n=5.0 is not an integer",
                     id="default_checkpoints-float"),
        pytest.param(lambda w: orbit_points(_spec_stream(), 8, w), 8.0,
                     "window bits w=8.0 is not an integer", id="orbit_points-float-w"),
        pytest.param(champernowne_bits, 2.5, "n=2.5 is not an integer",
                     id="champernowne-float-n"),
        pytest.param(exhaustive_min, 3.0, "n=3.0 is not an integer",
                     id="exhaustive_min-float-n"),
        pytest.param(lambda n: lemma1_verify(_spec_stream(), n, 16), 8.0,
                     "n=8.0 is not an integer", id="lemma1_verify-float-n"),
    ],
)
def test_integer_arguments(call, arg, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(arg)
    else:
        assert json.dumps(call(arg)) == json.dumps(call(want))
