import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbits import measure
from normbits.bitcore import BitSequence, ExactValue, Pattern, parse_bits
from normbits.generators import GeneratorSpec, random_bits
from normbits.measure import (
    count_occurrences,
    max_block_length,
    normality_fast,
    normality_naive,
    normality_value,
)

bit_lists = st.lists(st.integers(0, 1), min_size=0, max_size=64)


def zeros_closed_form(n: int) -> ExactValue:
    """Independent oracle for the all-zeros sequence:
    max over k of (n+1-k) * (1 - 2^-k), scaled exactly."""
    best = ExactValue(0)
    for k in range(1, max_block_length(n) + 1):
        cand = ExactValue((n + 1 - k) * ((1 << k) - 1), k)
        if cand > best:
            best = cand
    return best


def sequence(spec: str, n: int) -> BitSequence:
    """n digits of a generator spec, or of a digit string repeated."""
    if set(spec) <= {"0", "1"}:
        return parse_bits((spec * n)[:n])
    return GeneratorSpec.parse(spec).bits(n)


def reports_equal(a, b) -> bool:
    return (
        a.value == b.value
        and a.witness_k == b.witness_k
        and a.witness_pattern == b.witness_pattern
        and a.witness_m == b.witness_m
        and a.witness_t == b.witness_t
        and a.per_k_max == b.per_k_max
    )


class TestCountOccurrences:
    def test_example_0110(self):
        assert count_occurrences(parse_bits("0110"), 3, Pattern.from01("01")) == 1

    def test_example_0101(self):
        assert count_occurrences(parse_bits("0101"), 3, Pattern.from01("01")) == 2

    def test_pattern_longer_than_sequence(self):
        with pytest.raises(ValueError):
            count_occurrences(parse_bits("01"), 1, Pattern.from01("011"))

    def test_m_out_of_range(self):
        seq = parse_bits("0110")
        with pytest.raises(ValueError):
            count_occurrences(seq, 0, Pattern.from01("01"))
        with pytest.raises(ValueError):
            count_occurrences(seq, 4, Pattern.from01("01"))

    def test_bounds(self):
        seq = parse_bits("000000")
        assert count_occurrences(seq, 5, Pattern.from01("00")) == 5
        assert count_occurrences(seq, 5, Pattern.from01("11")) == 0


class TestNormalityNaive:
    def test_example_0110(self):
        rep = normality_naive(parse_bits("0110"))
        assert rep.value == ExactValue(3, 2)
        assert (rep.witness_k, rep.witness_pattern, rep.witness_m, rep.witness_t) == (
            2,
            Pattern(2, 0),
            3,
            0,
        )

    def test_zeros_eight(self):
        assert normality_naive(parse_bits("0" * 8)).value == ExactValue(21, 2)

    def test_short_sequences(self):
        for text in ("", "0", "1"):
            rep = normality_naive(parse_bits(text))
            assert rep.value == ExactValue(0)
            assert rep.witness_k is None
            assert rep.per_k_max == ()

    def test_zeros_closed_form(self):
        for n in (2, 3, 8, 16, 33, 100):
            seq = BitSequence([0] * n)
            assert normality_naive(seq).value == zeros_closed_form(n)


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        # n = 11 is the first length where several patterns tie at the final
        # minimum count and the smallest must be the witness (00101100110:
        # pattern 000, not 001).
        for n in range(0, 13):
            for bits in itertools.product((0, 1), repeat=n):
                seq = BitSequence(bits)
                assert reports_equal(normality_naive(seq), normality_fast(seq)), bits

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_random_medium(self, n):
        for seed in range(20):
            seq = random_bits(seed, n)
            assert reports_equal(normality_naive(seq), normality_fast(seq))

    def test_zeros_closed_form_fast(self):
        for exp in range(3, 13):
            n = 1 << exp
            assert normality_fast(BitSequence([0] * n)).value == zeros_closed_form(n)

    @pytest.mark.parametrize(
        "spec,n",
        [("011", 1024), ("011", 4095), ("00101", 2048), ("0001011", 4096),
         ("champernowne", 4096), ("1", 3000)],
    )
    def test_structured_ties(self, spec, n):
        # Few distinct windows and many equal counts: the tie-breaks decide
        # the witness, so the whole report must match.
        seq = sequence(spec, n)
        assert reports_equal(normality_naive(seq), normality_fast(seq))


def window_codes(bits: np.ndarray, k: int) -> np.ndarray:
    """codes[i] = the k bits from position i read as a binary number."""
    m = bits.size + 1 - k
    codes = np.zeros(m, dtype=np.int64)
    for j in range(k):
        codes = (codes << 1) | bits[j : j + m]
    return codes


def preceding_digits(bits: np.ndarray, width: int) -> np.ndarray:
    """digits[i] = the `width` digits before position i read as a binary
    number, digit i-1 lowest, with zeros before position 0."""
    padded = np.concatenate((np.zeros(width, np.int64), bits))
    digits = np.zeros(bits.size + 1, dtype=np.int64)
    for j in range(width):
        digits = (digits << 1) | padded[j : j + bits.size + 1]
    return digits


CARRY_CASES = [
    ("0", 300), ("1", 300), ("rational:1/3", 500), ("rational:1/7", 777),
    ("champernowne", 1000), ("random:5", 2), ("random:6", 3), ("random:7", 7),
    ("random:8", 255), ("random:9", 1024), ("random:10", 4097),
]


@pytest.mark.parametrize("spec,n", CARRY_CASES)
def test_carried_order_is_stable_sort(spec, n, monkeypatch):
    # n = 2^k - 1 is the last length before a new k; at n = 1024 and 4097
    # the 2^k patterns of the top k outnumber its windows.
    seen = []
    scan = measure._scan_k

    def spy(order, ck, k, *rest):
        seen.append((k, order.copy(), ck.copy()))
        return scan(order, ck, k, *rest)

    monkeypatch.setattr(measure, "_scan_k", spy)
    seq = sequence(spec, n)
    normality_fast(seq)
    bits = seq.to_numpy().astype(np.int64)
    kmax = max_block_length(n)
    assert [k for k, _, _ in seen] == list(range(1, kmax + 1))
    for k, order, ck in seen:
        codes = window_codes(bits, k)
        assert order.dtype == ck.dtype == np.int32
        # each window i is held by its end i + k
        windows = order - k
        np.testing.assert_array_equal(windows, np.argsort(codes, kind="stable"))
        # the low k bits are the code, and the floor(log2 n) - k bits above
        # them the digits just before the window
        np.testing.assert_array_equal(ck & ((1 << k) - 1), codes[windows])
        before = preceding_digits(bits, kmax - k)[windows]
        np.testing.assert_array_equal((ck & ((1 << kmax) - 1)) >> k, before)


@pytest.mark.parametrize("spec,n", CARRY_CASES)
def test_carried_order_in_chunks_of_three(spec, n, monkeypatch):
    monkeypatch.setattr(measure, "CHUNK", 3)
    test_carried_order_is_stable_sort(spec, n, monkeypatch)


class TestChunkEdges:
    """The carry and the scan walk the positions one chunk at a time; with
    chunks of a few positions every group, the witness's among them, is
    cut at chunk edges."""

    @pytest.fixture(scope="class")
    def naive_reports(self):
        return [
            (seq, normality_naive(seq))
            for n in range(0, 13)
            for seq in map(BitSequence, itertools.product((0, 1), repeat=n))
        ]

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_exhaustive_small(self, chunk, naive_reports, monkeypatch):
        monkeypatch.setattr(measure, "CHUNK", chunk)
        for seq, rep in naive_reports:
            assert reports_equal(normality_fast(seq), rep), seq.to01()
            assert normality_value(seq) == rep.value, seq.to01()

    @pytest.mark.parametrize("spec,n", [("1", 9000), ("0", 9000), ("random:3", 9000)])
    def test_long(self, spec, n, monkeypatch):
        # All ones fills the ones' side buffer; all zeros puts the witness
        # group, of n+1-k windows, across every chunk.
        seq = sequence(spec, n)
        whole = normality_fast(seq)  # one chunk: n < CHUNK
        monkeypatch.setattr(measure, "CHUNK", 1 << 8)
        assert reports_equal(normality_fast(seq), whole)
        assert normality_value(seq) == whole.value
        if spec == "0":
            assert whole.value == zeros_closed_form(n)


@pytest.mark.parametrize("evaluate", [normality_fast, normality_value])
@pytest.mark.parametrize("spec", ["random:1", "champernowne", "1"])
def test_memory_per_digit(spec, evaluate):
    # One pair of int32 window orders and preceding digits (8 bytes a
    # digit), the ones' side buffer (8 bytes a one), the chunk buffers and
    # index arrays of one chunk; the digits themselves are not counted.
    n = 1 << 20
    seq = sequence(spec, n)
    tracemalloc.start()
    try:
        evaluate(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n


class TestValueOnly:
    def test_exhaustive_small(self):
        for n in range(0, 13):
            for bits in itertools.product((0, 1), repeat=n):
                seq = BitSequence(bits)
                assert normality_value(seq) == normality_fast(seq).value, bits

    @pytest.mark.parametrize("n", [4096, 1 << 16])
    @pytest.mark.parametrize(
        "spec", ["champernowne", "rational:1/3", "0", "1", "random:1"]
    )
    def test_long(self, spec, n):
        seq = sequence(spec, n)
        assert normality_value(seq) == normality_fast(seq).value

    @staticmethod
    def scanned(seq: BitSequence, monkeypatch) -> list[int]:
        seen = []
        scan = measure._scan_k

        def spy(order, ck, k, *rest):
            seen.append(k)
            return scan(order, ck, k, *rest)

        monkeypatch.setattr(measure, "_scan_k", spy)
        normality_value(seq)
        return seen

    def test_stops_early(self, monkeypatch):
        ks = self.scanned(sequence("random:1", 4096), monkeypatch)
        assert ks == list(range(1, len(ks) + 1))
        assert len(ks) < 12

    def test_runs_every_k_up_to_the_maximum(self, monkeypatch):
        # all zeros of length 8191 peak at the top k, so no k can be
        # skipped (at 4096 they peak at k = 11)
        seq = sequence("0", 8191)
        assert normality_fast(seq).witness_k == 12
        assert self.scanned(seq, monkeypatch) == list(range(1, 13))


def witness_branch(seq: BitSequence, rep) -> str:
    """Which extreme the witness (k, X, M, T) sits at: a count above M/2^k
    (the high side), or below it before the last step (the low side) or at
    the last step, with every pattern of length k present or not."""
    k, m = rep.witness_k, len(seq) + 1 - rep.witness_k
    if rep.witness_t << k > rep.witness_m:
        return "high"
    if rep.witness_m < m:
        return "low"
    present = all(count_occurrences(seq, m, Pattern(k, x)) for x in range(1 << k))
    return "final, all present" if present else "final, one missing"


@pytest.mark.parametrize(
    "bits,branch,witness",
    [("011100001100", "high", (2, "00", 7, 3)),
     ("01011001100", "low", (2, "00", 5, 0)),
     ("0110001110100100111100", "final, all present", (3, "000", 20, 1)),
     ("01010110", "final, one missing", (2, "00", 7, 0))],
)
def test_witness_branches(bits, branch, witness):
    # One sequence per place the witness can be read from, each with k >= 2
    # and a tie there that only the smallest-pattern-then-M rule breaks:
    # taking the last tied pattern, or the last step at the peak on either
    # side, instead changes the report.
    seq = parse_bits(bits)
    rep = normality_fast(seq)
    k, pattern, m, t = witness
    assert (rep.witness_k, rep.witness_pattern, rep.witness_m, rep.witness_t) == (
        k, Pattern.from01(pattern), m, t)
    assert witness_branch(seq, rep) == branch
    assert reports_equal(rep, normality_naive(seq))


class TestProperties:
    @given(bit_lists)
    @settings(max_examples=150, deadline=None)
    def test_complement_invariance(self, bits):
        seq = BitSequence(bits)
        assert normality_fast(seq).value == normality_fast(seq.complement()).value

    @given(bit_lists.filter(lambda b: len(b) >= 2), st.lists(st.integers(0, 1), max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_prefix_stability(self, bits, extra):
        # T at fixed (k, X, M) is unchanged by extending the sequence.
        seq = BitSequence(bits)
        ext = BitSequence(bits + extra)
        n = len(bits)
        k = max_block_length(n)
        pattern = Pattern(k, 0)
        for m in range(1, n + 2 - k):
            assert count_occurrences(seq, m, pattern) == count_occurrences(
                ext, m, pattern
            )

    @given(bit_lists)
    @settings(max_examples=150, deadline=None)
    def test_witness_validity_and_range(self, bits):
        seq = BitSequence(bits)
        rep = normality_fast(seq)
        assert ExactValue(0) <= rep.value <= ExactValue(len(bits))
        if rep.witness_k is None:
            assert len(bits) <= 1
            return
        t = count_occurrences(seq, rep.witness_m, rep.witness_pattern)
        assert t == rep.witness_t
        dev = abs(
            ExactValue(t) - ExactValue(rep.witness_m, rep.witness_k)
        )
        assert dev == rep.value

    @given(bit_lists)
    @settings(max_examples=100, deadline=None)
    def test_value_is_max_of_per_k(self, bits):
        rep = normality_fast(BitSequence(bits))
        if rep.per_k_max:
            assert rep.value == max(v for _, v in rep.per_k_max)

    def test_witness_m_bounds(self):
        for seed in range(10):
            seq = random_bits(seed, 100)
            rep = normality_fast(seq)
            assert 1 <= rep.witness_k <= max_block_length(100)
            assert 1 <= rep.witness_m <= 100 + 1 - rep.witness_k


class TestReportSerialization:
    def test_json_shape(self):
        d = normality_fast(parse_bits("0110")).to_json_dict()
        assert d["value_num"] == 3
        assert d["value_log2_den"] == 2
        assert d["value_decimal"] == "0.75"
        assert d["pattern"] == "00"
        assert (d["k"], d["M"], d["T"]) == (2, 3, 0)
        assert [e["k"] for e in d["per_k"]] == [1, 2]

    def test_json_trivial(self):
        d = normality_naive(parse_bits("1")).to_json_dict()
        assert d["value_num"] == 0
        assert d["k"] is None and d["pattern"] is None
        assert d["per_k"] == []


@pytest.mark.parametrize(
    "evaluate", [normality_fast, normality_naive, normality_value]
)
def test_domain_limit(evaluate):
    # calloc-backed zeros held without a pass: the limit check precedes any pass
    seq = BitSequence._adopt(np.zeros((1 << 30) + 1, np.uint8))
    with pytest.raises(ValueError, match="exceeds the measure's limit 2\\^30"):
        evaluate(seq)
