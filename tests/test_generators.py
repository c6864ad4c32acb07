import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from normbits.generators import (
    GeneratorSpec,
    champernowne_bits,
    StreamExhausted,
    file_bits,
    random_bits,
    rational_bits,
    sample_seed,
    splitmix64_outputs,
)
from normbits.search import typical_scan

# Golden keystream prefix for seed 1 (regression lock for the PRNG identity).
GOLDEN_SEED1_N8 = "10010001"


def champernowne_oracle(n: int) -> str:
    """The first n Champernowne digits by joining one binary string per integer."""
    parts: list[str] = []
    total = 0
    i = 1
    while total < n:
        s = format(i, "b")
        parts.append(s)
        total += len(s)
        i += 1
    return "".join(parts)[:n]


# the number of digits before the integers of bit length L, (L-2)*2^(L-1) + 1,
# for L = 2 .. 17 (the last below 2^20)
BLOCK_STARTS = [((length - 2) << (length - 1)) + 1 for length in range(2, 18)]


class TestChampernowne:
    def test_matches_oracle_at_every_short_length(self):
        ref = champernowne_oracle(2100)
        for n in range(2101):
            assert champernowne_bits(n).to01() == ref[:n], n

    @pytest.mark.parametrize("start", BLOCK_STARTS, ids=str)
    def test_matches_oracle_at_block_boundaries(self, start):
        ref = champernowne_oracle(start + 1)
        for n in (start - 1, start, start + 1):
            assert champernowne_bits(n).to01() == ref[:n]

    def test_memory_is_a_few_bytes_per_digit(self):
        # one uint8 per digit plus one bit length's integers at a time
        n = 1 << 22
        tracemalloc.start()
        try:
            bits = champernowne_bits(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bits) == n
        assert peak < 3 * n

    def test_first_twelve(self):
        assert champernowne_bits(12).to01() == "110111001011"

    def test_first_three(self):
        assert champernowne_bits(3).to01() == "110"

    def test_empty(self):
        assert len(champernowne_bits(0)) == 0

    def test_digit_balance(self):
        bits = champernowne_bits(1 << 16)
        ones = sum(bits) / (1 << 16)
        assert abs(ones - 0.5) < 0.05


class TestRational:
    def test_one_third(self):
        assert rational_bits(1, 3, 6).to01() == "010101"

    def test_one_half(self):
        assert rational_bits(1, 2, 4).to01() == "1000"

    def test_five_sevenths(self):
        assert rational_bits(5, 7, 9).to01() == "101101101"

    def test_matches_digit_extraction_oracle(self):
        # Independent digit oracle: digit i is floor(2 * frac(2^(i-1) p/q)).
        for p, q in ((1, 3), (5, 7), (3, 11), (7, 64), (13, 48)):
            frac = Fraction(p, q)
            expected = []
            for _ in range(40):
                frac *= 2
                expected.append(int(frac >= 1))
                if frac >= 1:
                    frac -= 1
            assert list(rational_bits(p, q, 40)) == expected

    def test_eventually_periodic(self):
        # Period divides the multiplicative order of 2 modulo the odd part of q.
        for q in range(2, 65):
            odd = q
            while odd % 2 == 0:
                odd //= 2
            if odd == 1:
                period = 1
            else:
                period = 1
                acc = 2 % odd
                while acc != 1:
                    acc = (acc * 2) % odd
                    period += 1
            n = 4 * period + 64
            bits = rational_bits(1, q, n).to01()
            for i in range(n // 2, n - period):
                assert bits[i] == bits[i + period], (q, period, i)

    def test_errors(self):
        with pytest.raises(ValueError):
            rational_bits(1, 0, 4)
        with pytest.raises(ValueError):
            rational_bits(3, 3, 4)


class TestRandom:
    def test_golden(self):
        assert random_bits(1, 8).to01() == GOLDEN_SEED1_N8

    def test_prefix_property(self):
        assert random_bits(1, 4).to01() == GOLDEN_SEED1_N8[:4]
        long = random_bits(99, 300).to01()
        assert random_bits(99, 123).to01() == long[:123]

    def test_deterministic(self):
        assert random_bits(1, 8) == random_bits(1, 8)

    def test_splitmix_reference(self):
        # First output for seed 0 of the published splitmix64 sequence.
        assert int(splitmix64_outputs(0, 1)[0]) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)$"):
            splitmix64_outputs(seed, 0)
        with pytest.raises(ValueError):
            random_bits(seed, 1)

    def test_sample_seed_mixing(self):
        outs = splitmix64_outputs(7, 5)
        assert [sample_seed(7, i) for i in range(5)] == [int(v) for v in outs]


class TestFileAndSpec:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("0110 1\n01\n")
        assert file_bits(str(path), 7).to01() == "0110101"

    def test_file_exhausted(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("01")
        with pytest.raises(ValueError, match="exhausted"):
            file_bits(str(path), 5)

    def test_file_hex_form(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("hex:6996/16\n")
        assert file_bits(str(path), 10).to01() == "0110100110"
        assert file_bits(str(path)).to01() == "0110100110010110"
        spec = GeneratorSpec.parse(f"file:{path}")
        assert spec.bits(16) == file_bits(str(path))
        with pytest.raises(StreamExhausted, match="16 < 17"):
            spec.stream().prefix(17)

    def test_file_invalid(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("01x")
        with pytest.raises(ValueError):
            file_bits(str(path), 2)

    @pytest.mark.parametrize(
        "text,label",
        [
            ("champernowne", "champernowne"),
            ("rational:5/7", "rational:5/7"),
            ("random:42", "random:42 (splitmix64)"),
            ("file:/tmp/x", "file:/tmp/x"),
        ],
    )
    def test_spec_parse_label(self, text, label):
        assert GeneratorSpec.parse(text).label() == label

    def test_spec_reads_integers_by_index(self):
        spec = GeneratorSpec(kind="rational", p=np.int64(1), q=np.uint8(3))
        assert spec == GeneratorSpec.parse("rational:1/3")
        assert type(spec.p) is type(spec.q) is int

    @pytest.mark.parametrize(
        "bad", ["rational:5", "rational:a/b", "random:x", "file:", "poisson:3", ""]
    )
    def test_spec_parse_errors(self, bad):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(bad)

    def test_prefix_coherence_all_kinds(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("0110101101" * 10)
        specs = [
            GeneratorSpec.parse("champernowne"),
            GeneratorSpec.parse("rational:5/7"),
            GeneratorSpec.parse("random:3"),
            GeneratorSpec.parse(f"file:{path}"),
        ]
        for spec in specs:
            long = spec.bits(90).to01()
            assert spec.bits(41).to01() == long[:41]

    def test_stream_prefix_contract(self):
        stream = GeneratorSpec.parse("rational:1/3").stream()
        assert stream.prefix(6).to01() == "010101"
        assert stream.prefix(6) == stream.prefix(6)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: GeneratorSpec(kind="bogus"),
                     "unknown generator kind 'bogus'", id="kind"),
        pytest.param(lambda: GeneratorSpec(kind="random"),
                     "random takes exactly the fields ['seed']", id="random-no-seed"),
        pytest.param(lambda: GeneratorSpec(kind="rational", p=1),
                     "rational takes exactly the fields ['p', 'q']", id="rational-no-q"),
        pytest.param(lambda: GeneratorSpec(kind="file"),
                     "file takes exactly the fields ['path']", id="file-no-path"),
        pytest.param(lambda: GeneratorSpec(kind="champernowne", seed=3),
                     "champernowne takes exactly the fields []",
                     id="champernowne-seed"),
        pytest.param(lambda: GeneratorSpec(kind="random", seed=1, path="x"),
                     "random takes exactly the fields ['seed']", id="random-path"),
        pytest.param(lambda: GeneratorSpec.parse("champernowne:1"),
                     "champernowne takes no parameters", id="champernowne-param"),
        pytest.param(lambda: GeneratorSpec.parse("bogus"),
                     "unknown generator spec 'bogus'", id="spec"),
        # a float seed or p is refused, not cast to an integer
        pytest.param(lambda: GeneratorSpec(kind="random", seed=1.9),
                     "seed=1.9 is not an integer", id="random-float-seed"),
        pytest.param(lambda: GeneratorSpec(kind="rational", p=1.0, q=3),
                     "p=1.0 is not an integer", id="rational-float-p"),
        pytest.param(lambda: random_bits(1.5, 16),
                     "seed 1.5 and count 1 must be integers", id="random_bits-float-seed"),
        pytest.param(lambda: typical_scan(16, 2, 1.5),
                     "seed 1.5 and count 2 must be integers", id="typical_scan-float-seed"),
        pytest.param(lambda: splitmix64_outputs(1, 2.5),  # once 3 outputs
                     "seed 1 and count 2.5 must be integers", id="splitmix64-float-count"),
        pytest.param(lambda: splitmix64_outputs(1, -1), "count must be >= 0",
                     id="splitmix64-count"),
        pytest.param(lambda: random_bits(1, -1), "n must be >= 0", id="random-n"),
        pytest.param(lambda: champernowne_bits(-1), "n must be >= 0",
                     id="champernowne-n"),
        pytest.param(lambda: rational_bits(1, 3, -1), "n must be >= 0",
                     id="rational-n"),
        pytest.param(lambda: rational_bits(1, 0, 4), "q must be nonzero",
                     id="rational-q"),
        pytest.param(lambda: rational_bits(3, 2, 4), "require 0 <= p < q, got 3/2",
                     id="rational-p"),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
