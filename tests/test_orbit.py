import itertools
import re
from fractions import Fraction

import pytest

from normbits.bitcore import BitSequence, ExactValue, Pattern
from normbits.discrepancy import (
    extreme_discrepancy_reference,
    phi_envelope,
    prefix_deviation_numerators,
)
from normbits import measure
from normbits.generators import DigitStream, GeneratorSpec
from normbits.measure import count_occurrences, normality_naive
from normbits.orbit import (
    _window_numerators,
    count_via_orbit,
    default_checkpoints,
    lemma1_verify,
    orbit_points,
)


def stream(text: str):
    return GeneratorSpec.parse(text).stream()


class TestOrbitPoints:
    def test_one_third(self):
        pts = orbit_points(stream("rational:1/3"), 2, 8)
        assert pts.values == (Fraction(85, 256), Fraction(170, 256))

    def test_zero_expansion(self):
        pts = orbit_points(stream("rational:0/1"), 5, 8)
        assert all(v == 0 for v in pts.values)

    def test_one_half_shifts(self):
        pts = orbit_points(stream("rational:1/2"), 3, 4)
        assert pts.values == (Fraction(8, 16), Fraction(0), Fraction(0))

    def test_window_agreement(self):
        # points truncated at w and w' agree on the first min(w, w') bits
        s = stream("random:5")
        a, _ = orbit_points(s, 20, 16).dyadic_view()
        b, _ = orbit_points(s, 20, 24).dyadic_view()
        assert (a == (b >> 8)).all()

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            orbit_points(stream("rational:1/3"), 8, 3)  # needs w >= 4

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            orbit_points(stream("rational:1/3"), 4, 65)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("w", [1, 2, 31, 32, 33, 63, 64])
    def test_window_numerators_pack_msb_first(self, w, chunk, monkeypatch):
        # The measure's packer, chunk by chunk, against the w digits from
        # each position read most significant first; at the default chunk
        # size the points span two chunks.
        if chunk is not None:
            monkeypatch.setattr(measure, "CHUNK", chunk)
        count = 40 if chunk else measure.CHUNK + 40
        for text in ("random:1", "champernowne", "rational:1/3"):
            bits = stream(text).prefix(count + w - 1).to_numpy()
            want, v = [], 0
            for i, bit in enumerate(bits.tolist()):
                v = ((v << 1) | bit) & ((1 << w) - 1)
                if i >= w - 1:
                    want.append(v)
            assert _window_numerators(bits, count, w).tolist() == want, text


class TestCountViaOrbit:
    def test_one_third_example(self):
        assert count_via_orbit(stream("rational:1/3"), 4, Pattern.from01("01"), 16) == 2

    def test_zero_stream(self):
        s = stream("rational:0/1")
        assert count_via_orbit(s, 5, Pattern.from01("00"), 8) == 5
        assert count_via_orbit(s, 5, Pattern.from01("1"), 8) == 0

    def test_pattern_exceeds_window(self):
        with pytest.raises(ValueError):
            count_via_orbit(stream("rational:1/3"), 4, Pattern.from01("0101"), 3)

    def test_bridge_exhaustive_small_k(self):
        # The defining identity: indicator sums over dyadic intervals equal
        # direct pattern counts, for every pattern with k <= 6 and every M.
        for text in ("random:1", "random:2", "champernowne", "rational:5/7"):
            s = stream(text)
            w = 16
            m_top = 24
            digits = s.prefix(m_top + w - 1)
            for k in range(1, 7):
                for value in range(1 << k):
                    pattern = Pattern(k, value)
                    for m in (1, 3, m_top):
                        assert count_via_orbit(s, m, pattern, w) == (
                            count_occurrences(digits, m, pattern)
                        ), (text, k, value, m)


class TestLemma1Verify:
    def test_one_third_checkpoint_exact(self):
        # Frozen expectations recomputed from the module oracles:
        # normality of 01010101 from the naive evaluator, the envelope from
        # the pair-enumeration discrepancy reference on orbit prefixes.
        s = stream("rational:1/3")
        rep = lemma1_verify(s, 8, 16, checkpoints=[8])
        (cp,) = rep.checkpoints
        digits = s.prefix(8)
        assert cp.normality == normality_naive(digits).value
        assert cp.normality == ExactValue(19, 3)
        pts = orbit_points(s, 8, 16)
        ref_ds = [
            extreme_discrepancy_reference(pts.prefix(m)) for m in range(1, 9)
        ]
        expected_phi = max(m * d for m, d in enumerate(ref_ds, start=1))
        assert cp.phi == expected_phi
        assert cp.phi == Fraction(43691, 8192)
        assert cp.margin == cp.phi - Fraction(19, 8)
        assert rep.overall_pass

    def test_zero_stream_passes(self):
        for n in (2, 5, 16, 64):
            rep = lemma1_verify(stream("rational:0/1"), n, 16)
            assert rep.overall_pass

    def test_random_streams_pass(self):
        for seed in range(8):
            rep = lemma1_verify(stream(f"random:{seed}"), 256, 16)
            assert rep.overall_pass
            assert [c.n for c in rep.checkpoints] == default_checkpoints(256)
            for c in rep.checkpoints:
                assert c.margin >= 0 and c.passed

    def test_explicit_checkpoints_validated(self):
        s = stream("random:3")
        with pytest.raises(ValueError):
            lemma1_verify(s, 16, 16, checkpoints=[0, 4])
        with pytest.raises(ValueError):
            lemma1_verify(s, 16, 16, checkpoints=[20])
        with pytest.raises(ValueError):
            lemma1_verify(s, 16, 16, checkpoints=[])

    def test_default_checkpoints(self):
        assert default_checkpoints(1) == [1]
        assert default_checkpoints(8) == [1, 2, 4, 8]
        assert default_checkpoints(12) == [1, 2, 4, 8, 12]

    def test_report_json_shape(self):
        rep = lemma1_verify(stream("rational:1/3"), 8, 16)
        d = rep.to_json_dict()
        assert d["window_bits"] == 16
        assert d["overall_pass"] is True
        assert [c["n"] for c in d["checkpoints"]] == [1, 2, 4, 8]
        cp = d["checkpoints"][-1]
        assert set(cp) == {"n", "normality", "phi", "margin", "pass"}
        assert cp["normality"]["num"] == 19


STRUCTURED = [
    stream("champernowne"),
    stream("rational:1/3"),
    stream("rational:0/1"),
    DigitStream("ones", lambda n: BitSequence([1] * n)),
]


@pytest.mark.parametrize("w", [8, 33, 64])
@pytest.mark.parametrize("s", STRUCTURED, ids=lambda s: s.label)
class TestStructuredStreams:
    """Periodic, constant and Champernowne orbits against the pair
    enumeration oracle, on every prefix of N = 64 points."""

    N = 64

    def reference(self, s, w) -> list[Fraction]:
        pts = orbit_points(s, self.N, w)
        return [extreme_discrepancy_reference(pts.prefix(m)) for m in range(1, self.N + 1)]

    def test_prefix_engine_matches_reference(self, s, w):
        nums, _ = orbit_points(s, self.N, w).dyadic_view()
        dnums = prefix_deviation_numerators(nums, w)
        for m, d in enumerate(self.reference(s, w), start=1):
            assert Fraction(dnums[m - 1], m << w) == d, m

    @pytest.mark.parametrize("n", [64, 200])
    def test_checkpoint_envelope_matches_engine(self, s, w, n):
        nums, _ = orbit_points(s, n, w).dyadic_view()
        full = list(itertools.accumulate(prefix_deviation_numerators(nums, w), max))
        for cps in ([n], list(range(1, n + 1)), [n // 3], default_checkpoints(n)):
            assert phi_envelope(nums, w, cps) == [full[m - 1] for m in cps]

    def test_envelope_matches_reference(self, s, w):
        rep = lemma1_verify(s, self.N, w, checkpoints=range(1, self.N + 1))
        phis = [c.phi for c in rep.checkpoints]
        assert [c.n for c in rep.checkpoints] == list(range(1, self.N + 1))
        assert phis == sorted(phis)
        scaled = (m * d for m, d in enumerate(self.reference(s, w), start=1))
        assert phis == list(itertools.accumulate(scaled, max))
        assert rep.overall_pass


def _unread():
    """A stream that fails if any digit is read."""

    def fail(n):
        raise AssertionError("digits read")

    return DigitStream("unread", fail)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: orbit_points(_unread(), -1, 8), "n must be >= 0",
                     id="orbit_points-n"),
        pytest.param(lambda: orbit_points(_unread(), 4, 0),
                     "window bits w=0 outside [1, 64]", id="orbit_points-w"),
        pytest.param(lambda: orbit_points(_unread(), 8, 3),
                     "w=3 too small for n=8; need w >= 4", id="orbit_points-small-w"),
        pytest.param(lambda: count_via_orbit(_unread(), 0, Pattern(1, 0), 8),
                     "m must be >= 1", id="count_via_orbit-m"),
        pytest.param(lambda: count_via_orbit(_unread(), 4, Pattern(1, 0), 65),
                     "window bits w=65 outside [1, 64]", id="count_via_orbit-w"),
        pytest.param(lambda: count_via_orbit(_unread(), 4, Pattern(4, 5), 3),
                     "pattern length 4 exceeds window bits 3",
                     id="count_via_orbit-k"),
        pytest.param(lambda: default_checkpoints(0), "n must be >= 1",
                     id="default_checkpoints-0"),
        pytest.param(lambda: default_checkpoints(-3), "n must be >= 1",
                     id="default_checkpoints-negative"),
        pytest.param(lambda: lemma1_verify(_unread(), 0, 8), "n must be >= 1",
                     id="lemma1_verify-n"),
        pytest.param(lambda: lemma1_verify(_unread(), 8, 0),
                     "window bits w=0 outside [1, 64]", id="lemma1_verify-w"),
        pytest.param(lambda: lemma1_verify(_unread(), 1 << 26, 64),
                     "prefix engine supports fewer than 2^26 points",
                     id="lemma1_verify-limit"),
        pytest.param(lambda: lemma1_verify(_unread(), 16, 16, checkpoints=[]),
                     "empty checkpoint list", id="lemma1_verify-no-checkpoints"),
        pytest.param(lambda: lemma1_verify(_unread(), 16, 16, checkpoints=[0, 4]),
                     "checkpoint=0 outside [1, 16]",
                     id="lemma1_verify-checkpoint"),
        pytest.param(lambda: lemma1_verify(_unread(), 16, 16, checkpoints=[2.5]),
                     "checkpoint=2.5 is not an integer", id="lemma1_verify-float"),
    ],
)
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
