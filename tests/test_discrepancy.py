import itertools
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbits.bitcore import ExactValue
from normbits.discrepancy import (
    LEFT_LIMIT,
    RIGHT_LIMIT,
    PointSet,
    extreme_discrepancy,
    extreme_discrepancy_reference,
    parse_points_file,
    phi_envelope,
    prefix_deviation_numerators,
)
from normbits.generators import GeneratorSpec
from normbits.orbit import default_checkpoints, orbit_points


def random_dyadic_set(rng: random.Random, n: int, w: int) -> PointSet:
    return PointSet(Fraction(rng.randrange(1 << w), 1 << w) for _ in range(n))


def assert_witness_recounts(pts: PointSet, rep) -> None:
    """Count the points in [a, b), honoring the sides, and check that
    |count/N - (b - a)| is the reported extreme discrepancy."""
    a, b = rep.witness_a, rep.witness_b
    count = 0
    for y in pts.values:
        lo_ok = y >= a if rep.witness_a_side == LEFT_LIMIT else y > a
        hi_ok = y < b if rep.witness_b_side == LEFT_LIMIT else y <= b
        count += lo_ok and hi_ok
    assert abs(Fraction(count, pts.size) - (b - a)) == rep.extreme


@st.composite
def dyadic_lists(draw):
    """(w, numerators) with w in [0, 64] and many duplicates and zeros.

    Values also come from the top half of [0, 2^w) (at or above 2^63 for
    w = 64) and from just above 0 and 2^(w-1): such pairs have equal or
    close high parts but a different exact order of f, which only the
    high-limb filter's exact finish gets right.
    """
    w = draw(st.one_of(st.sampled_from([31, 32, 33, 63, 64]), st.integers(0, 64)))
    top = (1 << w) - 1
    half = top - top // 2
    value = st.one_of(
        st.just(0),
        st.just(top),
        st.integers(0, top),
        st.integers(half, top),
        st.integers(0, min(top, 8)),
        st.integers(half, min(top, half + 8)),
    )
    pool = draw(st.lists(value, min_size=1, max_size=4))
    either = st.one_of(st.sampled_from(pool), value)
    return w, draw(st.lists(either, min_size=1, max_size=20))


@st.composite
def mixed_fractions(draw):
    """Points over mixed denominators: small non-dyadic ones, 2^64, and
    ones past 2^64, so the common denominator is the lcm, often neither
    a power of two nor below 2^65. Duplicates and 0 come from a pool."""
    den = st.sampled_from([3, 5, 6, 7, 12, 97, 2, 1 << 64, 1 << 70, 3 << 65])

    def top(span):
        """a/d for the `span` largest numerators a < d (all when span > d)."""

        def points(d):
            return st.integers(max(0, d - span), d - 1).map(lambda a: Fraction(a, d))

        return den.flatmap(points)

    value = st.one_of(st.just(Fraction(0)), top(1 << 80), top(3))
    pool = draw(st.lists(value, min_size=1, max_size=4))
    either = st.one_of(st.sampled_from(pool), value)
    return draw(st.lists(either, min_size=1, max_size=20))


_DYADIC_EXAMPLES = [
    (32, [0, (1 << 32) - 1, 0, 1 << 31, 1 << 31, 7]),
    (33, [(1 << 33) - 1, 0, 1 << 32, (1 << 32) - 1, 1 << 32, 0]),
    (64, [1 << 63, 0, (1 << 64) - 1, 1 << 63, 0, (1 << 63) + 1, (1 << 64) - 2]),
    (64, [5, 1 << 63]),  # equal high parts; the exact max is the second rank
    # hi of the second rank is 2 below (1 above) the first's, inside the
    # band of M = 3, and its exact f is the larger (smaller) one.
    (64, [(1 << 32) - 1, 1431655766 << 32, (1 << 64) - 1]),
    (64, [2863311520 << 32, (4294967285 << 32) + (1 << 32) - 1, (1 << 64) - 1]),
]


class TestExtremeDiscrepancy:
    def test_single_point_half(self):
        rep = extreme_discrepancy(PointSet([Fraction(1, 2)]))
        assert rep.extreme == 1
        assert rep.star == Fraction(1, 2)
        # supremum realized by the interval closing onto the point
        assert (rep.witness_a, rep.witness_a_side) == (Fraction(1, 2), LEFT_LIMIT)
        assert (rep.witness_b, rep.witness_b_side) == (Fraction(1, 2), RIGHT_LIMIT)

    def test_quarter_pair(self):
        rep = extreme_discrepancy(PointSet([Fraction(1, 4), Fraction(3, 4)]))
        assert rep.extreme == Fraction(1, 2)
        assert rep.star == Fraction(1, 4)

    def test_thirds_pair(self):
        rep = extreme_discrepancy(PointSet([Fraction(1, 3), Fraction(2, 3)]))
        assert rep.extreme == Fraction(2, 3)

    def test_integer_points(self):
        # ints and numpy integers are exact rationals
        points = PointSet([0, np.uint64(0), np.int8(0), Fraction(1, 3)])
        assert points.values == (0, 0, 0, Fraction(1, 3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extreme_discrepancy(PointSet([]))
        with pytest.raises(ValueError):
            extreme_discrepancy_reference(PointSet([]))

    def test_points_must_be_in_unit(self):
        with pytest.raises(ValueError):
            PointSet([Fraction(3, 2)])
        with pytest.raises(ValueError):
            PointSet([Fraction(-1, 4)])

    def test_refuses_2_31_points(self):
        # a zero-stride view: 2^31 points that cost no memory
        nums = np.broadcast_to(np.uint64(0), (1 << 31,))
        with pytest.raises(ValueError, match="fewer than 2\\^31 points"):
            extreme_discrepancy(PointSet._of(nums, 1 << 64))

    def test_reference_zero_point(self):
        assert extreme_discrepancy_reference(PointSet([Fraction(0)])) == 1

    def test_centered_lattice_star(self):
        # (2i-1)/2N minimizes the star discrepancy at 1/(2N)
        for n in (1, 2, 4, 8):
            pts = PointSet(Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1))
            rep = extreme_discrepancy(pts)
            assert rep.star == Fraction(1, 2 * n)

    def test_witness_interval_reproduces_value(self):
        rng = random.Random(5)
        top = (1 << 64) - 1
        sets = [random_dyadic_set(rng, rng.randint(1, 40), 8) for _ in range(30)]
        sets += [
            PointSet([Fraction(0)]),
            PointSet.from_dyadic([0, 0, 5, 5, 5, 255], 8),
            PointSet.from_dyadic(range(4), 2),  # every extreme ties
            PointSet.from_dyadic([top, top, top - 1, 0, 1 << 63, 1 << 63], 64),
            PointSet.from_dyadic([top - i for i in range(40)], 64),
            PointSet.from_dyadic([top - i % 3 for i in range(40)] + [0, 0], 64),
            PointSet([Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(0)]),
        ]
        for pts in sets:
            assert_witness_recounts(pts, extreme_discrepancy(pts))


class TestOracleAgreement:
    def test_exhaustive_small_dyadic(self):
        # all multisets of size <= 3 over denominator 16 here (acceptance
        # pushes to size 5)
        for n in range(1, 4):
            for combo in itertools.combinations_with_replacement(range(16), n):
                pts = PointSet(Fraction(c, 16) for c in combo)
                assert extreme_discrepancy(pts).extreme == (
                    extreme_discrepancy_reference(pts)
                )

    def test_random_sets(self):
        rng = random.Random(11)
        for _ in range(25):
            pts = random_dyadic_set(rng, rng.randint(1, 100), rng.randint(1, 12))
            rep = extreme_discrepancy(pts)
            assert rep.extreme == extreme_discrepancy_reference(pts)
            assert rep.star <= rep.extreme <= 2 * rep.star

    def test_permutation_invariance(self):
        rng = random.Random(13)
        values = [Fraction(rng.randrange(256), 256) for _ in range(24)]
        base = extreme_discrepancy(PointSet(values))
        for _ in range(5):
            rng.shuffle(values)
            rep = extreme_discrepancy(PointSet(values))
            assert (rep.extreme, rep.star) == (base.extreme, base.star)

    def test_random_interval_spot_check(self):
        rng = random.Random(17)
        pts = random_dyadic_set(rng, 50, 10)
        rep = extreme_discrepancy(pts)
        values = pts.values
        for _ in range(10_000):
            a = Fraction(rng.randrange(1 << 12), 1 << 12)
            b = Fraction(rng.randrange(1 << 12), 1 << 12)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            count = sum(a <= y < b for y in values)
            assert abs(Fraction(count, 50) - (b - a)) <= rep.extreme


class TestPrefixDiscrepancies:
    def test_thirds_orbit_prefixes(self):
        # single point: closing interval forces D_1 = 1; the pair at
        # {1/3, 2/3} gives D_2 = 2/3 via the closing interval [1/3, 2/3].
        pts = PointSet([Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)])
        assert extreme_discrepancy(pts.prefix(1)).extreme == 1
        assert extreme_discrepancy(pts.prefix(2)).extreme == Fraction(2, 3)

    def test_refuses_points_past_limits(self):
        with pytest.raises(ValueError, match="^w=65 outside \\[0, 64\\]$"):
            prefix_deviation_numerators(np.zeros(2, dtype=np.uint64), 65)
        # lazily zero-filled, so the 2^26 points cost no memory
        many = np.zeros(1 << 26, dtype=np.uint64)
        with pytest.raises(ValueError, match="fewer than 2\\^26"):
            prefix_deviation_numerators(many, 64)

    def test_last_entry_matches_full_set(self):
        rng = random.Random(19)
        for _ in range(10):
            pts = random_dyadic_set(rng, rng.randint(1, 30), 6)
            nums, w = pts.dyadic_view()
            last = prefix_deviation_numerators(nums, w)[-1]
            assert Fraction(last, pts.size << w) == extreme_discrepancy(pts).extreme

    @pytest.mark.parametrize("w", [0, 1, 5, 31, 32, 47, 64])
    def test_fast_engine_matches_slow(self, w):
        rng = np.random.default_rng(w)
        n = 25
        if w >= 63:
            nums = (
                rng.integers(0, 1 << 62, size=n, dtype=np.uint64) * 4
                + rng.integers(0, 4, size=n, dtype=np.uint64)
            )
        else:
            nums = rng.integers(0, 1 << w, size=n, dtype=np.uint64)
        pts = PointSet.from_dyadic(nums, w)
        dnums = prefix_deviation_numerators(nums, w)
        values = pts.values
        for m in range(1, n + 1):
            slow = extreme_discrepancy(PointSet(values[:m])).extreme
            assert Fraction(dnums[m - 1], m << w) == slow

    def test_wide_engine_medium_scale(self):
        rng = np.random.default_rng(123)
        n = 300
        nums = rng.integers(0, 1 << 62, size=n, dtype=np.uint64) * 4 + rng.integers(
            0, 4, size=n, dtype=np.uint64
        )
        dnums = prefix_deviation_numerators(nums, 64)
        values = PointSet.from_dyadic(nums, 64).values
        for m in (1, 2, 3, 5, 17, 100, 299, 300):
            slow = extreme_discrepancy(PointSet(values[:m])).extreme
            assert Fraction(dnums[m - 1], m << 64) == slow, m

    def test_wide_engine_duplicates(self):
        nums = np.array(
            [0, 1 << 63, 1 << 63, 0, (1 << 64) - 1] * 8, dtype=np.uint64
        )
        dnums = prefix_deviation_numerators(nums, 64)
        values = PointSet.from_dyadic(nums, 64).values
        for m in range(1, len(nums) + 1):
            slow = extreme_discrepancy(PointSet(values[:m])).extreme
            assert Fraction(dnums[m - 1], m << 64) == slow, m

    @settings(max_examples=150, deadline=None)
    @given(dyadic_lists())
    @example(_DYADIC_EXAMPLES[0])
    @example(_DYADIC_EXAMPLES[1])
    @example(_DYADIC_EXAMPLES[2])
    @example(_DYADIC_EXAMPLES[3])
    @example(_DYADIC_EXAMPLES[4])
    @example(_DYADIC_EXAMPLES[5])
    def test_engine_matches_reference_oracle(self, case):
        # The engine and extreme_discrepancy share the integer kernel, so the
        # independent check is the brute-force pair enumeration.
        w, nums = case
        pts = PointSet.from_dyadic(nums, w)
        dnums = prefix_deviation_numerators(np.array(nums, dtype=np.uint64), w)
        for m in range(1, len(nums) + 1):
            ref = extreme_discrepancy_reference(pts.prefix(m))
            assert Fraction(dnums[m - 1], m << w) == ref, m

    @settings(max_examples=150, deadline=None)
    @given(dyadic_lists())
    @example(_DYADIC_EXAMPLES[3])
    @example(_DYADIC_EXAMPLES[4])
    @example(_DYADIC_EXAMPLES[5])
    def test_single_set_matches_reference_and_recounts(self, case):
        w, nums = case
        pts = PointSet.from_dyadic(nums, w)
        rep = extreme_discrepancy(pts)
        assert rep.extreme == extreme_discrepancy_reference(pts)
        assert_witness_recounts(pts, rep)

    @settings(max_examples=200, deadline=None)
    @given(mixed_fractions())
    @example([Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(0)])
    @example([Fraction(0), Fraction((1 << 70) - 1, 1 << 70), Fraction(1, 3 << 65)])
    def test_general_path_matches_reference_and_recounts(self, values):
        pts = PointSet(values)
        rep = extreme_discrepancy(pts)
        assert rep.extreme == extreme_discrepancy_reference(pts)
        assert_witness_recounts(pts, rep)

    def test_dyadic_view_from_fractions(self):
        pts = PointSet([Fraction(1, 2), Fraction(3, 8), Fraction(0)])
        nums, w = pts.dyadic_view()
        assert w == 3
        assert nums.tolist() == [4, 3, 0]
        assert PointSet([Fraction(1, 3)]).dyadic_view() is None
        assert PointSet([Fraction(1, 1 << 65)]).dyadic_view() is None
        assert PointSet([Fraction(1, 1 << 64)]).dyadic_view()[1] == 64

    def test_one_integer_representation(self):
        pts = PointSet([Fraction(1, 3), Fraction(1, 4), ExactValue(1, 1), 0])
        assert (pts.nums.tolist(), pts.den) == ([4, 3, 6, 0], 12)
        assert pts.values == (Fraction(1, 3), Fraction(1, 4), Fraction(1, 2), 0)
        head = pts.prefix(2)
        assert (head.nums.tolist(), head.den, head.size) == ([4, 3], 12, 2)
        dy = PointSet.from_dyadic([5, 0], 64)
        assert (dy.nums.dtype, dy.den) == (np.uint64, 1 << 64)
        assert dy.prefix(1).values == (Fraction(5, 1 << 64),)

    def test_duplicates_allowed(self):
        pts = PointSet([Fraction(1, 4)] * 5)
        assert extreme_discrepancy(pts).extreme == 1


def running_max_at(nums, w: int, checkpoints) -> list[int]:
    """The oracle: the all-prefix engine's running maximum, read at the
    checkpoints."""
    full = list(itertools.accumulate(prefix_deviation_numerators(nums, w), max))
    return [full[m - 1] for m in checkpoints]


@st.composite
def envelope_cases(draw):
    """(w, numerators, checkpoints) with duplicates, 0 and 2^w - 1 among
    the points, and one of four checkpoint lists: [N], every m, a single
    interior m, and the default powers of two."""
    w = draw(st.sampled_from([1, 8, 31, 32, 33, 64]))
    top = (1 << w) - 1
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    pool = draw(st.lists(value, min_size=1, max_size=4))
    either = st.one_of(st.sampled_from(pool), value)
    nums = draw(st.lists(either, min_size=1, max_size=80))
    n = len(nums)
    kind = draw(st.sampled_from(["last", "every", "interior", "powers"]))
    if kind == "last":
        cps = [n]
    elif kind == "every":
        cps = list(range(1, n + 1))
    elif kind == "interior":
        cps = [draw(st.integers(1, max(1, n - 1)))]
    else:
        cps = default_checkpoints(n)
    return w, nums, cps


class TestPhiEnvelope:
    def test_example(self):
        # Points 0, 0, 1/8, 3/8 (w = 3). 8*m*D_m: the closed interval onto
        # the first m points gives 8, 16, 21; at m = 4 the best intervals,
        # [0, 1/8] and [0, 3/8] closed, give 8*(3 - 1/2) = 20. The envelope
        # keeps 21.
        assert prefix_deviation_numerators([0, 0, 1, 3], 3) == [8, 16, 21, 20]
        assert phi_envelope([0, 0, 1, 3], 3, checkpoints=range(1, 5)) == [8, 16, 21, 21]

    def test_constant_d(self):
        # All points at 0: D_m = 1, so Phi(m) = m.
        assert phi_envelope(
            np.zeros(6, dtype=np.uint64), 5, checkpoints=range(1, 7)
        ) == [m << 5 for m in range(1, 7)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi_envelope([], 8, checkpoints=[1])

    @pytest.mark.parametrize(
        "checkpoints,message",
        [
            ([4, 2], "increase strictly"),
            ([2, 2], "increase strictly"),
            ([0, 3], r"lie in \[1, 6\]"),
            ([3, 7], r"lie in \[1, 6\]"),
            ([], "empty checkpoint list"),
            ([1.5, 2], "checkpoints must be integers"),
        ],
        ids=["unsorted", "duplicate", "zero", "past-n", "empty", "float"],
    )
    def test_bad_checkpoints_rejected(self, checkpoints, message):
        with pytest.raises(ValueError, match=message):
            phi_envelope([0, 1, 2, 3, 4, 5], 3, checkpoints)

    @settings(max_examples=300, deadline=None)
    @given(envelope_cases())
    @example((64, [0, (1 << 64) - 1, 0, 1 << 63, (1 << 64) - 1] * 6, [30]))
    @example((1, [0, 1] * 20 + [0] * 20, [60]))
    def test_matches_engine_running_max(self, case):
        w, nums, cps = case
        nums = np.array(nums, dtype=np.uint64)
        assert phi_envelope(nums, w, cps) == running_max_at(nums, w, cps)

    @pytest.mark.parametrize("w", [31, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_engine_at_scale(self, seed, w):
        # 2^11 random points: long intervals where the bisection prunes.
        rng = np.random.default_rng(seed)
        nums = rng.integers(0, 1 << w, size=2048, dtype=np.uint64, endpoint=False)
        for cps in ([2048], [1000], default_checkpoints(2048), range(1, 2049, 7)):
            assert phi_envelope(nums, w, cps) == running_max_at(nums, w, cps)

    @settings(max_examples=150, deadline=None)
    @given(dyadic_lists())
    @example(_DYADIC_EXAMPLES[4])
    def test_engine_values_move_by_at_most_one_point(self, case):
        # The search's pruning rests on |v(j+1) - v(j)| <= 2^w, with v(0) = 0.
        w, nums = case
        dnums = prefix_deviation_numerators(np.array(nums, dtype=np.uint64), w)
        steps = [b - a for a, b in zip([0] + dnums, dnums)]
        assert all(abs(d) <= 1 << w for d in steps)


class TestPointsFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("# comment\n85/2^8\n\n170/2^8\n0/2^4\n")
        pts = parse_points_file(str(path))
        assert pts.values == (Fraction(85, 256), Fraction(85, 128), Fraction(0))

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("85/256\n")
        with pytest.raises(ValueError):
            parse_points_file(str(path))
        path.write_text("9/2^3\n")
        with pytest.raises(ValueError):
            parse_points_file(str(path))

    def test_parse_exponent_bound(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text(f"{(1 << 4096) - 1}/2^4096\n")
        assert parse_points_file(str(path)).values == (1 - Fraction(1, 1 << 4096),)
        path.write_text(f"{1 << 4096}/2^4096\n")
        with pytest.raises(ValueError, match=":1: .* is not in \\[0, 1\\)"):
            parse_points_file(str(path))
        path.write_text("0/2^1\n1/2^4097\n")
        with pytest.raises(ValueError, match=":2: w=4097 exceeds 4096$"):
            parse_points_file(str(path))

    def test_report_json(self):
        rep = extreme_discrepancy(PointSet([Fraction(1, 4), Fraction(3, 4)]))
        d = rep.to_json_dict()
        assert (d["extreme_num"], d["extreme_den"]) == (1, 2)
        assert (d["star_num"], d["star_den"]) == (1, 4)
        assert d["witness"]["a_side"] in (LEFT_LIMIT, RIGHT_LIMIT)


_PAST_2_8 = np.array([5, 1 << 40, 7], dtype=np.uint64)
_FLOATS = np.array([0.9, 3.99])  # once truncated to the points 0 and 3
_SQUARE = np.zeros((2, 2), dtype=np.uint64)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda path: PointSet([Fraction(1)]), "point 1 outside [0, 1)",
                     id="PointSet-point"),
        # only exact rationals: a float, a str or a Decimal is not read
        pytest.param(lambda path: PointSet([0.1]),
                     "point 0.1 is not an int or a Fraction", id="PointSet-float"),
        pytest.param(lambda path: PointSet(["1/3"]),
                     "point '1/3' is not an int or a Fraction", id="PointSet-str"),
        pytest.param(lambda path: PointSet([Decimal("0.5")]),
                     "point Decimal('0.5') is not an int or a Fraction",
                     id="PointSet-Decimal"),
        pytest.param(lambda path: PointSet.from_dyadic([0], -1),
                     "log2_den -1 outside [0, 64]", id="from_dyadic-negative-w"),
        pytest.param(lambda path: PointSet.from_dyadic([0], 65),
                     "log2_den 65 outside [0, 64]", id="from_dyadic-wide"),
        pytest.param(lambda path: PointSet.from_dyadic([[0, 1]], 4),
                     "numerators must be one-dimensional", id="from_dyadic-2d"),
        pytest.param(lambda path: PointSet.from_dyadic([3, 16], 4),
                     "numerator >= 2^4", id="from_dyadic-numerator"),
        pytest.param(lambda path: PointSet.from_dyadic(_FLOATS, 8),
                     "numerators must be integers", id="from_dyadic-float"),
        pytest.param(lambda path: PointSet.from_dyadic([0, 1.5], 8),
                     "numerators must be integers", id="from_dyadic-float-list"),
        pytest.param(lambda path: PointSet.from_dyadic(np.array([-1, 3]), 64),
                     "negative numerator", id="from_dyadic-negative"),
        pytest.param(lambda path: PointSet.from_dyadic([3, -1], 8),
                     "negative numerator", id="from_dyadic-negative-list"),
        pytest.param(lambda path: PointSet.from_dyadic([0, 1 << 64], 64),
                     "numerator >= 2^64", id="from_dyadic-2^64"),
        pytest.param(lambda path: PointSet.from_dyadic([3], 4).prefix(2),
                     "prefix length 2 outside [0, 1]", id="prefix-long"),
        pytest.param(lambda path: PointSet.from_dyadic([3], 4).prefix(-1),
                     "prefix length -1 outside [0, 1]", id="prefix-negative"),
        pytest.param(lambda path: prefix_deviation_numerators([0], -1),
                     "w=-1 outside [0, 64]", id="prefix_engine-w"),
        pytest.param(lambda path: phi_envelope([0], -1, [1]),
                     "w=-1 outside [0, 64]", id="phi_envelope-negative-w"),
        pytest.param(lambda path: phi_envelope([0], 65, [1]),
                     "w=65 outside [0, 64]", id="phi_envelope-wide"),
        pytest.param(lambda path: phi_envelope(_PAST_2_8, 8, [1, 2, 3]),
                     "numerator >= 2^8", id="phi_envelope-numerator"),
        pytest.param(lambda path: prefix_deviation_numerators(_PAST_2_8, 8),
                     "numerator >= 2^8", id="prefix_engine-numerator"),
        pytest.param(lambda path: phi_envelope(_FLOATS, 8, [1, 2]),
                     "numerators must be integers", id="phi_envelope-float"),
        pytest.param(lambda path: prefix_deviation_numerators(_FLOATS, 8),
                     "numerators must be integers", id="prefix_engine-float"),
        pytest.param(lambda path: phi_envelope(np.array([-1, 3]), 64, [1, 2]),
                     "negative numerator", id="phi_envelope-negative"),
        pytest.param(lambda path: phi_envelope(_SQUARE, 8, [1, 2]),
                     "numerators must be one-dimensional", id="phi_envelope-2d"),
        pytest.param(lambda path: prefix_deviation_numerators(_SQUARE, 8),
                     "numerators must be one-dimensional", id="prefix_engine-2d"),
        pytest.param(lambda path: parse_points_file(_write(path, "1/2^3\nx/2^4\n")),
                     "{path}:2: expected num/2^w, got 'x/2^4'", id="points-numerator"),
        pytest.param(lambda path: parse_points_file(_write(path, "1/2^y\n")),
                     "{path}:1: expected num/2^w, got '1/2^y'", id="points-exponent"),
        pytest.param(lambda path: parse_points_file(_write(path, "1/2^-2\n")),
                     "{path}:1: '1/2^-2' is not in [0, 1)", id="points-negative-w"),
        pytest.param(lambda path: parse_points_file(_write(path, "-1/2^2\n")),
                     "{path}:1: '-1/2^2' is not in [0, 1)", id="points-negative"),
    ],
)
def test_argument_checks(tmp_path, call, message):
    path = tmp_path / "points.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _orbit_set(w: int) -> PointSet:
    return orbit_points(GeneratorSpec.parse("random:1").stream(), 1 << 16, w)


@pytest.mark.parametrize("w", [31, 64])
def test_envelope_memory_per_point(w):
    # The sort order, the sorted numerators, the ranks, the kernel's
    # scratch and two prefix buffers (48 bytes a point), plus one
    # evaluation's masks and index arrays; the input is not counted.
    nums, _ = _orbit_set(w).dyadic_view()
    n = nums.size
    assert _traced_peak(lambda: phi_envelope(nums, w, default_checkpoints(n))) <= 72 * n


def test_single_set_memory_per_point():
    # The sorted numerators, the ranks and the kernel's scratch.
    pts = _orbit_set(31)
    assert _traced_peak(lambda: extreme_discrepancy(pts)) <= 28 * pts.size
