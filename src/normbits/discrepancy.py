"""Exact extreme and star discrepancy of finite point multisets in [0,1).

The deviation of a half-open interval [a,b) against points y_1..y_N is
|#{n: y_n in [a,b)}/N - (b-a)|. With the strict counting function
C(t) = #{n: y_n < t} and g(t) = C(t)/N - t, the interval count is exactly
C(b) - C(a), so the deviation is |g(b) - g(a)| and the extreme discrepancy
is (sup g) - (inf g). Between point values g falls with slope -1 and it
jumps up by mult(v)/N just past each value v (C is left-continuous), so

* sup g is approached among the right-sided limits (C(v)+mult(v))/N - v
  and the boundary values g(0) = g(1) = 0, and
* inf g is attained among the values g(v) = C(v)/N - v and the boundaries.

Suprema reached only in the limit correspond to intervals closing onto a
point; witness endpoints carry a "left-limit" / "right-limit" annotation
("left-limit" equals the attained value since g is left-continuous).

Points are integer numerators a over one denominator: 2^w for dyadic
points (w <= 64), else the lcm of theirs. With a_(1) <= ... <= a_(M)
sorted and f_i = i*den - M*a_(i), the right-limit of M*den*g at a_(i) is
f_i for the last copy of a value, and its attained value is f_i - den for
the first copy; other copies give smaller (larger) values. The boundary
values g(0) = g(1) = 0 never decide: max f >= f_M = M*(den - a_(M)) > 0,
and min f - den <= f_1 - den = -M*a_(1) <= 0, with equality only when
a_(1) = 0, whose left-limit is the boundary t = 0 itself. So
M*den*D = max f - min f + den, and the first ranks that attain max f and
min f are the witness ends a sweep in boundary order would pick.

For den = 2^w, f needs up to w + log2(M) bits. Given the sorted numerators
alone, the kernel writes their high parts a_i >> s, s = max(0, w - 32),
into its int64 scratch and evaluates hi_i = i*2^(w-s) - M*(a_i >> s).
Since f_i = 2^s*hi_i - M*(a_i mod 2^s), f_i lies in (2^s*(hi_i - M),
2^s*hi_i]: only ranks with hi_i > max(hi) - M can attain max f, and only
ranks with hi_i < min(hi) + M can attain min f. Those few are finished in
Python ints; for w <= 32, s = 0 and hi is f. It serves a single set (M = N
after one sort), every step of the all-prefix engine (M = m after one
sorted insert) and each prefix that phi_envelope evaluates (M = j).
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bitcore import frac_dict, read_ascii

__all__ = [
    "PointSet",
    "DiscrepancyReport",
    "extreme_discrepancy",
    "extreme_discrepancy_reference",
    "prefix_deviation_numerators",
    "phi_envelope",
    "parse_points_file",
    "LEFT_LIMIT",
    "RIGHT_LIMIT",
]

LEFT_LIMIT = "left-limit"
RIGHT_LIMIT = "right-limit"
MAX_POINT_W = 4096  # largest w of a points-file line num/2^w

class PointSet:
    """Finite multiset of exact points in [0,1), kept in arrival order.

    The points are the integer numerators ``nums`` over one common
    denominator ``den``: a uint64 array when den = 2^w with w <= 64 (the
    form the integer kernel consumes), else an object array of Python ints
    over the lcm of the points' denominators.
    """

    def __init__(self, values: Iterable[Union[Fraction, int]]):
        fracs = []
        for v in values:
            if not isinstance(v, numbers.Rational):  # a float or a str is not cast
                raise ValueError(f"point {v!r} is not an int or a Fraction")
            f = Fraction(v)
            if not 0 <= f < 1:
                raise ValueError(f"point {f} outside [0, 1)")
            fracs.append(f)
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        w = den.bit_length() - 1
        dyadic = den == 1 << w and w <= 64
        self.nums = np.array(nums, dtype=np.uint64 if dyadic else object)
        self.den = den

    @classmethod
    def from_dyadic(cls, numerators, log2_den: int) -> "PointSet":
        if not 0 <= log2_den <= 64:
            raise ValueError(f"log2_den {log2_den} outside [0, 64]")
        return cls._of(check_numerators(numerators, log2_den), 1 << log2_den)

    @classmethod
    def _of(cls, nums: np.ndarray, den: int) -> "PointSet":
        ps = cls.__new__(cls)
        ps.nums = nums
        ps.den = den
        return ps

    @property
    def size(self) -> int:
        return int(self.nums.size)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums.tolist())

    def dyadic_view(self) -> Optional[tuple[np.ndarray, int]]:
        """(numerators, w) over a common denominator 2^w, if one exists."""
        if self.nums.dtype != np.uint64:
            return None
        return self.nums, self.den.bit_length() - 1

    def prefix(self, m: int) -> "PointSet":
        if not 0 <= m <= self.size:
            raise ValueError(f"prefix length {m} outside [0, {self.size}]")
        return PointSet._of(self.nums[:m], self.den)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Extreme and star discrepancy with the witness interval [a, b).

    Endpoint sides say how the supremum is realized: "left-limit" places
    the boundary exactly at the endpoint value (the attained evaluation),
    "right-limit" means the boundary approaches from just above, i.e. the
    interval closes onto the point from the right.
    """

    n: int
    extreme: Fraction
    star: Fraction
    witness_a: Fraction
    witness_a_side: str
    witness_b: Fraction
    witness_b_side: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            **frac_dict(self.extreme, "extreme_"),
            **frac_dict(self.star, "star_"),
            "witness": {
                "a": frac_dict(self.witness_a),
                "b": frac_dict(self.witness_b),
                "a_side": self.witness_a_side,
                "b_side": self.witness_b_side,
            },
        }


def extreme_discrepancy(points: PointSet) -> DiscrepancyReport:
    """Exact extreme (and star) discrepancy via the deviation function."""
    n = points.size
    if n == 0:
        raise ValueError("empty point set")
    check_single_set_n(n)
    den = points.den
    dy = points.dyadic_view()
    if dy is not None:
        nums, w = dy
        a = np.sort(nums)
        out = np.empty(n, dtype=np.int64)
        fmax, imax, fmin, imin = _rank_extremes(a, _ranks(n, w), out, w)
        amax, amin = int(a[imax]), int(a[imin])
    else:
        a = sorted(points.nums.tolist())
        f = [(i + 1) * den - n * v for i, v in enumerate(a)]
        fmax, fmin = max(f), min(f)
        amax, amin = a[f.index(fmax)], a[f.index(fmin)]
    hi = (Fraction(fmax, n * den), Fraction(amax, den), RIGHT_LIMIT)
    lo = (Fraction(fmin - den, n * den), Fraction(amin, den), LEFT_LIMIT)
    # Boundary order decides which extremum is the left endpoint; lo is a
    # left-limit, so it comes first at a shared location.
    left, right = (lo, hi) if lo[1] <= hi[1] else (hi, lo)
    return DiscrepancyReport(
        n=n,
        extreme=hi[0] - lo[0],
        star=max(hi[0], -lo[0]),
        witness_a=left[1],
        witness_a_side=left[2],
        witness_b=right[1],
        witness_b_side=right[2],
    )


def extreme_discrepancy_reference(points: PointSet) -> Fraction:
    """Ground-truth oracle: brute enumeration over all pairs of critical
    endpoints (each distinct value from either side, plus 0 and 1)."""
    n = points.size
    if n == 0:
        raise ValueError("empty point set")
    values = points.values
    den = math.lcm(*(f.denominator for f in values))
    counter = Counter(f.numerator * (den // f.denominator) for f in values)
    locs = [0]
    cnts = [0]
    below = 0
    for v in sorted(counter):
        locs.append(v)  # boundary at the value
        cnts.append(below)
        below += counter[v]
        locs.append(v)  # boundary just past the value
        cnts.append(below)
    locs.append(den)
    cnts.append(n)
    if n * den < (1 << 62):
        la = np.asarray(locs, dtype=np.int64)
        ca = np.asarray(cnts, dtype=np.int64)
        dev = np.abs(
            (ca[None, :] - ca[:, None]) * den - (la[None, :] - la[:, None]) * n
        )
        best = int(dev.max())
    else:
        best = 0
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                d = abs((cnts[j] - cnts[i]) * den - (locs[j] - locs[i]) * n)
                if d > best:
                    best = d
    return Fraction(best, n * den)


# -- the integer kernel and the all-prefix engine ----------------------------


def _ranks(n: int, w: int) -> np.ndarray:
    """The kernel's rank terms (i+1)*2^(w-s), s = max(0, w - 32)."""
    return np.arange(1, n + 1, dtype=np.int64) << min(w, 32)


def _rank_extremes(a: np.ndarray, ranks: np.ndarray, out, w: int):
    """(fmax, imax, fmin, imin) of f_i = (i+1)*2^w - m*a[i] over sorted a.

    a is uint64 and out int64 scratch, into which the high parts a >> s
    are written for w > 32. Each index is the first that attains its
    extreme. Exact for m < 2^31, where every |hi_i| < m*2^32 fits int64.
    """
    m = a.size
    hi = out[:m]
    high = a if w <= 32 else np.right_shift(a, np.uint64(w - 32), hi.view(np.uint64))
    np.multiply(high.view(np.int64), m, out=hi)  # every high part is below 2^32
    np.subtract(ranks[:m], hi, out=hi)
    imax = int(hi.argmax())
    imin = int(hi.argmin())
    if w <= 32:
        return int(hi[imax]), imax, int(hi[imin]), imin
    return (*_finish(hi, a, w, imax, max), *_finish(hi, a, w, imin, min))


def _finish(hi: np.ndarray, a: np.ndarray, w: int, i: int, pick):
    """Exact (f, first rank) of one extreme of f, for pick max or min.

    i is the first rank that attains that extreme of hi. A rank at or
    beyond band, M from hi[i], cannot attain the extreme of f; one argmax
    (argmin) with hi[i] set to band tells whether any other rank is inside.
    """
    m = hi.size
    h = int(hi[i])
    if pick is max:
        band, arg, inside = h - m, np.argmax, np.greater
    else:
        band, arg, inside = h + m, np.argmin, np.less
    hi[i] = band
    alone = hi[arg(hi)] == band
    hi[i] = h
    idx = [i] if alone else np.flatnonzero(inside(hi, band)).tolist()
    f = [((j + 1) << w) - m * int(a[j]) for j in idx]
    best = pick(f)
    return best, idx[f.index(best)]


def check_single_set_n(n: int) -> None:
    if n >= 1 << 31:
        raise ValueError("discrepancy supports fewer than 2^31 points")


def check_prefix_n(n: int) -> None:
    if n >= 1 << 26:
        raise ValueError("prefix engine supports fewer than 2^26 points")


def check_checkpoints(checkpoints: Iterable[int], n: int) -> list[int]:
    """The checkpoints as a list: integers (read with operator.index, never
    cast), not empty, strictly increasing and within [1, n]; else ValueError."""
    try:
        cps = [operator.index(c) for c in checkpoints]
    except TypeError:
        raise ValueError("checkpoints must be integers") from None
    if not cps:
        raise ValueError("empty checkpoint list")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must increase strictly")
    if cps[0] < 1 or cps[-1] > n:
        raise ValueError(f"checkpoints must lie in [1, {n}]")
    return cps


def check_numerators(nums, w: int) -> np.ndarray:
    """The numerators of points over 2^w, w in [0, 64], as a 1-D uint64 array.

    An integer array needs at most its min and max. Other input is read by
    operator.index, never by numpy's dtype inference ([2^64 - 1, 0] would be
    float64). Nothing is cast: a non-integer, a negative value, a value of
    2^w or more, or input that is not 1-D raises ValueError.
    """
    if not 0 <= w <= 64:
        raise ValueError(f"w={w} outside [0, 64]")
    if not isinstance(nums, np.ndarray):
        nums = np.array(nums, dtype=object)
    if nums.ndim != 1:
        raise ValueError("numerators must be one-dimensional")
    if nums.dtype == object:
        try:
            ints = [operator.index(a) for a in nums.tolist()]
        except TypeError:
            raise ValueError("numerators must be integers") from None
        lo, hi = min(ints, default=0), max(ints, default=0)
    elif nums.dtype.kind in "iu":
        lo = int(nums.min()) if nums.dtype.kind == "i" and nums.size else 0
        hi = int(nums.max()) if w < 64 and nums.size else 0
    else:
        raise ValueError("numerators must be integers")
    if lo < 0:
        raise ValueError("negative numerator")
    if hi >= 1 << w:
        raise ValueError(f"numerator >= 2^{w}")
    return nums.astype(np.uint64, copy=False)


def prefix_deviation_numerators(nums: np.ndarray, w: int) -> list[int]:
    """For every prefix length M: the integer 2^w * M * D_M.

    M * D_M shares the denominator 2^w for every M, so the running maximum
    of these integers is the scaled envelope of the Lemma-style bound.
    Each step inserts one point into the sorted numerators and runs the
    kernel with M = m.
    """
    nums = check_numerators(nums, w)
    n = nums.size
    check_prefix_n(n)
    ranks = _ranks(n, w)
    a = np.empty(n, dtype=np.uint64)
    out = np.empty(n, dtype=np.int64)
    one, res = 1 << w, []
    for m in range(n):
        pos = int(np.searchsorted(a[:m], nums[m]))
        a[pos + 1 : m + 1] = a[pos:m]
        a[pos] = nums[m]
        fmax, _, fmin, _ = _rank_extremes(a[: m + 1], ranks, out, w)
        res.append(fmax - fmin + one)
    return res


def phi_envelope(nums: np.ndarray, w: int, checkpoints: Sequence[int]) -> list[int]:
    """2^w * Phi(m) at each checkpoint m: Phi(m) = max over j <= m of j*D_j.

    The numerators pass check_numerators and the checkpoints
    check_checkpoints (integers, strictly increasing, within [1, N]) before
    any work. Only the prefixes that could raise Phi are evaluated. The
    search rests on the integers v(j) = 2^w * j * D_j, with v(0) = 0,
    moving by at most 2^w per point: adding y changes C(I) - j|I| by
    1[y in I] - |I|, which lies in [-1, 1]. So no j between exact v(lo)
    and v(hi) exceeds (v(lo) + v(hi) + (hi - lo)*2^w) // 2, and no j in
    (lo, m] exceeds v(lo) + (m - lo)*2^w.

    A checkpoint whose one-sided bound cannot beat the running maximum
    reports that maximum. Otherwise v(m) is evaluated, and the interval
    from the last evaluated checkpoint to m is bisected best-first (a heap
    keyed on the two-sided bound) while some piece's bound beats the
    running maximum. The points are sorted once; one compress by arrival
    index takes the first m in sorted order into a buffer made once per
    call, a second the first j of those into another, for the kernel. The
    running maximum of prefix_deviation_numerators gives every value at
    once, and is the oracle.
    """
    nums = check_numerators(nums, w)
    n = nums.size
    if n == 0:
        raise ValueError("empty point set")
    check_prefix_n(n)
    cps = check_checkpoints(checkpoints, n)
    one = 1 << w
    ranks = _ranks(n, w)
    order = np.argsort(nums)
    sorted_nums = nums[order]
    scratch = np.empty(n, dtype=np.int64)
    firsts, mids = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)

    def v(a) -> int:
        fmax, _, fmin, _ = _rank_extremes(a, ranks, scratch, w)
        return fmax - fmin + one

    best, prev, vprev, out = 0, 0, 0, []
    heap: list[tuple[int, int, int, int, int]] = []

    def push(lo: int, vlo: int, hi: int, vhi: int) -> None:
        b = (vlo + vhi + (hi - lo) * one) // 2
        if hi - lo > 1 and b > best:
            heapq.heappush(heap, (-b, lo, vlo, hi, vhi))

    for m in cps:
        if vprev + (m - prev) * one <= best:
            out.append(best)
            continue
        first = order < m  # take is several times faster than a mask
        a = sorted_nums.take(np.flatnonzero(first), out=firsts[:m], mode="clip")
        vm = v(a)
        best = max(best, vm)
        push(prev, vprev, m, vm)
        if heap:  # an interior prefix will be evaluated
            arrival = order[first]
        while heap and -heap[0][0] > best:
            _, lo, vlo, hi, vhi = heapq.heappop(heap)
            mid = (lo + hi) // 2
            # the index array dies at once: held into the next step, it churns pages
            vmid = v(a.take(np.flatnonzero(arrival < mid), out=mids[:mid], mode="clip"))
            best = max(best, vmid)
            push(lo, vlo, mid, vmid)
            push(mid, vmid, hi, vhi)
        heap.clear()  # no piece left can beat best
        out.append(best)
        prev, vprev = m, vm
    return out


def parse_points_file(path: str) -> PointSet:
    """Read a point set from a text file of "num/2^w" lines, w <= MAX_POINT_W.

    Blank lines and lines starting with '#' are skipped.
    """
    values = []
    # Text mode has already turned "\r\n" and "\r" into "\n".
    for lineno, line in enumerate(read_ascii(path).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        num_s, sep, den_s = text.partition("/2^")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected num/2^w, got {text!r}")
        try:
            num = int(num_s)
            w = int(den_s)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected num/2^w, got {text!r}"
            ) from None
        if w > MAX_POINT_W:
            raise ValueError(f"{path}:{lineno}: w={w} exceeds {MAX_POINT_W}")
        if w < 0 or num < 0 or num.bit_length() > w:
            raise ValueError(f"{path}:{lineno}: {text!r} is not in [0, 1)")
        values.append(Fraction(num, 1 << w))
    return PointSet(values)
