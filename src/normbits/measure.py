"""Exact evaluation of the normality measure of a finite binary sequence.

The measure is the maximum, over block lengths k with 2^k <= N, patterns X
of length k, and window counts M <= N+1-k, of |T(E,M,X) - M/2^k|, where T
counts the windows among the first M that equal X. Three evaluators are
provided:

* :func:`normality_naive` walks every (k, X, M) triple by definition and is
  the testing oracle.
* :func:`normality_fast` runs one pass per k. A pattern's 2^k*T - M rises
  by 2^k - 1 as one of its windows arrives and falls by 1 at every other
  step, so |2^k*T - M| peaks as a window arrives, just before one
  arrives, or at the last step. The pass works entirely in the windows'
  stable order by code, carried with the codes in that order from k-1 to
  k by one O(N) radix pass, so no k sorts. In that order a window's
  occurrence rank is its position within its group of equal codes, so
  each side of every pattern is one segmented maximum or minimum over the
  groups; nothing is scattered back to window order. When a k takes the
  lead, the witness is read off the first pattern at the peak. Every k's
  order and codes overwrite k-1's in one pair of N+1 int32 entries, and
  the carry and the scan walk the positions one chunk at a time, so every
  other array is one chunk long, bar a side buffer of two int32 per digit
  equal to 1.
* :func:`normality_value` runs the same passes for the value alone and
  stops before the pass for k once G <= B, where B is the best value over
  the k's before it and G the largest group of equal codes among the
  N+2-k windows of length k-1 (G = N+1 for k = 1). Proof: take j >= k, X
  of length j and M <= N+1-j. Each window equal to X starts with one
  equal to X's first k-1 bits, so T - M/2^j < T <= G; and M/2^j - T <=
  (N+1-j)/2^j <= (N+1-k)/2^k, below the mean group size (N+2-k)/2^(k-1)
  <= G. So no j >= k exceeds B, and a tie there changes neither the value
  nor its smallest-k witness. Each pass returns its G, so the test is one
  integer comparison.

All deviations are carried as integers 2^k*T - M over the denominator 2^k;
cross-k comparisons shift to a common denominator. No floats are involved
in any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitcore import BitSequence, ExactValue, Pattern

__all__ = [
    "NormalityReport", "count_occurrences", "normality_naive", "normality_fast",
    "normality_value",
]

MAX_MEASURE_N = 1 << 30


def max_block_length(n: int) -> int:
    """Largest admissible k (floor(log2 n)); 0 when the k-range is empty."""
    return n.bit_length() - 1 if n >= 1 else 0


@dataclass(frozen=True)
class NormalityReport:
    """Measure value with the witness triple attaining it.

    The witness is deterministic: smallest k, then smallest pattern value,
    then smallest M among all maximizers. For N <= 1 the k-range is empty,
    the value is 0, and the witness fields are None.
    """

    n: int
    value: ExactValue
    witness_k: Optional[int]
    witness_pattern: Optional[Pattern]
    witness_m: Optional[int]
    witness_t: Optional[int]
    per_k_max: tuple[tuple[int, ExactValue], ...]

    def to_json_dict(self) -> dict:
        return {
            "value_num": self.value.num,
            "value_log2_den": self.value.log2_den,
            "value_decimal": self.value.decimal(),
            "k": self.witness_k,
            "pattern": str(self.witness_pattern) if self.witness_pattern else None,
            "M": self.witness_m,
            "T": self.witness_t,
            "per_k": [
                {
                    "k": k,
                    "num": v.num,
                    "log2_den": v.log2_den,
                    "decimal": v.decimal(),
                }
                for k, v in self.per_k_max
            ],
        }


def count_occurrences(seq: BitSequence, m: int, pattern: Pattern) -> int:
    """Number of windows among the first m that equal the pattern.

    Counts positions n with 0 <= n < m whose k-window (e_{n+1},...,e_{n+k})
    equals the pattern; requires 1 <= m <= N+1-k so every window fits.
    """
    n = len(seq)
    k = pattern.k
    if k > n:
        raise ValueError(f"pattern length {k} exceeds sequence length {n}")
    if not 1 <= m <= n + 1 - k:
        raise ValueError(f"M={m} outside [1, {n + 1 - k}]")
    mask = (1 << k) - 1
    code = 0
    for i in range(k - 1):
        code = (code << 1) | seq[i]
    count = 0
    for i in range(m):
        code = ((code << 1) | seq[i + k - 1]) & mask
        if code == pattern.value:
            count += 1
    return count


def _empty_report(n: int) -> NormalityReport:
    return NormalityReport(n, ExactValue(0), None, None, None, None, ())


def check_measure_n(n: int) -> None:
    """The measure's domain is N <= 2^30: window codes (< N) and indices are
    int32, and p*2^k for a position p and k <= 30 fits in int64."""
    if n > MAX_MEASURE_N:
        raise ValueError(f"sequence length {n} exceeds the measure's limit 2^30")


def _extend_codes(codes: np.ndarray, bits: np.ndarray, k: int) -> np.ndarray:
    """Window codes for length k from the codes for length k-1."""
    n = bits.shape[0]
    width = n + 1 - k
    return (codes[:width] << 1) | bits[k - 1 : k - 1 + width]


def _better(cand_num: int, cand_k: int, best_num: int, best_k: int) -> bool:
    """Exact comparison cand_num/2^cand_k > best_num/2^best_k."""
    return (cand_num << best_k) > (best_num << cand_k)


# -- definitional oracle -----------------------------------------------


def normality_naive(seq: BitSequence) -> NormalityReport:
    """Reference evaluator: enumerates every pattern and takes cumulative
    counts over M directly from the definition."""
    n = len(seq)
    check_measure_n(n)
    klim = max_block_length(n)
    if klim < 1:
        return _empty_report(n)
    bits = seq.to_numpy().astype(np.int32)
    best: Optional[tuple[int, int, int, int, int]] = None  # num, k, x, m, t
    per_k: list[tuple[int, ExactValue]] = []
    # Scaled deviations are bounded by n << klim.
    dt = np.int32 if (n << klim) < (1 << 31) else np.int64
    codes = bits.copy()
    for k in range(1, klim + 1):
        if k > 1:
            codes = _extend_codes(codes, bits, k)
        width = n + 1 - k
        marr = np.arange(1, width + 1, dtype=dt)
        npat = 1 << k
        # Chunk the pattern axis to bound the (patterns x M) work matrix.
        chunk = max(1, min(npat, (1 << 21) // width))
        k_best: Optional[tuple[int, int, int, int]] = None  # num, x, m, t
        for x0 in range(0, npat, chunk):
            xs = np.arange(x0, min(x0 + chunk, npat), dtype=codes.dtype)
            t = np.cumsum(codes[None, :] == xs[:, None], axis=1, dtype=dt)
            dev = np.abs((t << k) - marr[None, :])
            maxs = dev.max(axis=1)
            arg = dev.argmax(axis=1)
            for j in range(xs.shape[0]):
                num = int(maxs[j])
                if k_best is None or num > k_best[0]:
                    mi = int(arg[j])
                    k_best = (num, x0 + j, mi + 1, int(t[j, mi]))
        assert k_best is not None
        per_k.append((k, ExactValue(k_best[0], k)))
        if best is None or _better(k_best[0], k, best[0], best[1]):
            best = (k_best[0], k, k_best[1], k_best[2], k_best[3])
    num, k, x, m, t = best
    return NormalityReport(
        n=n,
        value=ExactValue(num, k),
        witness_k=k,
        witness_pattern=Pattern(k, x),
        witness_m=m,
        witness_t=t,
        per_k_max=tuple(per_k),
    )


# -- single-pass evaluator ---------------------------------------------

# Positions per chunk: every array the passes build, except the shifted
# digits, the one pair of window orders and codes and the ones' side
# buffer, is at most this long.
CHUNK = 1 << 16


def _carry(
    order: np.ndarray, sc: np.ndarray, code0: int, prev: np.ndarray, k: int,
    side: np.ndarray,
) -> None:
    """Turn the windows' stable order by code for k-1, and their codes in
    that order, into the pair for k, in place in the first order.size - 1
    entries: code_k[j-1] = bits[j-1]*2^(k-1) + code_{k-1}[j], so drop window
    0 (the first window holding its code code0), partition the rest stably
    by prev[j] = bits[j-1], zeros first, shift them down one index and set
    bit k-1 of the ones' codes. One LSD radix pass, one chunk at a time: a
    chunk's ones go to the side buffer (orders in side[0], codes in
    side[1]) and its zeros move down, never past the positions read so far;
    the ones then fill the tail.
    """
    drop = int(np.searchsorted(sc, np.int32(code0)))  # int32: no cast of sc
    zeros = ones = 0
    for a in range(0, order.size, CHUNK):
        o, c = order[a : a + CHUNK], sc[a : a + CHUNK]
        one = np.take(prev, o)  # window 0 reads the pad, a zero
        zero = ~one
        if a <= drop < a + CHUNK:
            zero[drop - a] = False
        idx = np.flatnonzero(one)
        end = ones + idx.size
        np.take(o, idx, out=side[0, ones:end], mode="clip")  # in range: no buffer
        np.take(c, idx, out=side[1, ones:end], mode="clip")
        ones = end
        idx = np.flatnonzero(zero)
        end = zeros + idx.size
        np.take(o, idx, out=order[zeros:end])  # take copies when out overlaps
        np.take(c, idx, out=sc[zeros:end])
        zeros = end
    size = zeros + ones
    order[zeros:size] = side[0, :ones]
    sc[zeros:size] = side[1, :ones]
    sc[zeros:size] |= 1 << (k - 1)
    order[:size] -= 1


def _chunk_peaks(
    order: np.ndarray, sc: np.ndarray, k: int, a: int, first: int, groups: int
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Positions a .. b-1 (b = min(a+CHUNK, m)) of the windows' stable order
    by code: the start of each group of equal codes there (the first one
    from `first`, the start of the group holding position a) followed by b
    when the last group ends at b, each group's largest term there, the
    number of groups started before b, from the `groups` started before a,
    and whether all 2^k codes may still occur.

    Position p of a group starting at s holds window i = order[p] with
    occurrence rank r = p - s + 1, so with q[p] = p*2^k - i, the term as it
    arrives is 2^k*r - (i+1) = q[p] - s*2^k + 2^k - 1 and the term just
    before it arrives is i - 2^k*(r-1) = s*2^k - q[p]. The second is read
    only while the codes so far are exactly 0, 1, ..., groups - 1: a missing
    code peaks at the last step m, above it.
    """
    m = sc.shape[0]
    b = min(a + CHUNK, m)
    e = min(b + 1, m)
    new = np.ones(b - a + 1, dtype=bool)  # new[b-a] stays True at b = m
    np.not_equal(sc[a + 1 : e], sc[a : e - 1], out=new[1 : e - a])
    bounds = np.flatnonzero(new)
    segs = bounds[:-1] if new[-1] else bounds
    starts = bounds + a if a else bounds
    starts[0] = first
    groups += segs.size - (first < a)
    q = np.arange(a << k, b << k, 1 << k, dtype=np.int64)
    q -= order[a:b]
    base = starts[: segs.size] << k
    peaks = np.maximum.reduceat(q, segs)
    peaks -= base
    peaks += (1 << k) - 1
    full = groups == 1 << k if b == m else sc[b - 1] == groups - 1
    if full:
        lows = np.minimum.reduceat(q, segs)
        np.maximum(peaks, np.subtract(base, lows, out=lows), out=peaks)
    return starts, peaks, groups, full


def _first_missing(sc: np.ndarray) -> int:
    """The smallest code absent from the sorted codes sc."""
    x = 0  # every code below x occurs
    for a in range(0, sc.shape[0], CHUNK):
        block = sc[a : a + CHUNK]
        gaps = np.flatnonzero(np.diff(block, prepend=x - 1) > 1)
        if gaps.size:
            return x if gaps[0] == 0 else int(block[gaps[0] - 1]) + 1
        x = int(block[-1]) + 1
    return x


def _scan_k(
    order: np.ndarray, sc: np.ndarray, k: int, best: Optional[tuple[int, ...]]
) -> tuple[int, Optional[tuple[int, int, int]], int]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M|, if it
    beats `best` = (num, k, ...) the smallest (pattern, M, T) attaining it
    (never when best is None), and the size of the largest group of equal
    codes, from the windows' stable order by code and the codes in that
    order, one chunk of positions at a time.

    A pattern's deviation peaks as one of its windows arrives, just before
    one arrives (both read by _chunk_peaks) or at the last step m, at m -
    2^k*size. A missing pattern peaks at m, above every present one's last
    two, so those are read only when all 2^k patterns occur. The witness
    pattern x is the smallest code at the peak: the code at the first
    position at the peak, the first group with the smallest size when its
    end term is the peak, or the first missing code when m is; then x's
    windows give M and T.
    """
    m = sc.shape[0]
    first = groups = 0  # the start of the last group started; groups started
    top, lead = -1, None  # the largest term, and the first chunk reaching it
    gmax, gmin, xmin = 0, m + 1, 0  # group sizes; the first smallest's code
    for a in range(0, m, CHUNK):
        starts, peaks, after, full = _chunk_peaks(order, sc, k, a, first, groups)
        here = int(peaks.max())
        if here > top:
            top, lead = here, (a, first, groups)
        sizes = starts[1:] - starts[:-1]  # the groups that end by b
        if sizes.size:
            gmax = max(gmax, int(sizes.max()))
            if full:  # the end terms count only then
                j = int(sizes.argmin())
                if sizes[j] < gmin:
                    gmin, xmin = int(sizes[j]), int(sc[starts[j]])
        first, groups = int(starts[-1]), after
    full = groups == 1 << k
    end = m - (gmin << k) if full else m
    num = max(top, end)
    if best is None or not _better(num, k, best[0], best[1]):
        return num, None, gmax
    xs = []
    if top == num:
        starts, peaks = _chunk_peaks(order, sc, k, *lead)[:2]
        xs.append(int(sc[starts[int(np.argmax(peaks == num))]]))
    if end == num:
        xs.append(xmin if full else _first_missing(sc))
    x = min(xs)
    s, e = (int(v) for v in np.searchsorted(sc, np.array([x, x + 1], np.int32)))
    for a in range(s, e, CHUNK):
        b = min(a + CHUNK, e)
        d = np.arange((a - s + 1) << k, (b - s + 1) << k, 1 << k, dtype=np.int64)
        d -= order[a:b]  # 2^k*r - i over x's windows i
        hits = [
            (int(order[a + j]) + step, a - s + int(j) + step)
            for target, step in ((num + 1, 1), ((1 << k) - num, 0))  # arrival, just before
            for j in np.flatnonzero(d == target)[:1]
        ]
        if hits:  # later windows, and the end at m, give no smaller (M, T)
            return num, (x, *min(hits)), gmax
    return num, (x, m, e - s), gmax


def _sorted_windows(seq: BitSequence):
    """(k, the windows' stable order by code, their codes in that order) for
    k = 1 .. floor(log2 N), each k's carry run only when k is asked for.
    Every k's pair is a view of one pair of n+1 entries, carried in place."""
    n = len(seq)
    bits = seq.to_numpy()
    # the n+1 empty windows (k = 0), all with code 0
    order = np.arange(n + 1, dtype=np.int32)
    sc = np.zeros(n + 1, dtype=np.int32)
    side = np.empty((2, np.count_nonzero(bits)), dtype=np.int32)
    code0 = 0  # the code of window 0
    prev = np.concatenate((np.zeros(1, bits.dtype), bits)).view(bool)  # bits[j-1]
    for k in range(1, max_block_length(n) + 1):
        size = n + 1 - k
        _carry(order[: size + 1], sc[: size + 1], code0, prev, k, side)
        code0 = (code0 << 1) | int(bits[k - 1])
        yield k, order[:size], sc[:size]


def normality_fast(seq: BitSequence) -> NormalityReport:
    """Single-pass-per-k evaluator; contract identical to normality_naive."""
    n = len(seq)
    check_measure_n(n)
    if max_block_length(n) < 1:
        return _empty_report(n)
    per_k: list[tuple[int, ExactValue]] = []
    best: tuple[int, ...] = (-1, 0)  # num, k, x, m, t; k = 1 beats it
    for k, order, sc in _sorted_windows(seq):
        num, found, _ = _scan_k(order, sc, k, best)
        per_k.append((k, ExactValue(num, k)))
        if found is not None:
            best = (num, k, *found)
    num, k, x, m, t = best
    return NormalityReport(
        n=n,
        value=ExactValue(num, k),
        witness_k=k,
        witness_pattern=Pattern(k, x),
        witness_m=m,
        witness_t=t,
        per_k_max=tuple(per_k),
    )


def normality_value(seq: BitSequence) -> ExactValue:
    """normality_fast(seq).value, without the witness or the k's that
    cannot beat the best (module docstring)."""
    n = len(seq)
    check_measure_n(n)
    num = bk = 0  # the best value num/2^bk over the k's run so far
    g = n + 1  # the largest group of k-1's codes; k = 0: n+1 empty windows
    windows = _sorted_windows(seq)
    for k in range(1, max_block_length(n) + 1):
        if g << bk <= num:
            break
        _, order, sc = next(windows)
        cand, _, g = _scan_k(order, sc, k, None)
        if _better(cand, k, num, bk):
            num, bk = cand, k
    return ExactValue(num, bk)
