"""Exact evaluation of the normality measure of a finite binary sequence.

The measure is the maximum, over block lengths k with 2^k <= N, patterns X
of length k, and window counts M <= N+1-k, of |T(E,M,X) - M/2^k|, where T
counts the windows among the first M that equal X. Three evaluators are
provided; each runs one pass per k, and one reducer, :func:`_report`,
builds a report from each pass's k, peak and witness:

* :func:`normality_naive` walks every (k, X, M) triple by definition and is
  the testing oracle.
* :func:`normality_fast` reads one driver, :func:`_passes`, which runs a
  k's carry and scan only when k is asked for. A pattern's 2^k*T - M rises
  by 2^k - 1 as one of its windows arrives and falls by 1 at every other
  step, so |2^k*T - M| peaks as a window arrives, just before one
  arrives, or at the last step. The pass works entirely in the windows'
  stable order by code, carried from k-1 to k by one O(N) radix pass, so
  no k sorts. Each window carries, in the same order, at least
  floor(log2 N) digits that end where it ends: its code is their low k
  bits, and the digit the pass for k prepends is bit k-1, so the digits
  are read once, before the first pass. In that order a window's
  occurrence rank r is its position less its group's start, so both of
  its terms follow from r and its end e, and each side's peak over a
  chunk is one argmax or argmin of (r-1)*2^k - e; nothing is scattered
  back to window order. The positions run in pattern order, then M
  order, so the first position at the peak is the witness. A group of k
  lies in one of k-1's, so r <= G, k-1's largest group (below), and
  those terms, in [-N, (G-1)*2^k], are int32 when (G-1)*2^k < 2^31.
  Every k's order and digits overwrite k-1's in one pair of N+1 int32
  entries; the carry and the scan walk the positions one chunk at a time
  and write into one set of chunk buffers per call. The carry moves in
  place every entry but the ones (bit k-1 set) that a zero would
  overwrite, those below Z, the count of k's zeros, which wait in a side
  buffer of two int32 each: the other ones move up by the saved ones
  less the zeros before them, or, after the last zero, down by one. The
  buffer is made once per call, for the most any k saves, at most
  min(Z, ones) (none for all ones or all zeros).
* :func:`normality_value` reads the same driver for the value alone and
  stops after the pass for k-1 once G <= B, where B is the best value up
  to k-1 and G the largest group of equal codes among the N+2-k windows
  of length k-1, so k's pass never runs. Proof: take j >= k, X
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

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitcore import BitSequence, ExactValue, Pattern, check_int

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
            **self.value.json_fields("value_"),
            "k": self.witness_k,
            "pattern": str(self.witness_pattern) if self.witness_pattern else None,
            "M": self.witness_m,
            "T": self.witness_t,
            "per_k": [{"k": k, **v.json_fields()} for k, v in self.per_k_max],
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
    m = check_int(m, "M", 1, n + 1 - k)
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


def _report(n: int, passes) -> NormalityReport:
    """The report of the passes (k, num, (x, M, T), ...), k = 1, 2, ...:
    each k's num/2^k and the largest, with its witness at the smallest k."""
    per_k: list[tuple[int, ExactValue]] = []
    best = None  # num, k, (x, m, t)
    for k, num, witness, *_ in passes:
        per_k.append((k, ExactValue(num, k)))
        if best is None or _better(num, k, best[0], best[1]):
            best = (num, k, witness)
    if best is None:
        return NormalityReport(n, ExactValue(0), None, None, None, None, ())
    num, k, (x, m, t) = best
    return NormalityReport(n, ExactValue(num, k), k, Pattern(k, x), m, t, tuple(per_k))


def check_measure_n(n: int) -> None:
    """The measure's domain is N <= 2^30: window codes (< N) and indices are
    int32, and a scan's terms lie in [-N, (G-1)*2^k] for k-1's largest group
    G <= N+1, so in int64 for k <= 30, and in int32 when (G-1)*2^k < 2^31."""
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
    return _report(len(seq), _naive_passes(seq))


def _naive_passes(seq: BitSequence):
    """(k, max_{X,M} |2^k*T(M,X) - M|, the smallest (pattern, M, T)
    attaining it) for k = 1 .. floor(log2 N), by definition."""
    n = len(seq)
    check_measure_n(n)
    klim = max_block_length(n)
    bits = seq.to_numpy().astype(np.int32)
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
        chunk = max(1, min(npat, (1 << 14) // width))
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
        yield k, k_best[0], k_best[1:]


# -- single-pass evaluator ---------------------------------------------

# Positions per chunk. Per chunk the carry and the scan make only
# flatnonzero's index arrays and the scan's ranks, each of at most 8*CHUNK bytes.
CHUNK = 1 << 15


class _Buffers:
    """One call's chunk buffers, each one entry longer than a chunk."""

    def __init__(self, n: int):
        size = min(CHUNK, n + 1) + 1
        self.ramp = np.arange(size, dtype=np.int32)  # 0, 1, 2, ...
        self.codes = np.empty(size, np.int32)
        self.moved = np.empty((2, size), np.int32)
        self.new = np.empty(size, bool)
        self.sizes = np.empty(size, np.int64)  # of groups, or their parts in a chunk


def _position(ck: np.ndarray, mask: int, x: int) -> int:
    """The first position whose code ck & mask is at least x, where the
    positions are sorted by that code."""
    return bisect_left(range(ck.shape[0]), x, key=lambda p: ck.item(p) & mask)


def _gather(part: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the columns of the two rows `part` where `mask` is set, in
    order, to the first columns of `out`, which does not overlap `part`;
    return their indices."""
    idx = np.flatnonzero(mask)
    np.take(part[0], idx, out=out[0, : idx.size], mode="clip")  # in range: no buffer
    np.take(part[1], idx, out=out[1, : idx.size], mode="clip")
    return idx


def _carry(
    pair: np.ndarray, code0: int, k: int, ones: int, side: np.ndarray, buf: _Buffers
) -> None:
    """Turn the windows' stable order by code for k-1, with their preceding
    digits in that order (the two rows of pair), into the pair for k, in
    place in the first pair.shape[1] - 1 columns. Window j-1 of length k is
    digit j-1 followed by window j of length k-1 and ends where it ends,
    so it keeps its entry in order (the end) and in ck, where that digit
    is bit k-1. So drop window 0, of code code0, and partition the rest
    stably by bit k-1, zeros first: one LSD radix pass. Of the L entries,
    `ones` have bit k-1 set, and the Z = L - 1 - ones others, the drop not
    counted, end in [0, Z). Three sweeps, each one chunk at a time:

    1. Forward: the zeros move down into [0, Z), never past the positions
       read so far, and the S ones below Z, which zeros will overwrite,
       go to the side buffer (ends in side[0], digits in side[1]).
    2. A one at p >= Z ends at Z + S + (the ones in [Z, p)), while p is
       Z + (the ones in [Z, p)) + (the holes, zeros or the drop, in
       [Z, p)); [Z, L) holds L - Z - (ones - S) = S + 1 holes, so each
       one moves up by S less the holes before it, or stays, except the
       run after the last hole h, which moves down one. That run moves
       forward; then [Z, h) is swept backward, each chunk's ones written
       right-aligned below h. None lands below its chunk's start, so a
       chunk overwrites only positions already read.
    3. The saved ones fill [Z, Z + S).

    S <= min(Z, ones), which sizes the side buffer.
    """
    ck = pair[1]
    size = pair.shape[1]
    bit = 1 << (k - 1)
    z = size - 1 - ones
    # window 0 has the smallest end, k-1, so it comes first in its group
    drop = _position(ck, bit - 1, code0)
    zeros = saved = 0
    last = drop  # the last hole
    for a in range(0, size, CHUNK):
        part = pair[:, a : a + CHUNK]
        one = buf.new[: part.shape[1]]  # bit k-1 of each, cast to bool
        np.bitwise_and(part[1], bit, out=one, casting="unsafe")
        if a < z:
            saved += _gather(part, one[: z - a], side[:, saved:]).size
        zero = np.logical_not(one, out=one)
        if a <= drop < a + CHUNK:
            zero[drop - a] = False  # window 0 reads a zero before position 0
        idx = _gather(part, zero, buf.moved)
        if idx.size:
            pair[:, zeros : zeros + idx.size] = buf.moved[:, : idx.size]
            zeros += idx.size
            last = max(last, a + int(idx[-1]))
    for a in range(last + 1, size, CHUNK):
        part = pair[:, a : a + CHUNK]
        moved = buf.moved[:, : part.shape[1]]
        moved[...] = part
        pair[:, a - 1 : a - 1 + part.shape[1]] = moved
    top = last  # the ones of [z, last) end right-aligned below it
    for b in range(last, z, -CHUNK):
        a = max(b - CHUNK, z)
        one = buf.new[: b - a]
        np.bitwise_and(ck[a:b], bit, out=one, casting="unsafe")
        count = _gather(pair[:, a:b], one, buf.moved).size
        pair[:, top - count : top] = buf.moved[:, :count]
        top -= count
    pair[:, z : z + saved] = side[:, :saved]


def _scan_k(
    order: np.ndarray, ck: np.ndarray, k: int, buf: _Buffers, g_prev: int
) -> tuple[int, tuple[int, int, int], int]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M|, the
    smallest (pattern, M, T) attaining it, and the size of the largest
    group of equal codes, from the windows' stable order by code, their
    preceding digits in that order and k-1's largest group g_prev, in one
    pass over the positions a chunk at a time.

    Position p of a group starting at s holds the window ending at
    e = order[p], i = e - k, with occurrence rank r = p - s + 1, so with
    d[p] = (r-1)*2^k - e, the term as it arrives, at M = i+1 with T = r,
    is 2^k*r - (i+1) = d[p] + 2^k + k - 1, and the term just before, at
    M = i with T = r-1, is i - 2^k*(r-1) = -d[p] - k; the two differ, as
    their sum is odd. The group lies in one of k-1's, so r <= g_prev and d
    is int32 when (g_prev-1)*2^k < 2^31, else int64; the test is strict,
    as numpy's int32 shifts wrap silently. The positions run in code,
    then end order, so the first position at the largest term holds the
    smallest pattern and its smallest M. The last term, at step m, is
    m - 2^k*size, or m for a missing pattern, above every present one's
    and every term just before; it wins a tie only with a smaller pattern.
    """
    m = order.shape[0]
    mask = (1 << k) - 1
    dt = np.int32 if (g_prev - 1) << k < 1 << 31 else np.int64
    first = groups = 0  # the start of the group holding a; groups started before a
    top, witness = -1, None  # the largest term so far and its (x, M, T)
    xmiss = -1  # the first missing code
    gmax, gmin, xmin = 0, m + 1, 0  # group sizes; the first smallest's code
    for a in range(0, m, CHUNK):
        b = min(a + CHUNK, m)
        e = min(b + 1, m)
        size = b - a
        codes = np.bitwise_and(ck[a:e], mask, out=buf.codes[: e - a])
        new = buf.new[: size + 1]  # whether a group starts at each of a .. b
        new[0] = new[size] = True  # new[size] stays True at b = m
        np.not_equal(codes[1:], codes[:-1], out=new[1 : e - a])
        starts = np.flatnonzero(new)  # from a; the last is b - a if new[size]
        g = starts.size - int(new[size])  # the groups with positions here
        groups += g - (first < a)
        if xmiss < 0 and not (
            groups == 1 << k if b == m else int(codes[size - 1]) == groups - 1
        ):  # the first group here whose code is past its index, else groups
            lag = groups - g  # the first group's index; every code below it occurs
            xmiss = lag + bisect_left(
                range(g), True, key=lambda j: codes.item(starts.item(j)) - j > lag
            )
        np.subtract(starts[1:g], starts[: g - 1], out=buf.sizes[: g - 1])
        buf.sizes[g - 1] = size - starts[g - 1]  # each group's positions here
        starts[0] = first - a
        d = np.repeat(starts[:g].astype(dt), buf.sizes[:g])  # each position's s, less a
        np.subtract(buf.ramp[:size], d, out=d)
        d <<= k
        d -= order[a:b]
        hi, lo = int(d.argmax()), int(d.argmin())
        up, down = int(d[hi]) + (1 << k) + k - 1, -int(d[lo]) - k
        # the larger; at a tie, the earlier position (hi != lo then)
        term, p, step = (up, hi, 1) if (up, lo) > (down, hi) else (down, lo, 0)
        if term > top:
            end = int(order[a + p])
            top = term
            witness = (int(codes[p]), end - k + step, ((int(d[p]) + end) >> k) + step)
        # the sizes of the groups that end by b
        sizes = np.subtract(starts[1:], starts[:-1], out=buf.sizes[: starts.size - 1])
        if sizes.size:
            gmax = max(gmax, int(sizes.max()))
            j = int(sizes.argmin())
            if sizes[j] < gmin:
                gmin, xmin = int(sizes[j]), int(codes[max(starts[j], 0)])
        first = a + int(starts[-1])
    if xmiss >= 0:
        gmin, xmin = 0, xmiss
    last = m - (gmin << k)
    if last > top or last == top and xmin < witness[0]:
        top, witness = last, (xmin, m, gmin)
    return top, witness, gmax


def _preceding_digits(
    bits: np.ndarray, width: int, out: np.ndarray, part: np.ndarray
) -> None:
    """Set out[i] for i = 0 .. n to at least `width` of the digits before
    position i as a binary number, digit i-1 lowest, reading zeros before
    position 0; digits past out's unsigned type shift out. Built by
    doubling the digits read, high chunks first, so each chunk reads
    entries not yet doubled, with the scratch `part` of one chunk."""
    n = bits.shape[0]
    out[0] = 0
    out[1:] = bits
    w = 1  # digits read so far
    while w < width:
        for b in range(n + 1, w, -CHUNK):
            a = max(b - CHUNK, w)
            high = np.left_shift(out[a - w : b - w], w, out=part[: b - a])
            np.bitwise_or(out[a:b], high, out=out[a:b])
        w <<= 1


def _passes(seq: BitSequence):
    """(k, this k's peak num, its witness (x, M, T), its largest group)
    from _scan_k for k = 1 .. floor(log2 N), each k's carry run only when
    k is asked for. Every k's pair is a view of one pair of n+1 entries,
    carried in place. Window i of length k is held by its end i+k in the
    order and carries the digits before position i+k, so its code is
    their low k bits."""
    n = len(seq)
    check_measure_n(n)
    kmax = max_block_length(n)
    if kmax < 1:
        return
    bits = seq.to_numpy()
    buf = _Buffers(n)
    pair = np.empty((2, n + 1), dtype=np.int32)
    order, ck = pair
    for a in range(0, n + 1, CHUNK):  # the n+1 empty windows (k = 0), by ends
        part = order[a : a + CHUNK]
        np.add(buf.ramp[: part.size], a, out=part)
    # unsigned, as the top digit may land on bit 31
    _preceding_digits(bits, kmax, ck.view(np.uint32), buf.codes.view(np.uint32))
    # ones[k-1]: the ones among digits 0 .. n-k, the bits k-1 of k's carry
    ones = [int(np.count_nonzero(bits))]
    for k in range(2, kmax + 1):
        ones.append(ones[-1] - int(bits[n + 1 - k]))
    # k's carry saves at most min(Z, ones) of them, Z = n+1-k - ones
    saved = max(min(n + 1 - k - o, o) for k, o in enumerate(ones, 1))
    side = np.empty((2, saved), dtype=np.int32)
    code0 = 0  # the code of window 0
    g = n + 1  # the largest group of k-1's codes; k = 0: n+1 empty windows
    for k in range(1, kmax + 1):
        size = n + 1 - k
        _carry(pair[:, : size + 1], code0, k, ones[k - 1], side, buf)
        code0 = (code0 << 1) | int(bits[k - 1])
        num, witness, g = _scan_k(order[:size], ck[:size], k, buf, g)
        yield k, num, witness, g


def normality_fast(seq: BitSequence) -> NormalityReport:
    """Single-pass-per-k evaluator; contract identical to normality_naive."""
    return _report(len(seq), _passes(seq))


def normality_value(seq: BitSequence) -> ExactValue:
    """normality_fast(seq).value, without the witness or the k's that
    cannot beat the best (module docstring)."""
    num = bk = 0  # the best value num/2^bk over the k's run so far
    for k, cand, _, g in _passes(seq):
        if _better(cand, k, num, bk):
            num, bk = cand, k
        if g << bk <= num:
            break
    return ExactValue(num, bk)
