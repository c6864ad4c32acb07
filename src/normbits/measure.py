"""Exact evaluation of the normality measure of a finite binary sequence.

The measure is the maximum, over block lengths k with 2^k <= N, patterns X
of length k, and window counts M <= N+1-k, of |T(E,M,X) - M/2^k|, where T
counts the windows among the first M that equal X. Two evaluators are
provided:

* :func:`normality_naive` walks every (k, X, M) triple by definition and is
  the testing oracle.
* :func:`normality_fast` runs one pass per k. For fixed k the deviation at
  step M is max(maxcount - M/2^k, M/2^k - mincount), and both extremes can
  be read off the per-window occurrence ranks: the max side attains its
  maximum only at steps where the arriving window sets a new count (so
  max_M (2^k*maxcount - M) = max_i (2^k*occ_i - i)), and the min side is
  piecewise linear between the steps where the rarest pattern catches up
  (so it is maximized at the step just before each catch-up, recoverable
  from the last position holding each occurrence rank). This turns the
  per-k scan into a handful of vectorized passes. The ranks need the
  windows in stable order by code; that order is carried from k-1 to k
  by one O(N) radix pass, so no k sorts. When a k takes the lead,
  the same pass reads the witness off the arrays it holds, so no k is
  ranked twice.

All deviations are carried as integers 2^k*T - M over the denominator 2^k;
cross-k comparisons shift to a common denominator. No floats are involved
in any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitcore import BitSequence, ExactValue, Pattern

__all__ = ["NormalityReport", "count_occurrences", "normality_naive", "normality_fast"]

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
    """The measure's domain is N <= 2^30: window codes (< N) and occurrence
    ranks are int32."""
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


def _carry_order(order: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The windows' stable order by code for k, from the order for k-1
    (overwritten): code_k[i] = bits[i]*2^(k-1) + code_{k-1}[i+1], so drop
    window 0, shift the rest down one index and partition stably by
    bits[i], zeros first. One LSD radix pass.
    """
    rest = order[order != 0]
    rest -= 1
    ones = bits.view(bool)[rest]
    out = order[: rest.size]
    zeros = rest.size - np.count_nonzero(ones)
    np.compress(~ones, rest, out=out[:zeros])
    np.compress(ones, rest, out=out[zeros:])
    return out


def _occurrence_ranks(codes: np.ndarray, order: np.ndarray) -> np.ndarray:
    """occ[i] = how many windows among the first i+1 equal the window at i,
    given the stable order of the windows by code.

    int32 throughout: the gathers and the scatter are memory-bound, and
    the measure's domain (N <= 2^30) fits.
    """
    m = codes.shape[0]
    sc = codes[order]
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(sc[1:], sc[:-1], out=new[1:])
    starts = np.flatnonzero(new).astype(np.int32)
    gid = np.cumsum(new, dtype=np.int32)
    gid -= 1
    ranks = np.arange(1, m + 1, dtype=np.int32)
    ranks -= starts[gid]
    occ = np.empty(m, dtype=np.int32)
    occ[order] = ranks
    return occ


def _min_side_profile(occ: np.ndarray, k: int) -> np.ndarray:
    """ends[v] = last step at which the minimum pattern count is v, for v up
    to the final minimum count (whose end is the last step m). The minimum
    reaches v+1 once all 2^k patterns have occurred v+1 times, so ends[v]
    is one step before the last window of occurrence rank v+1 arrives.
    """
    m = occ.shape[0]
    counts = np.bincount(occ)  # counts[v] = #patterns occurring >= v times
    stop = np.flatnonzero(counts[1:] != 1 << k)
    levels = int(stop[0]) if stop.size else counts.size - 1
    ends = np.empty(levels + 1, dtype=np.int64)
    if levels:
        # Fancy assignment with duplicate indices keeps the last write, i.e.
        # the largest step, per rank.
        last = np.zeros(counts.size, dtype=np.int32)
        last[occ] = np.arange(1, m + 1, dtype=np.int32)
        ends[:levels] = last[1 : levels + 1] - 1
    ends[levels] = m
    return ends


def _scan_k(
    codes: np.ndarray, order: np.ndarray, k: int, best: Optional[tuple[int, ...]]
) -> tuple[int, Optional[tuple[int, int, int]]]:
    """This k's maximum scaled deviation max_{X,M} |2^k*T(M,X) - M| and, if
    it beats `best` = (num, k, ...), the smallest (pattern, M, T) attaining it.

    The high side peaks where a window arrives (step i+1), the low side at
    ends[v]. Below the final level only the pattern arriving next,
    codes[ends[v]], has count v there; at the final level, all with count v.
    """
    m = codes.shape[0]
    occ = _occurrence_ranks(codes, order)
    dev = occ.astype(np.int64)
    dev <<= k
    dev -= np.arange(1, m + 1, dtype=np.int64)
    ends = _min_side_profile(occ, k)
    levels = ends.size - 1
    low = ends - (np.arange(levels + 1, dtype=np.int64) << k)
    num = max(int(dev.max()), int(low.max()))
    if best is not None and not _better(num, k, best[0], best[1]):
        return num, None
    cands: list[tuple[int, int, int]] = []
    hits = np.flatnonzero(dev == num)
    if hits.size:
        i = int(hits[np.argmin(codes[hits])])  # first of the smallest pattern
        cands.append((int(codes[i]), i + 1, int(occ[i])))
    lows = np.flatnonzero(low[:levels] == num)
    if lows.size:
        j = int(np.argmin(codes[ends[lows]]))
        step = int(ends[lows[j]])
        cands.append((int(codes[step]), step, int(lows[j])))
    if low[levels] == num:
        final = np.bincount(codes, minlength=1 << k)
        cands.append((int(np.flatnonzero(final == levels)[0]), m, levels))
    return num, min(cands)


def normality_fast(seq: BitSequence) -> NormalityReport:
    """Single-pass-per-k evaluator; contract identical to normality_naive."""
    n = len(seq)
    check_measure_n(n)
    klim = max_block_length(n)
    if klim < 1:
        return _empty_report(n)
    bits = seq.to_numpy()
    per_k: list[tuple[int, ExactValue]] = []
    best: Optional[tuple[int, int, int, int, int]] = None  # num, k, x, m, t
    codes = bits.astype(np.int32)
    order = np.arange(n + 1, dtype=np.int32)  # the n+1 empty windows (k = 0)
    for k in range(1, klim + 1):
        if k > 1:
            codes = _extend_codes(codes, bits, k)
        order = _carry_order(order, bits)
        num, found = _scan_k(codes, order, k, best)
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
