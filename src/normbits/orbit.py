"""Shift-orbit points of a binary expansion and the end-to-end check that
the normality measure of a digit prefix is bounded by the envelope of the
orbit's prefix discrepancies.

For a number z = 0.z1 z2 z3 ..., the n-th orbit point is the fractional
part of 2^(n-1) z, i.e. 0.z_n z_{n+1} .... The toolkit works with the
exact w-bit truncations 0.z_n ... z_{n+w-1} instead of the true orbit:
the first k digits of a truncated point still equal the k-window of the
digit stream at position n for every k <= w, so pattern counts are exactly
indicator sums of the truncated points over dyadic intervals, and those
intervals are a subfamily of the intervals defining the discrepancy. The
bound

    normality(Z_m) <= max_{j <= m} j * D_j(orbit prefix)

is therefore a theorem for the truncated points whenever w exceeds the
largest admissible block length; a failed checkpoint signals an
implementation bug, never a mathematical event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bitcore import BitSequence, ExactValue, Pattern, check_int, frac_dict
from .discrepancy import PointSet, check_checkpoints, check_prefix_n, phi_envelope
from .generators import DigitStream, StreamExhausted
from .measure import (
    CHUNK, MAX_MEASURE_N, _preceding_digits, max_block_length, normality_value,
)

__all__ = [
    "CheckpointResult",
    "VerificationReport",
    "orbit_points",
    "count_via_orbit",
    "lemma1_verify",
    "default_checkpoints",
]


def _window_numerators(bits: np.ndarray, count: int, w: int) -> np.ndarray:
    """Numerators of the w-bit truncated orbit points over denominator 2^w.
    The point at index n reads digits n .. n+w-1: the w digits before
    position n + w, digit n + w - 1 lowest, which is the measure's packing
    of preceding digits masked to w bits."""
    out = np.empty(bits.shape[0] + 1, dtype=np.uint64)
    _preceding_digits(bits, w, out, np.empty(min(CHUNK, out.size), dtype=np.uint64))
    nums = out[w : w + count]
    nums &= np.uint64((1 << w) - 1)
    return nums


def _check_window(n: int, w: int) -> int:
    """w read in [1, 64] and wide enough for every k-window of n digits."""
    w = check_int(w, "window bits w", 1, 64)
    need = max_block_length(n) + 1
    if w < need:
        raise ValueError(f"w={w} too small for n={n}; need w >= {need}")
    return w


def _orbit_digits(stream: DigitStream, count: int, w: int) -> BitSequence:
    """The count + w - 1 <= 2^30 digits that count orbit points of w bits read."""
    need = count + w - 1
    if need > MAX_MEASURE_N:
        raise ValueError(
            f"{count} orbit points of {w} bits need n + w - 1 = {need} digits,"
            " more than the 2^30 digit limit"
        )
    try:
        return stream.prefix(need)
    except StreamExhausted as exc:
        raise ValueError(
            f"{exc}; {count} orbit points of {w} bits need n + w - 1 = {need} digits"
        ) from None


def orbit_points(stream: DigitStream, n: int, w: int) -> PointSet:
    """First n orbit points of the stream's expansion, truncated to w bits.

    Point number m is the dyadic rational 0.z_m ... z_{m+w-1}; all points
    share the denominator 2^w. Requires w > log2(n) so that every
    admissible pattern length is covered by the truncation.
    """
    n = check_int(n, "n")
    w = _check_window(n, w)
    digits = _orbit_digits(stream, n, w) if n else BitSequence()
    nums = _window_numerators(digits.to_numpy(), n, w)
    return PointSet.from_dyadic(nums, w)


def count_via_orbit(stream: DigitStream, m: int, pattern: Pattern, w: int) -> int:
    """Occurrences of the pattern among the first m windows, counted as
    orbit points landing in the pattern's dyadic interval.

    Must agree with measure.count_occurrences on the same digits; the
    agreement is the bridge this module is built on.
    """
    m = check_int(m, "m", 1)
    w = check_int(w, "window bits w", 1, 64)
    if pattern.k > w:
        raise ValueError(f"pattern length {pattern.k} exceeds window bits {w}")
    digits = _orbit_digits(stream, m, w)
    nums = _window_numerators(digits.to_numpy(), m, w)
    top = nums >> np.uint64(w - pattern.k) if pattern.k < w else nums
    return int((top == np.uint64(pattern.value)).sum())


@dataclass(frozen=True)
class CheckpointResult:
    n: int
    normality: ExactValue
    phi: Fraction
    margin: Fraction  # phi - normality; >= 0 iff the checkpoint passes
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    stream_label: str
    window_bits: int
    checkpoints: tuple[CheckpointResult, ...]
    overall_pass: bool

    def to_json_dict(self) -> dict:
        return {
            "stream": self.stream_label,
            "window_bits": self.window_bits,
            "overall_pass": self.overall_pass,
            "checkpoints": [
                {
                    "n": c.n,
                    "normality": c.normality.json_fields(),
                    "phi": frac_dict(c.phi),
                    "margin": frac_dict(c.margin),
                    "pass": c.passed,
                }
                for c in self.checkpoints
            ],
        }


def default_checkpoints(n: int) -> list[int]:
    """Powers of two up to n, plus n itself."""
    n = check_int(n, "n", 1)
    cps = []
    p = 1
    while p <= n:
        cps.append(p)
        p <<= 1
    if cps[-1] != n:
        cps.append(n)
    return cps


def lemma1_verify(
    stream: DigitStream,
    n: int,
    w: int = 64,
    checkpoints: Optional[Sequence[int]] = None,
) -> VerificationReport:
    """Check normality(Z_m) <= Phi(m) at every checkpoint m.

    Phi(m) is the maximum of j * D_j over j <= m for the w-bit orbit
    prefix discrepancies. Every j * D_j has denominator 2^w, so
    phi_envelope returns the integers 2^w * Phi(m) at the checkpoints
    alone, evaluating only the prefixes whose Lipschitz bound can beat the
    running maximum. The digit prefix is shared by both sides, so the
    inequality is exact (no epsilon handling). Given checkpoints are sorted,
    deduplicated and passed to check_checkpoints before any digit is read.
    """
    n = check_int(n, "n", 1)
    w = _check_window(n, w)
    check_prefix_n(n)
    if checkpoints is None:
        cps = default_checkpoints(n)
    else:
        cps = check_checkpoints(sorted(set(checkpoints)), n)
    digits = _orbit_digits(stream, n, w)
    nums = _window_numerators(digits.to_numpy(), n, w)
    env = phi_envelope(nums, w, cps)

    def evaluate(m: int, scaled_phi: int) -> CheckpointResult:
        value = normality_value(digits.prefix(m))
        phi = Fraction(scaled_phi, 1 << w)
        margin = phi - value
        return CheckpointResult(
            n=m, normality=value, phi=phi, margin=margin, passed=margin >= 0
        )

    results = tuple(evaluate(m, e) for m, e in zip(cps, env))
    return VerificationReport(
        stream_label=stream.label,
        window_bits=w,
        checkpoints=results,
        overall_pass=all(c.passed for c in results),
    )
