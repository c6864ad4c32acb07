"""Deterministic binary digit sources.

Four kinds are supported:

* ``champernowne`` - the base-2 Champernowne expansion 1|10|11|100|...
* ``rational:p/q`` - binary digits of p/q by long division (0 <= p < q)
* ``random:SEED``  - splitmix64 keystream bits, SEED in [0, 2^64) (see below)
* ``file:PATH``    - bit-text file: {0,1} digits (whitespace ignored) or
  one ``hex:<digits>/<length>`` form

Seeded randomness uses splitmix64 (Steele, Lea & Flood's SplittableRandom
finalizer), never the platform RNG: the i-th 64-bit output for seed s is
mix64(s + (i+1)*0x9E3779B97F4A7C15) with all arithmetic mod 2^64, and bits
are emitted MSB-first from consecutive outputs. Identical (seed, length)
yields identical digits on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bitcore import BitSequence, check_int, parse_bits, read_ascii

__all__ = [
    "RANDOM_ALGORITHM",
    "champernowne_bits",
    "rational_bits",
    "random_bits",
    "file_bits",
    "StreamExhausted",
    "splitmix64_outputs",
    "sample_seed",
    "GeneratorSpec",
    "DigitStream",
]

RANDOM_ALGORITHM = "splitmix64"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
MAX_SEED = (1 << 64) - 1


def splitmix64_outputs(seed: int, count: int) -> np.ndarray:
    """First `count` 64-bit splitmix64 outputs for a seed in [0, MAX_SEED];
    check_int reads both."""
    seed = check_int(seed, "seed", 0, MAX_SEED)
    count = check_int(count, "count")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def sample_seed(seed: int, index: int) -> int:
    """Derived per-sample seed: splitmix64 output number `index` of `seed`."""
    index = check_int(index, "index")
    return int(splitmix64_outputs(seed, index + 1)[index])


def random_bits(seed: int, n: int) -> BitSequence:
    """n keystream bits from splitmix64, MSB-first within each 64-bit output."""
    n = check_int(n, "n")
    words = splitmix64_outputs(seed, (n + 63) // 64)
    raw = words.astype(">u8").view(np.uint8)
    bits = np.unpackbits(raw, count=n) if n else np.zeros(0, dtype=np.uint8)
    return BitSequence._adopt(bits)


def champernowne_bits(n: int) -> BitSequence:
    """First n digits of the concatenation 1, 10, 11, 100, 101, ... in binary.

    Each bit length's integers fill a (count, length) block, one column per
    bit; digit n lies in an integer <= n, so n + n.bit_length() holds it.
    """
    n = check_int(n, "n")
    out = np.empty(n + n.bit_length(), dtype=np.uint8)
    pos, length = 0, 1
    while pos < n:
        first = 1 << (length - 1)
        count = min(first, -(-(n - pos) // length))
        ints = np.arange(first, first + count, dtype=np.int64)
        block = out[pos : pos + count * length].reshape(count, length)
        for j in range(length):
            block[:, j] = (ints >> (length - 1 - j)) & 1
        pos += count * length
        length += 1
    return BitSequence._adopt(out[:n])


def rational_bits(p: int, q: int, n: int) -> BitSequence:
    """First n binary digits of p/q via long division; eventually periodic."""
    q = check_int(q, "q", 1)
    p = check_int(p, "p", 0, q - 1)
    n = check_int(n, "n")
    out = bytearray(n)
    r = p
    for i in range(n):
        r <<= 1
        if r >= q:
            out[i] = 1
            r -= q
    return BitSequence._adopt(np.frombuffer(bytes(out), dtype=np.uint8))


class StreamExhausted(ValueError):
    """A digit source holds fewer digits than were asked for."""


def file_bits(path: str, n: Optional[int] = None) -> BitSequence:
    """First n digits (all when n is None) of a bit-text file.

    The text, with all whitespace removed, is read by parse_bits: {0,1}
    digits or one "hex:<digits>/<length>" form.
    """
    text = "".join(read_ascii(path).split())
    try:
        seq = parse_bits(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n is None:
        return seq
    n = check_int(n, "n")
    if len(seq) < n:
        raise StreamExhausted(f"{path}: stream exhausted ({len(seq)} < {n} digits)")
    return seq.prefix(n)


class DigitStream:
    """Reproducible digit source: two reads of the same stream agree.

    `produce(n)` must return the first n digits; producers are pure
    functions of their spec, so prefix coherence holds by construction.
    """

    def __init__(self, label: str, produce: Callable[[int], BitSequence]):
        self.label = label
        self._produce = produce

    def prefix(self, n: int) -> BitSequence:
        return self._produce(n)


@dataclass(frozen=True)
class GeneratorSpec:
    """Fully determines a digit stream (same spec => same digits). A kind
    takes exactly its own fields (_FIELDS); any other field set is a
    ValueError. check_int reads p (>= 0), q (>= 1) and seed (in [0,
    MAX_SEED]), which are stored as the ints read; p < q is checked by
    rational_bits.
    """

    kind: str
    p: Optional[int] = None
    q: Optional[int] = None
    seed: Optional[int] = None
    path: Optional[str] = None

    _FIELDS = {
        "champernowne": (),
        "rational": ("p", "q"),
        "random": ("seed",),
        "file": ("path",),
    }

    def __post_init__(self):
        if self.kind not in self._FIELDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        want = self._FIELDS[self.kind]
        given = [f for f in ("p", "q", "seed", "path") if getattr(self, f) is not None]
        if tuple(given) != want:
            raise ValueError(f"{self.kind} takes exactly the fields {list(want)}")
        for f, lo, hi in (("p", 0, None), ("q", 1, None), ("seed", 0, MAX_SEED)):
            if getattr(self, f) is not None:
                object.__setattr__(self, f, check_int(getattr(self, f), f, lo, hi))

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        """Parse the CLI form: champernowne | rational:p/q | random:SEED | file:PATH."""
        kind, sep, arg = text.partition(":")
        if kind == "champernowne":
            if sep:
                raise ValueError("champernowne takes no parameters")
            return cls(kind="champernowne")
        if kind == "rational":
            num, slash, den = arg.partition("/")
            if not slash:
                raise ValueError(f"rational spec must be rational:p/q, got {text!r}")
            try:
                return cls(kind="rational", p=int(num), q=int(den))
            except ValueError:
                raise ValueError(f"invalid rational spec {text!r}") from None
        if kind == "random":
            try:
                return cls(kind="random", seed=int(arg))
            except ValueError:
                raise ValueError(f"invalid random seed {arg!r}") from None
        if kind == "file":
            if not arg:
                raise ValueError("file spec must be file:PATH")
            return cls(kind="file", path=arg)
        raise ValueError(f"unknown generator spec {text!r}")

    def label(self) -> str:
        if self.kind == "champernowne":
            return "champernowne"
        if self.kind == "rational":
            return f"rational:{self.p}/{self.q}"
        if self.kind == "random":
            return f"random:{self.seed} ({RANDOM_ALGORITHM})"
        return f"file:{self.path}"

    def bits(self, n: int) -> BitSequence:
        if self.kind == "champernowne":
            return champernowne_bits(n)
        if self.kind == "rational":
            return rational_bits(self.p, self.q, n)
        if self.kind == "random":
            return random_bits(self.seed, n)
        return file_bits(self.path, n)

    def stream(self) -> DigitStream:
        return DigitStream(self.label(), self.bits)
