"""Core value types: packed bit sequences, fixed-length patterns, and
ExactValue, the Fraction subtype whose denominator is a power of two.

Conventions used throughout the package:

* Digit e_1 of a sequence (``seq[0]``) is the first-emitted / most
  significant digit, matching the positional binary expansion
  ``0.e1 e2 e3 ...``.
* A length-k pattern is encoded as the integer whose binary expansion,
  zero-padded to k digits, lists the pattern MSB-first.
* All value comparisons are exact: Fraction compares rationals by integer
  cross-multiplication, and no float is ever used on a decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ExactValue",
    "BitSequence",
    "Pattern",
    "parse_bits",
    "decimal_str",
    "frac_dict",
    "read_ascii",
]


def decimal_str(num: int, den: int) -> str:
    """Decimal rendering of num/den rounded to 17 significant digits."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    with localcontext() as ctx:
        ctx.prec = 17
        # Decimal(int) conversion is exact; only the division rounds.
        return str(Decimal(num) / Decimal(den))


def frac_dict(f: Fraction) -> dict:
    """JSON form of an exact rational: numerator, denominator and decimal."""
    return {
        "num": f.numerator,
        "den": f.denominator,
        "decimal": decimal_str(f.numerator, f.denominator),
    }


def read_ascii(path: str) -> str:
    """Text of an ASCII file; a non-ASCII byte is a ValueError naming the path."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: non-ASCII byte 0x{byte:02x}") from None


class ExactValue(Fraction):
    """The rational num / 2**log2_den: a Fraction with a power-of-two denominator.

    Fraction's lowest terms are the canonical form (the numerator is odd,
    or zero, whenever log2_den > 0), and Fraction supplies the exact
    comparisons, hashing and arithmetic; a difference or an abs() is a
    plain Fraction. Fraction rebuilds a subclass as cls(numerator,
    denominator), so copying and pickling are redefined here, and the
    inherited from_float and from_decimal do not apply.
    """

    __slots__ = ()

    def __new__(cls, num: int, log2_den: int = 0):
        if log2_den < 0:
            raise ValueError("log2_den must be >= 0")
        return super().__new__(cls, int(num), 1 << log2_den)

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def log2_den(self) -> int:
        return self.denominator.bit_length() - 1

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ExactValue":
        den = f.denominator
        if den & (den - 1):
            raise ValueError(f"{f} does not have a power-of-two denominator")
        return cls(f.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self)

    def decimal(self) -> str:
        return decimal_str(self.numerator, self.denominator)

    def __str__(self):
        return f"{self.num}/2^{self.log2_den}"

    def __repr__(self):
        return f"ExactValue({self.num}, {self.log2_den})"

    def __reduce__(self):
        return type(self), (self.num, self.log2_den)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class BitSequence:
    """Immutable finite binary sequence, bit-packed eight digits per byte.

    The first digit maps to the most significant bit of the first byte.
    ``seq[i]`` is digit e_(i+1).
    """

    __slots__ = ("_packed", "_n")

    def __init__(self, bits: Iterable[int] = ()):
        arr = np.asarray(list(bits), dtype=np.uint8)
        if arr.size and (arr > 1).any():
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_packed", np.packbits(arr).tobytes())
        object.__setattr__(self, "_n", int(arr.size))

    def __setattr__(self, name, value):
        raise AttributeError("BitSequence is immutable")

    @classmethod
    def _from_packed(cls, packed: bytes, n: int) -> "BitSequence":
        seq = cls.__new__(cls)
        object.__setattr__(seq, "_packed", packed)
        object.__setattr__(seq, "_n", n)
        return seq

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "BitSequence":
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        return cls._from_packed(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def from01(cls, text: str) -> "BitSequence":
        bad = set(text) - {"0", "1"}
        if bad:
            raise ValueError(f"invalid binary digit(s): {sorted(bad)}")
        arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        return cls.from_numpy(arr)

    # -- access --------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} outside [0, {self._n})")
        return (self._packed[i >> 3] >> (7 - (i & 7))) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_numpy().tolist())

    def to_numpy(self) -> np.ndarray:
        """Unpacked uint8 array of the digits (fresh copy)."""
        if self._n == 0:
            return np.zeros(0, dtype=np.uint8)
        raw = np.frombuffer(self._packed, dtype=np.uint8)
        return np.unpackbits(raw, count=self._n)

    def to01(self) -> str:
        return (self.to_numpy() + ord("0")).tobytes().decode("ascii")

    def prefix(self, m: int) -> "BitSequence":
        if not 0 <= m <= self._n:
            raise ValueError(f"prefix length {m} outside [0, {self._n}]")
        nbytes = (m + 7) >> 3
        raw = bytearray(self._packed[:nbytes])
        if m & 7 and nbytes:
            raw[-1] &= 0xFF << (8 - (m & 7)) & 0xFF
        return BitSequence._from_packed(bytes(raw), m)

    def complement(self) -> "BitSequence":
        raw = bytearray(b ^ 0xFF for b in self._packed)
        if self._n & 7 and raw:
            raw[-1] &= 0xFF << (8 - (self._n & 7)) & 0xFF
        return BitSequence._from_packed(bytes(raw), self._n)

    def __eq__(self, other):
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self._n == other._n and self._packed == other._packed

    def __hash__(self):
        return hash((self._n, self._packed))

    def __reduce__(self):
        return self._from_packed, (self._packed, self._n)

    def __repr__(self):
        if self._n <= 64:
            return f"BitSequence({self.to01()!r})"
        return f"BitSequence(<{self._n} bits>)"


@dataclass(frozen=True)
class Pattern:
    """A block of k binary digits encoded MSB-first as an integer."""

    k: int
    value: int

    def __post_init__(self):
        if not 1 <= self.k <= 64:
            raise ValueError(f"pattern length {self.k} outside [1, 64]")
        if not 0 <= self.value < (1 << self.k):
            raise ValueError(f"pattern value {self.value} outside [0, 2^{self.k})")

    @classmethod
    def from01(cls, text: str) -> "Pattern":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"invalid pattern string {text!r}")
        return cls(len(text), int(text, 2))

    def __str__(self):
        return format(self.value, f"0{self.k}b")


def parse_bits(text: str) -> BitSequence:
    """Parse a bit string, either plain ASCII over {0,1} or "hex:<digits>/<length>".

    The hex form carries an explicit bit count because leading zeros are
    significant ("0" and "000" are different sequences); the hex digits are
    expanded MSB-first and the first <length> bits are taken.
    """
    if text.startswith("hex:"):
        body = text[4:]
        if "/" not in body:
            raise ValueError("hex form must be hex:<digits>/<length>")
        digits, _, length_s = body.rpartition("/")
        try:
            n = int(length_s)
        except ValueError:
            raise ValueError(f"invalid bit length {length_s!r}") from None
        if n < 0:
            raise ValueError("bit length must be >= 0")
        if n > 4 * len(digits):
            raise ValueError(
                f"bit length {n} exceeds the {4 * len(digits)} bits available"
            )
        try:
            value = int(digits, 16) if digits else 0
        except ValueError:
            raise ValueError(f"invalid hex digits {digits!r}") from None
        total = 4 * len(digits)
        arr = np.array(
            [(value >> (total - 1 - i)) & 1 for i in range(n)], dtype=np.uint8
        )
        return BitSequence.from_numpy(arr)
    return BitSequence.from01(text)
