"""Core value types: digit sequences as read-only uint8 arrays, k-digit patterns,
and ExactValue, the Fraction whose denominator is a power of two.

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

import codecs
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "ExactValue",
    "BitSequence",
    "Pattern",
    "check_int",
    "parse_bits",
    "decimal_str",
    "frac_dict",
    "read_ascii",
]


def check_int(value, name: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """value as a plain int in [lo, hi] (no upper end when hi is None).

    The one reader of integer arguments: only a value with __index__ is
    read, so a float or a str is refused rather than cast, and the result
    is a Python int even for a numpy integer or a bool, so no later shift
    or product wraps. Anything else raises ValueError naming the argument.
    """
    try:
        v = int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name}={value!r} is not an integer") from None
    if hi is None and v < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{name}={v} outside [{lo}, {hi}]")
    return v


def decimal_str(num: int, den: int) -> str:
    """Decimal rendering of num/den rounded to 17 significant digits."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    with localcontext() as ctx:
        ctx.prec = 17
        # Decimal(int) conversion is exact; only the division rounds.
        return str(Decimal(num) / Decimal(den))


def frac_dict(f: Fraction, prefix: str = "") -> dict:
    """JSON form of an exact rational: prefix + "num", "den" and "decimal"."""
    return {
        prefix + "num": f.numerator,
        prefix + "den": f.denominator,
        prefix + "decimal": decimal_str(f.numerator, f.denominator),
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

    Fraction's lowest terms are the canonical form (the numerator is odd, or
    zero, whenever log2_den > 0). Fraction supplies the exact comparisons,
    hashing and arithmetic (a difference or an abs() is a plain Fraction), but
    rebuilds a subclass as cls(numerator, denominator), reading the denominator
    as log2_den; so copy, pickle, from_float and from_decimal are redefined.
    log2_den is read by check_int. The numerator must have __index__: a
    float raises TypeError, as Fraction(1.5, 4) does, and is not cast.
    """

    __slots__ = ()

    def __new__(cls, num: int, log2_den: int = 0):
        den = 1 << check_int(log2_den, "log2_den")
        return super().__new__(cls, operator.index(num), den)

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

    @classmethod
    def from_float(cls, f: float) -> "ExactValue":
        return cls.from_fraction(Fraction.from_float(f))

    @classmethod
    def from_decimal(cls, dec: Decimal) -> "ExactValue":
        return cls.from_fraction(Fraction.from_decimal(dec))

    def as_fraction(self) -> Fraction:
        return Fraction(self)

    def decimal(self) -> str:
        return decimal_str(self.numerator, self.denominator)

    def json_fields(self, prefix: str = "") -> dict:
        """JSON form: prefix + "num", "log2_den" and "decimal", in that order."""
        keys = (prefix + "num", prefix + "log2_den", prefix + "decimal")
        return dict(zip(keys, (self.num, self.log2_den, self.decimal())))

    def __str__(self):
        return f"{self.num}/2^{self.log2_den}"

    def __repr__(self):
        return f"ExactValue({self.num}, {self.log2_den})"

    def __reduce__(self):
        return type(self), (self.num, self.log2_den)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__


class BitSequence:
    """Immutable finite binary sequence held as a read-only uint8 array.

    ``seq[i]`` is digit e_(i+1). The array is a read-only view of a
    read-only base, and numpy refuses to make such a view writeable again,
    so ``to_numpy()`` and ``prefix()`` hand it out without a copy.
    """

    __slots__ = ("_bits",)

    def __new__(cls, bits: Iterable[int] = ()):
        arr = np.array(bits if isinstance(bits, np.ndarray) else list(bits))
        if arr.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size and arr.dtype.kind not in "biu":  # [] reads as float64
            raise ValueError(f"bits must be integers, got {arr.dtype}")
        if ((arr != 0) & (arr != 1)).any():
            raise ValueError("bits must be 0 or 1")
        return cls._adopt(arr.astype(np.uint8, copy=False))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "BitSequence":
        """Hold, uncopied, a 0/1 uint8 array: one just made, or a view of one held."""
        arr.flags.writeable = False
        seq = object.__new__(cls)
        object.__setattr__(seq, "_bits", arr.view())
        return seq

    def __setattr__(self, name, value):
        raise AttributeError("BitSequence is immutable")

    @classmethod
    def from01(cls, text: str) -> "BitSequence":
        bad = set(text) - {"0", "1"}
        if bad:
            raise ValueError(f"invalid binary digit(s): {sorted(bad)}")
        return cls._adopt(np.frombuffer(text.encode(), np.uint8) - ord("0"))

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._bits.size:
            raise IndexError(f"index {i} outside [0, {self._bits.size})")
        return self._bits.item(i)

    def to_numpy(self) -> np.ndarray:
        """The digits as a read-only uint8 array (not a copy)."""
        return self._bits

    def to01(self) -> str:
        # no copy of the digits; a 256-entry map takes CPython's fast path
        return codecs.charmap_decode(self._bits, "strict", "01".ljust(256))[0]

    def prefix(self, m: int) -> "BitSequence":
        m = check_int(m, "prefix length m", 0, len(self))
        return BitSequence._adopt(self._bits[:m])

    def complement(self) -> "BitSequence":
        return BitSequence._adopt(self._bits ^ 1)

    def __eq__(self, other):
        if not isinstance(other, BitSequence):
            return NotImplemented
        return np.array_equal(self._bits, other._bits)

    def __hash__(self):
        return hash(self._bits.tobytes())

    def __reduce__(self):
        return BitSequence, (self._bits,)

    def __repr__(self):
        if len(self) <= 64:
            return f"BitSequence({self.to01()!r})"
        return f"BitSequence(<{len(self)} bits>)"


@dataclass(frozen=True)
class Pattern:
    """A block of k binary digits encoded MSB-first as an integer; k and
    value are read by check_int and stored as the ints read."""

    k: int
    value: int

    def __post_init__(self):
        k = check_int(self.k, "k", 1, 64)
        value = check_int(self.value, "value", 0, (1 << k) - 1)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "value", value)

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
    significant ("0" and "000" are different sequences); the digits, each
    one of 0-9, a-f or A-F, are expanded MSB-first and the first <length>
    bits are taken.
    """
    if text.startswith("hex:"):
        digits, slash, length_s = text[4:].rpartition("/")
        if not slash:
            raise ValueError("hex form must be hex:<digits>/<length>")
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
        if set(digits) - set("0123456789abcdefABCDEF"):
            raise ValueError(f"invalid hex digits {digits!r}")
        raw = np.frombuffer(bytes.fromhex(digits + "0" * (len(digits) & 1)), np.uint8)
        return BitSequence._adopt(np.unpackbits(raw, count=n))
    return BitSequence.from01(text)
