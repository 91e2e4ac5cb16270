"""Exact field arithmetic: arbitrary-precision rationals and small prime fields.

Field elements are plain Python numbers: `fractions.Fraction` over Q,
and over F_p an int in [0, p), the residue itself.  A field object
(`RationalField` or `PrimeField`) constructs, parses and formats
elements; code that computes over F_p reduces mod p itself (`NcPoly`,
`Matrix`, the factor oracle), and every operation is exact, nothing is
ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

from ncfactor.errors import FormatError

MAX_PRIME = 1 << 31


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeFieldElement:
    """Residue mod p with exact arithmetic, as an object.

    The package represents F_p elements as plain ints and never builds
    one of these.  The class stays as an arithmetic that does not share
    the package's code: the tests compute their F_p references with it,
    and the benchmark's tracer counts its objects and operations."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _check(self, other):
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields: F%d vs F%d" % (self.p, other.p))
            return other
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F%d" % self.p)
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("zero has no inverse in F%d" % self.p)
        return PrimeFieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "PrimeFieldElement(%d, %d)" % (self.value, self.p)

    def __str__(self):
        return str(self.value)


class RationalField:
    """The field Q, of characteristic 0; elements are `fractions.Fraction`
    (always canonical)."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def parse(self, text):
        """A rational literal as `Fraction(text)` reads it.  A plain integer
        is read with `int`, which accepts it as Fraction does and gives
        the same value, without Fraction's pattern match."""
        try:
            return Fraction(int(text))
        except ValueError:
            pass
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError("bad rational literal %r" % text) from exc

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p < 2^31, its characteristic; elements
    are the ints 0..p-1."""

    def __init__(self, p):
        if p >= MAX_PRIME or not _is_prime(p):
            raise ValueError("prime field modulus must be a prime below 2^31, got %r" % p)
        self.p = self.characteristic = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1

    def from_int(self, k):
        return k % self.p

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise FormatError("bad F%d literal %r" % (self.p, text)) from exc

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)


def field_spec(field):
    """Header token for a field: Q, F2, F3, or Fp:<p>."""
    if isinstance(field, RationalField):
        return "Q"
    if field.p in (2, 3):
        return "F%d" % field.p
    return "Fp:%d" % field.p


def parse_field(spec):
    """Inverse of field_spec."""
    if spec == "Q":
        return QQ
    if spec.startswith("F"):
        return PrimeField(int(spec[3:] if spec.startswith("Fp:") else spec[1:]))
    raise FormatError("bad field spec %r" % spec)
