"""Exact dense matrices over Q or a prime field.

Everything here is exact.  The product skips zero entries, so its cost
follows the nonzeros: the block matrices of black-box recovery are
mostly zero.  One fraction-free elimination core
(`Matrix._reduce`, Bareiss-style Gauss-Jordan on Python ints over Q)
answers `rank`, `det`, `nullspace`, `inverse` and `pivot_cols`, the
columns independent of those before them, and the characteristic
polynomial, whose coefficients are sums of principal minors, each a
`det` (dimensions are capped at 8, per the callers' needs).
`rational_roots` tests its candidates on the primitive integer
polynomial and bounds its trial divisions by ROOTS_MAX_TRIALS.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from ncfactor.errors import BudgetExceededError
from ncfactor.fields import QQ, RationalField

CHARPOLY_MAX_DIM = 8
ROOTS_MAX_DEGREE = 4
# Trial divisions per coefficient in `rational_roots`: |a| up to 10^14.
ROOTS_MAX_TRIALS = 10 ** 7


class Matrix:
    """Immutable dense matrix with exact field entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        return cls(field, [[c[i] for c in cols] for i in range(len(cols[0]))])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return "Matrix[%s]" % body

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(self.field, [[a + b if b else a for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-self.field.one)

    def __neg__(self):
        return self.scale(-self.field.one)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # Row k of `other` as its nonzero (j, b_kj); each nonzero a_ik adds
        # a_ik * b_kj into output row i.
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        zero = self.field.zero
        out = []
        for r in self.rows:
            acc = [None] * other.ncols
            for a, brow in zip(r, sparse):
                if a:
                    for j, b in brow:
                        s = acc[j]
                        acc[j] = a * b if s is None else s + a * b
            out.append([zero if s is None else s for s in acc])
        return Matrix(self.field, out)

    def scale(self, c):
        return Matrix(self.field, [[c * x if x else x for x in r] for r in self.rows])

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def is_zero(self):
        return not any(map(any, self.rows))

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows)

    def submatrix(self, row_idx, col_idx):
        return Matrix(self.field, [[self.rows[i][j] for j in col_idx] for i in row_idx])

    # -- elimination-based queries ------------------------------------

    def _reduce(self):
        """The one elimination core: fraction-free Gauss-Jordan reduction.

        Returns (rows, pivot columns, d, sign, scale).  Bareiss (1968)
        elimination, applied above as well as below each pivot.  Over Q
        each row is first multiplied by the lcm of its denominators
        (`scale` is the product of these factors), so the loop runs on
        Python ints and every division by the previous pivot is exact
        (`//`); over F_p the same loop divides with the field's `/`.

        On return each pivot row holds d, the last pivot, in its own
        pivot column and zero in every other pivot column; rows past the
        rank are zero.  For a nonsingular square matrix
        det = sign * d / scale.  d is a field element, so x / d is the
        exact field quotient of any entry x.
        """
        field = self.field
        if isinstance(field, RationalField):
            rows, scale = [], 1
            for r in self.rows:
                s = lcm(*(x.denominator for x in r))
                rows.append([x.numerator * (s // x.denominator) for x in r])
                scale *= s
            zero, prev, div = 0, 1, operator.floordiv
        else:
            rows = [list(r) for r in self.rows]
            zero, prev, scale, div = field.zero, field.one, field.one, operator.truediv
        pivots = []
        sign = 1
        top = 0
        for col in range(self.ncols):
            if top == len(rows):
                break
            pivot_row = next((i for i in range(top, len(rows)) if rows[i][col] != zero), None)
            if pivot_row is None:
                continue
            if pivot_row != top:
                rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
                sign = -sign
            prow = rows[top]
            pivot = prow[col]
            for i, r in enumerate(rows):
                if i != top:
                    head = r[col]
                    rows[i] = [div(pivot * a - head * b, prev) for a, b in zip(r, prow)]
            pivots.append(col)
            prev = pivot
            top += 1
        return rows, pivots, field.one * prev, sign, scale

    def rank(self):
        return len(self._reduce()[1])

    def pivot_cols(self):
        """Indices of the columns independent of the columns before them."""
        return self._reduce()[1]

    def det(self):
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        _rows, pivots, d, sign, scale = self._reduce()
        if len(pivots) < self.nrows:
            return self.field.zero
        return sign * d / scale

    def nullspace(self):
        """Basis of the right nullspace; [] when the kernel is trivial.

        One vector per free column: that variable 1, the other free
        variables 0, read from the reduced form."""
        rows, pivots, d, _sign, _scale = self._reduce()
        zero, one = self.field.zero, self.field.one
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v = [zero] * self.ncols
            v[fc] = one
            for k, pc in enumerate(pivots):
                v[pc] = -rows[k][fc] / d
            basis.append(tuple(v))
        return basis

    def inverse(self):
        """Exact inverse, or None when singular: [M | I] reduced to [dI | d*M^-1]."""
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows, pivots, d, _sign, _scale = self.hstack(Matrix.identity(self.field, n))._reduce()
        if pivots[n - 1] != n - 1:
            return None
        return Matrix(self.field, [[x / d for x in r[n:]] for r in rows])

    def charpoly(self):
        """Coefficients of det(tI - M), ascending, monic; dimension <= 8.

        The coefficient of t^(n-k) is (-1)^k times the sum of the k x k
        principal minors, each a `det`."""
        if not self.is_square:
            raise ValueError("characteristic polynomial of non-square matrix")
        n = self.nrows
        if n > CHARPOLY_MAX_DIM:
            raise ValueError("charpoly capped at dimension %d" % CHARPOLY_MAX_DIM)
        coeffs = [self.field.one]
        for k in range(1, n + 1):
            total = self.field.zero
            for idx in combinations(range(n), k):
                total = total + self.submatrix(idx, idx).det()
            coeffs.append(-total if k % 2 else total)
        return tuple(reversed(coeffs))


# -- univariate polynomial helpers (coefficient lists, ascending) -----

def upoly_trim(p, field):
    p = list(p)
    while len(p) > 1 and p[-1] == field.zero:
        p.pop()
    return tuple(p)


def upoly_eval(p, x):
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def rational_roots(coeffs):
    """Rational roots (with multiplicity) of a nonzero rational polynomial.

    Uses the rational-root theorem on the primitive integer form: each
    candidate num/den (coprime) is tested by Horner on that form, as
    den^deg * p(num/den), and the multiplicity of each root is found by
    exact deflation.  Degree is capped at 4.
    Returns a sorted list of (root, multiplicity) pairs.  Raises
    BudgetExceededError when listing the divisors of the constant or the
    leading coefficient takes more than ROOTS_MAX_TRIALS trial divisions.
    """
    p = upoly_trim(coeffs, QQ)
    if len(p) == 1 and p[0] == 0:
        raise ValueError("rational_roots of the zero polynomial")
    if len(p) - 1 > ROOTS_MAX_DEGREE:
        raise ValueError("rational_roots capped at degree %d" % ROOTS_MAX_DEGREE)
    roots = {}
    # strip powers of t: root 0
    zero_mult = 0
    while p[0] == 0 and len(p) > 1:
        zero_mult += 1
        p = p[1:]
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    if len(p) > 1:
        scale = lcm(*(c.denominator for c in p))
        ints = [int(c * scale) for c in p]
        content = gcd(*ints)
        ints = [c // content for c in ints]
        a0, alead = abs(ints[0]), abs(ints[-1])
        dens = _divisors(alead)
        cands = [(sign * num, den) for num in _divisors(a0) for den in dens
                 if gcd(num, den) == 1 for sign in (1, -1)]
        for num, den in cands:
            # den^deg * p(num/den) by Horner on the integer form
            acc, dpow = ints[-1], 1
            for c in reversed(ints[:-1]):
                dpow *= den
                acc = acc * num + c * dpow
            if acc == 0:
                r = Fraction(num, den)
                mult = 0
                q = p
                while len(q) > 1 and upoly_eval(q, r) == 0:
                    q = _deflate(q, r)
                    mult += 1
                roots[r] = mult
    return sorted(roots.items())


def _divisors(n):
    """Divisors of |n| by trial division up to its square root; more than
    ROOTS_MAX_TRIALS trials raise BudgetExceededError."""
    n = abs(n)
    root = isqrt(n)
    if root > ROOTS_MAX_TRIALS:
        raise BudgetExceededError("rational-root search needs %d trial divisions, limit %d"
                                  % (root, ROOTS_MAX_TRIALS))
    out = set()
    for d in range(1, root + 1):
        if n % d == 0:
            out.update((d, n // d))
    return sorted(out)


def _deflate(p, r):
    """Divide p by (t - r); the remainder must vanish."""
    n = len(p) - 1
    q = [Fraction(0)] * n
    q[n - 1] = p[n]
    for i in range(n - 1, 0, -1):
        q[i - 1] = p[i] + r * q[i]
    assert p[0] + r * q[0] == 0, "deflation by a non-root"
    return upoly_trim(q, QQ)
