"""Exact dense matrices over Q or a prime field, on integer rows.

A `Matrix` holds its entries as integer rows `nums` over one positive
denominator `den`: entry (i, j) is nums[i][j] / den.  Over Q the pair is
normalized, gcd(den, every num) = 1, so equal matrices have equal
(nums, den); over F_p the nums are residues in [0, p) and den = 1.
Sums, products, scaling, stacking, block placement, slicing, equality
and hashing run on Python ints and normalize once per result (no gcd
when den = 1).  Field elements (`Fraction`, `PrimeFieldElement`) are
built only when `.rows`, `m[i]` or `col(j)` is read.

The product skips zero entries, so its cost follows the nonzeros: the
block matrices of black-box recovery are mostly zero.  One
fraction-free elimination core (`Matrix._reduce`, Bareiss-style
Gauss-Jordan on the integer rows) answers `rank`, `det`, `nullspace`,
`inverse` and `pivot_cols`, the columns independent of those before
them.  The characteristic polynomial comes from Berkowitz's
division-free recursion on `nums`; coefficient k is then divided by
den^k (dimensions are capped at 8, per the callers' needs).
`rational_roots` tests its candidates on the primitive integer
polynomial and bounds its trial divisions by ROOTS_MAX_TRIALS.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

from ncfactor.errors import BudgetExceededError
from ncfactor.fields import QQ, PrimeFieldElement

CHARPOLY_MAX_DIM = 8
ROOTS_MAX_DEGREE = 4
# Trial divisions per coefficient in `rational_roots`: |a| up to 10^14.
ROOTS_MAX_TRIALS = 10 ** 7


def _check_shape(nums):
    """ValueError unless the rows form a nonempty rectangle."""
    if not nums or not nums[0]:
        raise ValueError("matrix must have at least one row and column")
    width = len(nums[0])
    if any(len(r) != width for r in nums):
        raise ValueError("ragged rows")


def _raw(field, nums, den=1):
    """The Matrix nums / den, given in normal form as a tuple of int tuples."""
    m = object.__new__(Matrix)
    m.field, m.nums, m.den = field, nums, den
    return m


def _normal(field, nums, den=1):
    """The Matrix nums / den (int rows, den > 0) in normal form: over Q
    gcd(den, nums) divided out, over F_p the nums reduced mod p (den = 1)."""
    p = field.characteristic
    if p:
        return _raw(field, tuple(tuple(x % p for x in r) for r in nums))
    if den != 1:
        g = gcd(den, *chain.from_iterable(nums))
        if g != 1:
            return _raw(field, tuple(tuple(x // g for x in r) for r in nums), den // g)
    return _raw(field, tuple(map(tuple, nums)), den)


def _element(p, num, den=1):
    """The element num / den of Q (p = 0) or of F_p (den = 1)."""
    if p:
        return PrimeFieldElement(num, p)
    return Fraction(num, den)


class Matrix:
    """Immutable dense matrix over Q or F_p: int rows `nums` over one
    positive denominator `den`, normalized as the module docstring says.

    `Matrix(field, rows)` takes field elements; `.rows`, `m[i]` and
    `col(j)` build them back on demand.  `from_nums` takes int rows and
    a denominator, and `from_blocks` writes matrices as blocks of a
    larger one without leaving the ints."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        _check_shape(rows)
        p = field.characteristic
        if p:
            self.nums = tuple(tuple(x.value if type(x) is PrimeFieldElement else x % p
                                    for x in r) for r in rows)
            self.den = 1
        else:
            # gcd(den, nums) = 1 already: den is the lcm of reduced denominators
            den = lcm(*(x.denominator for r in rows for x in r))
            self.nums = tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                              for r in rows)
            self.den = den
        self.field = field

    @classmethod
    def from_nums(cls, field, nums, den=1):
        """The matrix with entries nums[i][j] / den: a rectangle of int
        rows, den > 0 (den = 1 over F_p); normalized here."""
        _check_shape(nums)
        if den <= 0 or (den != 1 and field.characteristic):
            raise ValueError("denominator must be positive, and 1 over F_p")
        return _normal(field, nums, den)

    @classmethod
    def from_ints(cls, field, rows):
        return cls.from_nums(field, [list(r) for r in rows])

    @classmethod
    def identity(cls, field, n):
        return cls.from_nums(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls.from_nums(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_blocks(cls, field, nrows, ncols, blocks):
        """The nrows x ncols matrix that is zero outside the blocks, each
        (row0, col0, block) written at (row0, col0), a later block over
        an earlier one."""
        den = lcm(*(b.den for _r, _c, b in blocks))
        rows = [[0] * ncols for _ in range(nrows)]
        for row0, col0, b in blocks:
            if row0 + b.nrows > nrows or col0 + b.ncols > ncols:
                raise ValueError("block outside the matrix")
            f = den // b.den
            for i, r in enumerate(b.nums):
                rows[row0 + i][col0:col0 + len(r)] = r if f == 1 else [x * f for x in r]
        return cls.from_nums(field, rows, den)

    @classmethod
    def from_cols(cls, field, cols):
        return cls(field, zip(*cols))

    @property
    def nrows(self):
        return len(self.nums)

    @property
    def ncols(self):
        return len(self.nums[0])

    @property
    def is_square(self):
        return len(self.nums) == len(self.nums[0])

    def _row(self, r):
        p = self.field.characteristic
        if p:
            return tuple(PrimeFieldElement(x, p) for x in r)
        den = self.den
        return tuple(Fraction(x, den) for x in r)

    @property
    def rows(self):
        """The entries as a tuple of rows of field elements."""
        return tuple(map(self._row, self.nums))

    def __getitem__(self, i):
        return self._row(self.nums[i])

    def col(self, j):
        return self._row([r[j] for r in self.nums])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.den, self.nums))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return "Matrix[%s]" % body

    def _combine(self, other, sign):
        """self + sign * other."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in matrix addition")
        den, a, b = self._common(other)
        return _normal(self.field, [[x + sign * y for x, y in zip(r, s)]
                                    for r, s in zip(a, b)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = self.field.characteristic
        return _raw(self.field, tuple(tuple(-x % p if p else -x for x in r)
                                      for r in self.nums), self.den)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # Row k of `other` as its nonzero (j, b_kj); each nonzero a_ik adds
        # a_ik * b_kj into output row i.
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other.nums]
        ncols = len(other.nums[0])
        out = []
        for r in self.nums:
            acc = [0] * ncols
            for a, brow in zip(r, sparse):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(acc)
        return _normal(self.field, out, self.den * other.den)

    def scale(self, c):
        if type(c) is PrimeFieldElement:
            c = c.value
        cn = c.numerator
        return _normal(self.field, [[cn * x for x in r] for r in self.nums],
                       self.den * c.denominator)

    def transpose(self):
        return _raw(self.field, tuple(zip(*self.nums)), self.den)

    def is_zero(self):
        return not any(map(any, self.nums))

    def _common(self, other):
        """(den, self.nums, other.nums) with both sets of rows over den, the
        lcm of the two denominators."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a = self.nums if fa == 1 else [[x * fa for x in r] for r in self.nums]
        b = other.nums if fb == 1 else [[x * fb for x in r] for r in other.nums]
        return den, a, b

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        den, a, b = self._common(other)
        return _normal(self.field, [tuple(r1) + tuple(r2) for r1, r2 in zip(a, b)], den)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        den, a, b = self._common(other)
        return _normal(self.field, list(a) + list(b), den)

    def submatrix(self, row_idx, col_idx):
        nums = self.nums
        return _normal(self.field, [[nums[i][j] for j in col_idx] for i in row_idx],
                       self.den)

    # -- elimination-based queries ------------------------------------

    def _reduce(self, rows=None):
        """The one elimination core: fraction-free Gauss-Jordan reduction
        of int rows, `self.nums` unless given.

        Returns (rows, pivot columns, d, sign).  Bareiss (1968)
        elimination, applied above as well as below each pivot, so every
        division by the previous pivot is exact: `//` over Q, times its
        inverse mod p over F_p.

        On return each pivot row holds d, the last pivot, in its own
        pivot column and zero in every other pivot column; rows past the
        rank are zero.  For a nonsingular square matrix of int rows N,
        det N = sign * d (mod p over F_p).
        """
        p = self.field.characteristic
        rows = [list(r) for r in (self.nums if rows is None else rows)]
        pivots = []
        sign = prev = 1
        top = 0
        for col in range(len(rows[0])):
            if top == len(rows):
                break
            pivot_row = next((i for i in range(top, len(rows)) if rows[i][col]), None)
            if pivot_row is None:
                continue
            if pivot_row != top:
                rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
                sign = -sign
            prow = rows[top]
            pivot = prow[col]
            inv = pow(prev, -1, p) if p else None
            for i, r in enumerate(rows):
                if i != top:
                    head = r[col]
                    if p:
                        rows[i] = [(pivot * a - head * b) * inv % p for a, b in zip(r, prow)]
                    else:
                        rows[i] = [(pivot * a - head * b) // prev for a, b in zip(r, prow)]
            pivots.append(col)
            prev = pivot
            top += 1
        return rows, pivots, prev, sign

    def rank(self):
        return len(self._reduce()[1])

    def pivot_cols(self):
        """Indices of the columns independent of the columns before them."""
        return self._reduce()[1]

    def det(self):
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        _rows, pivots, d, sign = self._reduce()
        if len(pivots) < self.nrows:
            return self.field.zero
        return _element(self.field.characteristic, sign * d, self.den ** self.nrows)

    def nullspace(self):
        """Basis of the right nullspace; [] when the kernel is trivial.

        One vector per free column: that variable 1, the other free
        variables 0, read from the reduced form."""
        rows, pivots, d, _sign = self._reduce()
        field = self.field
        p = field.characteristic
        # x / d, over F_p as x times the inverse of d
        num, den = (pow(d, -1, p), 1) if p else (1, d)
        zero, one = field.zero, field.one
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v = [zero] * self.ncols
            v[fc] = one
            for k, pc in enumerate(pivots):
                v[pc] = _element(p, -rows[k][fc] * num, den)
            basis.append(tuple(v))
        return basis

    def inverse(self):
        """Exact inverse, or None when singular.  With M = N / den, the int
        rows [N | I] reduce to [dI | d*N^-1], and M^-1 = den * N^-1."""
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows, pivots, d, _sign = self._reduce(
            [r + tuple(int(i == j) for j in range(n)) for i, r in enumerate(self.nums)])
        if pivots[n - 1] != n - 1:
            return None
        # over F_p times the inverse of d; over Q den / d, sign in the nums
        p = self.field.characteristic
        f, den = (pow(d, -1, p), 1) if p else (self.den if d > 0 else -self.den, abs(d))
        return _normal(self.field, [[x * f for x in r[n:]] for r in rows], den)

    def charpoly(self):
        """Coefficients of det(tI - M), ascending, monic; dimension <= 8.

        Berkowitz (1984) on the int rows N of M = N / den: the charpoly
        of each leading principal submatrix is a lower-triangular
        Toeplitz matrix times that of the one before it, whose first
        column is 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C (A the
        block before row and column r, R and C its borders).  The
        coefficient of t^(n-k) for N is then divided by den^k."""
        if not self.is_square:
            raise ValueError("characteristic polynomial of non-square matrix")
        n = self.nrows
        if n > CHARPOLY_MAX_DIM:
            raise ValueError("charpoly capped at dimension %d" % CHARPOLY_MAX_DIM)
        a, p = self.nums, self.field.characteristic
        vec = [1]  # descending coefficients of the charpoly of the r x r block
        for r in range(n):
            block = [row[:r] for row in a[:r]]
            border = a[r][:r]
            toeplitz = [1, -a[r][r]]
            v = [row[r] for row in a[:r]]
            for k in range(r):
                if k:
                    v = [sum(map(mul, row, v)) for row in block]
                toeplitz.append(-sum(map(mul, border, v)))
            vec = [sum(toeplitz[i - j] * vec[j] for j in range(min(i, r) + 1))
                   for i in range(r + 2)]
            if p:
                vec = [x % p for x in vec]
        den = self.den
        return tuple(_element(p, vec[n - i], den ** (n - i))
                     for i in range(n + 1))


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
