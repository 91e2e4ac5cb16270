"""Exact dense matrices over Q or a prime field, on integer rows.

A `Matrix` holds its entries as integer rows `nums` over one positive
denominator `den`: entry (i, j) is nums[i][j] / den.  Over Q the pair is
normalized, gcd(den, every num) = 1, so equal matrices have equal
(nums, den); over F_p the nums are residues in [0, p) and den = 1.
Sums, products, scaling, stacking, block placement, slicing, equality
and hashing run on Python ints and normalize once per result (no gcd
when den = 1).  Over F_p an element is its residue, so `.rows`, `m[i]`
and `col(j)` hand out the nums themselves; over Q they build the
`Fraction`s when read.

The product skips zero entries, so its cost follows the nonzeros: the
block matrices of black-box recovery are mostly zero.  One
fraction-free elimination core (`_reduce`, Bareiss-style Gauss-Jordan
on integer rows) answers `rank`, `det`, `nullspace`, `inverse` and
`pivot_cols`, the columns independent of those before them, and, for
callers that work on int vectors without building a `Matrix`,
`independent` and `int_kernel`.  The characteristic polynomial comes from Berkowitz's
division-free recursion on `nums` (`int_charpoly`); coefficient k is
then divided by den^(n-k) (dimensions are capped at 8, per the callers'
needs).  `integer_roots` finds the integer roots of a monic integer
polynomial by Hensel lifting, in time polynomial in the bit size, so the
rational eigenvalues of M = N / den are r / den for the integer roots r
of N's charpoly; `rational_roots` maps any rational polynomial to that
case, and `cubic_integer_root` finds an integer root of a monic cubic
by bisection, independently of the Hensel lifting.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm
from operator import mul

CHARPOLY_MAX_DIM = 8
ROOTS_MAX_DEGREE = 4
# `integer_roots` tries f itself at this many primes before its square-free part
SIMPLE_ROOT_PRIMES = 4


def _check_shape(nums):
    """ValueError unless the rows form a nonempty rectangle."""
    if not nums or not nums[0]:
        raise ValueError("matrix must have at least one row and column")
    if len(set(map(len, nums))) != 1:
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
    return num % p if p else Fraction(num, den)


class Matrix:
    """Immutable dense matrix over Q or F_p: int rows `nums` over one
    positive denominator `den`, normalized as the module docstring says.

    `Matrix(field, rows)` takes field elements (over F_p any ints,
    reduced here); `.rows`, `m[i]` and `col(j)` give them back.
    `from_nums` takes int rows and a denominator, and `from_blocks`
    writes matrices as blocks of a larger one without leaving the ints."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        _check_shape(rows)
        p = field.characteristic
        if p:
            self.nums = tuple(tuple(x % p for x in r) for r in rows)
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
        if self.field.characteristic:
            return tuple(r)
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

    def rank(self):
        return len(_reduce(self.nums, self.field.characteristic)[1])

    def pivot_cols(self):
        """Indices of the columns independent of the columns before them."""
        return _reduce(self.nums, self.field.characteristic)[1]

    def det(self):
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        _rows, pivots, d, sign = _reduce(self.nums, self.field.characteristic)
        if len(pivots) < self.nrows:
            return self.field.zero
        return _element(self.field.characteristic, sign * d, self.den ** self.nrows)

    def nullspace(self):
        """Basis of the right nullspace; [] when the kernel is trivial.

        One vector per free column: that variable 1, the other free
        variables 0, read from the reduced form."""
        field = self.field
        p = field.characteristic
        rows, pivots, d, _sign = _reduce(self.nums, p)
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
        p = self.field.characteristic
        rows, pivots, d, _sign = _reduce(
            [r + tuple(int(i == j) for j in range(n)) for i, r in enumerate(self.nums)], p)
        if pivots[n - 1] != n - 1:
            return None
        # over F_p times the inverse of d; over Q den / d, sign in the nums
        f, den = (pow(d, -1, p), 1) if p else (self.den if d > 0 else -self.den, abs(d))
        return _normal(self.field, [[x * f for x in r[n:]] for r in rows], den)

    def charpoly(self):
        """Coefficients of det(tI - M), ascending, monic, as field
        elements; dimension <= 8.  Public API only: the factoring code
        reads `int_charpoly`.

        With M = N / den, coefficient k of `int_charpoly` (that of N) is
        divided by den^(n-k)."""
        n, den = self.nrows, self.den
        return tuple(_element(self.field.characteristic, c, den ** (n - k))
                     for k, c in enumerate(self.int_charpoly()))

    def int_charpoly(self):
        """Coefficients of det(tI - N) for the int rows N, ascending and
        monic, ints (residues over F_p); dimension <= 8.

        Berkowitz (1984): the charpoly of each leading principal
        submatrix is a lower-triangular Toeplitz matrix times that of the
        one before it, whose first column is 1, -a_rr, -R C, -R A C, ...,
        -R A^(r-1) C (A the block before row and column r, R and C its
        borders)."""
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
        return vec[::-1]


# -- the elimination core, on int rows ---------------------------------

def _reduce(rows, p=0):
    """The one elimination core: fraction-free Gauss-Jordan reduction of
    int rows, over Q (p = 0) or F_p.

    Returns (rows, pivot columns, d, sign).  Bareiss (1968)
    elimination, applied above as well as below each pivot, so every
    division by the previous pivot is exact: `//` over Q, times its
    inverse mod p over F_p.

    On return each pivot row holds d, the last pivot, in its own
    pivot column and zero in every other pivot column; rows past the
    rank are zero.  For a nonsingular square matrix of int rows N,
    det N = sign * d (mod p over F_p).
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    sign = prev = 1
    top = 0
    for col in range(len(rows[0])):
        if top == nrows:
            break
        for pivot_row in range(top, nrows):
            if rows[pivot_row][col]:
                break
        else:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            sign = -sign
        prow = rows[top]
        pivot = prow[col]
        inv = pow(prev, -1, p) if p else None
        for i, r in enumerate(rows):
            if i == top:
                continue
            head = r[col]
            if p:
                rows[i] = [(pivot * a - head * b) * inv % p for a, b in zip(r, prow)]
            elif head:
                rows[i] = [(pivot * a - head * b) // prev for a, b in zip(r, prow)]
            elif pivot != prev:  # a zero head only rescales the row
                rows[i] = [pivot * a // prev for a in r]
        pivots.append(col)
        prev = pivot
        top += 1
    return rows, pivots, prev, sign


def over_one_denominator(values):
    """(den, nums): rationals as ints over den, the lcm of their
    denominators, so values[i] = nums[i] / den."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def independent(vectors):
    """Indices of the rational vectors, given as int vectors, that are
    independent of the ones before them: the pivot columns of the matrix
    with these columns.  Scaling a vector changes no index."""
    return _reduce(list(zip(*vectors)))[1]


def int_kernel(rows):
    """A basis of the right nullspace of the int rows over Q, as int
    vectors; [] when the kernel is trivial.  Each vector is the one
    `Matrix.nullspace` gives for the same free column, times the last
    pivot d: d at the free column, 0 at the other free columns."""
    reduced, pivots, d, _sign = _reduce(rows)
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = d
        for k, pc in enumerate(pivots):
            v[pc] = -reduced[k][fc]
        basis.append(v)
    return basis


# -- univariate polynomial helpers (coefficient lists, ascending) -----

def upoly_eval(p, x):
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def rational_roots(coeffs):
    """Rational roots (with multiplicity) of a nonzero rational polynomial
    of degree at most 4, as a sorted list of (root, multiplicity) pairs.

    The primitive integer form a_n t^n + ... + a_0 (a_n > 0) becomes the
    monic integer polynomial a_n^(n-1) p(s/a_n) in s = a_n t, whose
    integer roots s give the rational roots s/a_n (`integer_roots`)."""
    p = list(coeffs)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if len(p) == 1 and p[0] == 0:
        raise ValueError("rational_roots of the zero polynomial")
    n = len(p) - 1
    if n > ROOTS_MAX_DEGREE:
        raise ValueError("rational_roots capped at degree %d" % ROOTS_MAX_DEGREE)
    scale = lcm(*(c.denominator for c in p))
    a = _primitive([c.numerator * (scale // c.denominator) for c in p])
    lead = a[-1]
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    return [(Fraction(s, lead), mult) for s, mult in integer_roots(monic)]


def integer_roots(coeffs):
    """Integer roots (with multiplicity) of a monic integer polynomial,
    coefficients ascending, as a sorted list of (root, multiplicity).

    Polynomial in the bit size (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 15): the roots of a square-free h are found
    modulo a prime q at which all of them are simple, and each is
    Hensel-lifted until the modulus passes 2 (1 + max |h_i|), twice the
    bound on an integer root of monic h.  h is f itself when one of the
    first few primes has that property: an integer root of f then
    reduces to a simple root modulo q, so it is simple and it is the
    lift of its residue.  Only otherwise (f has a repeated root, or all
    its roots collide modulo those primes) is h the square-free part
    f / gcd(f, f').  A lifted residue is a root only if exact substitution
    gives 0; synthetic division by t - r then counts its multiplicity."""
    f = list(coeffs)
    if f[-1] != 1:
        raise ValueError("integer_roots needs a monic polynomial")
    if len(f) == 1:
        return []
    h = f
    found = _simple_residues(h, islice(_primes(), SIMPLE_ROOT_PRIMES))
    if found is None:
        h = _squarefree(f)
        found = _simple_residues(h, _primes())
    q, residues = found
    dh = _derivative(h)
    bound = 2 * (1 + max(map(abs, h)))
    out = []
    for r in residues:
        m = q
        while m <= bound:
            m *= m
            r = (r - upoly_eval(h, r) * pow(upoly_eval(dh, r), -1, m)) % m
        if 2 * r > m:  # the residue of least absolute value
            r -= m
        mult, rest = 0, f
        while len(rest) > 1:
            quotient, value = _deflate(rest, r)
            if value != 0:
                break
            mult, rest = mult + 1, quotient
        if mult:
            out.append((r, mult))
    return sorted(out)


def _simple_residues(h, primes):
    """(q, roots of h mod q) for the first q of `primes` at which every
    root of h mod q is simple, or None when no q of them qualifies."""
    dh = _derivative(h)
    for q in primes:
        residues = _roots_mod(h, q)
        if all(upoly_eval(dh, r) % q for r in residues):
            return q, residues
    return None


def _roots_mod(h, q):
    """The roots of the integer polynomial h modulo q, ascending: Horner's
    rule run at every residue at once."""
    values = [h[-1] % q] * q
    for c in reversed(h[:-1]):
        values = [(v * r + c) % q for r, v in enumerate(values)]
    return [r for r, v in enumerate(values) if not v]


def cubic_integer_root(f):
    """An integer root of the monic integer cubic f (coefficients
    ascending), or None; found without primes, so an answer of None
    proves that f has no rational root.  Every integer root lies in
    (-h, h), h = 1 + max |f_i|.  f' = 3t^2 + 2at + b has real roots only
    when d = a^2 - 3b > 0, and each, (-a -/+ sqrt d) / 3, lies strictly
    between k - 1 and k + 2 for k = (-a -/+ isqrt(d)) // 3.  f is
    monotone on the integers between those windows, where bisection
    finds a root; the integers k and k + 1 are tried directly."""
    c, b, a, _one = f
    h = 1 + max(abs(a), abs(b), abs(c))
    d = a * a - 3 * b
    if d <= 0:
        return _monotone_root(f, -h, h)
    s = isqrt(d)
    k1, k2 = (-a - s) // 3, (-a + s) // 3
    for r in (k1, k1 + 1, k2, k2 + 1):
        if upoly_eval(f, r) == 0:
            return r
    for lo, hi in ((-h, k1 - 1), (k1 + 2, k2 - 1), (k2 + 2, h)):
        r = _monotone_root(f, lo, hi)
        if r is not None:
            return r
    return None


def _monotone_root(f, lo, hi):
    """An integer r in [lo, hi] with f(r) = 0, or None, for f monotone on
    the integers of [lo, hi]: bisection on the sign of f."""
    if lo > hi:
        return None
    low, high = upoly_eval(f, lo), upoly_eval(f, hi)
    if not low:
        return lo
    if not high:
        return hi
    if (low > 0) == (high > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = upoly_eval(f, mid)
        if not value:
            return mid
        if (value > 0) == (low > 0):
            lo = mid
        else:
            hi = mid
    return None


def _primes():
    """2, 3, 5, 7, ... without end."""
    n = 2
    while True:
        if all(n % d for d in range(2, isqrt(n) + 1)):
            yield n
        n += 1


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _deflate(p, r):
    """(quotient, remainder) of p by t - r: the remainder is p(r)."""
    acc, quotient = 0, []
    for c in reversed(p):
        acc = acc * r + c
        quotient.append(acc)
    value = quotient.pop()
    return quotient[::-1], value


def _primitive(p):
    """p over the gcd of its coefficients, leading coefficient positive."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _squarefree(f):
    """f / gcd(f, f') for a monic integer f of degree >= 1.

    The gcd is the last nonzero term of the primitive pseudo-remainder
    sequence; as a primitive divisor of a monic polynomial it is monic
    (Gauss's lemma), so the quotient is exact over the integers."""
    a, b = f, _derivative(f)
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    n = len(a) - 1
    if n == 0:
        return f
    quotient, rest = [], list(f)
    for k in range(len(f) - 1, n - 1, -1):
        c = rest[k]
        quotient.append(c)
        for i, y in enumerate(a):
            rest[k - n + i] -= c * y
    return quotient[::-1]


def _pseudo_remainder(a, b):
    """The remainder of lead(b)^j * a by b on ints, for the j >= 0 that
    keeps every step exact; trailing zeros trimmed, so [] is zero."""
    a, n, lead = list(a), len(b), b[-1]
    while len(a) >= n:
        c, shift = a[-1], len(a) - n
        a = [x * lead for x in a]
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return a
