"""Linear matrix factorization over Q.

A linear matrix is L = A0 + sum_i A_i x_i with scalar rational
matrices.  This module provides certificate-checked factorization: the
3x3 algorithm, the 4x4 quaternion gadget, and both directions of the
zero-divisor / factorization translation.

Every certificate is assembled by one routine, `_split`, from a basis
change that makes all coefficients block-lower-triangular:

    diag(pt, pb) [[T, 0], [D, B]] diag(qt, qb)
        = diag(pt*T*qt, I) [[I, 0], [pb*D*qt, I]] diag(I, pb*B*qb).

The 3x3 algorithm takes the basis change from a common eigenline of the
coefficients (right lines first, then left ones) and splits the 2x2
diagonal block the same way; the quaternion gadget takes it from the
left ideal of a zero divisor and splits no further.

A certificate (P, Q, factors) asserts P*L*Q = product of the factors as
matrices over the free algebra; verification compares the coefficient
matrix of every word on both sides, so degree-2 terms must cancel
identically.  Both sides are compared exactly, as integer matrices after
clearing denominators: P, Q, L and each factor are scaled by the lcm of
their own denominators, and each side is multiplied by the other's scale.

The common eigenlines come from one recursion over the coefficients in
order, which narrows a subspace to each eigenspace of the next
coefficient in turn, so every line carries its eigenvalue tuple.
`factor_3x3` computes the rational eigenvalues of each coefficient
matrix once per call: the charpoly test, the right- and left-line
searches and the 2x2 searches share one dict of them, which also serves
a matrix's transpose.

Between the `Matrix` objects of the API (a linear matrix's coefficients,
a certificate's P, Q and factors) the work runs on their int rows: the
eigenline recursion, basis completion, unit test, conjugation and
verification multiply and eliminate int vectors, and each certificate
matrix is built once.  Fractions appear only where the API returns
them: the eigenlines with their eigenvalues and quaternion coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from ncfactor import textio
from ncfactor.errors import FormatError, SoundnessError
from ncfactor.fields import QQ
from ncfactor.matrix import (Matrix, cubic_integer_root, independent, int_kernel,
                             integer_roots, over_one_denominator)
from ncfactor.quaternion import (Quaternion, hmul, is_zero_divisor, left_orbit, mu_matrix,
                                 mv_matrix)


class LinearMatrix:
    """L = A0 + sum A_i x_i, all blocks d x d over Q."""

    __slots__ = ("d", "n", "mats")

    def __init__(self, mats):
        mats = tuple(mats)
        if not mats:
            raise ValueError("need at least the constant matrix A0")
        d = len(mats[0].nums)
        for m in mats:
            if len(m.nums) != d or len(m.nums[0]) != d or m.field != QQ:
                raise ValueError("coefficient matrices must be square rational, equal size")
        self.d = d
        self.n = len(mats) - 1
        self.mats = mats

    @property
    def constant(self):
        return self.mats[0]

    def coeff(self, i):
        """A_i for 1 <= i <= n."""
        return self.mats[i]

    @property
    def degree(self):
        return 1 if any(not m.is_zero() for m in self.mats[1:]) else 0

    def lmul(self, p):
        return LinearMatrix([p * m for m in self.mats])

    def rmul(self, q):
        return LinearMatrix([m * q for m in self.mats])

    def conjugate(self, p):
        pinv = p.inverse()
        if pinv is None:
            raise ValueError("conjugation by a singular matrix")
        return LinearMatrix([p * m * pinv for m in self.mats])

    def __eq__(self, other):
        if not isinstance(other, LinearMatrix):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self):
        return "LinearMatrix(d=%d, n=%d)" % (self.d, self.n)

    def is_unit(self):
        """Invertible over the polynomial ring: invertible constant term and
        nilpotent normalized coefficients N_i = A0^-1 A_i (all length-d
        products vanish).  Tested on the joint images V_0 = Q^d,
        V_{k+1} = span of all N_i V_k: they are nested, so each step
        either shrinks the image or has reached a nonzero fixed space.
        The images are spans of int vectors, and the N_i are taken up to
        a positive scale, which changes no span."""
        gens = [m.nums for m in self.mats[1:]]
        if self.constant != _identity(self.d):
            a0inv = self.constant.inverse()
            if a0inv is None:
                return False
            gens = [_mul_rows(a0inv.nums, g) for g in gens]
        image = _unit_vectors(self.d)
        while gens:
            vecs = [_apply(g, v) for g in gens for v in image]
            vecs = [vecs[j] for j in independent(vecs)]
            if not vecs:
                return True
            if len(vecs) == len(image):
                return False
            image = vecs
        return True

    # -- serialization -------------------------------------------------

    KIND = "linmat"

    def to_text(self):
        lines = ["linmat d=%d n=%d field=Q" % (self.d, self.n)]
        for m in self.mats:
            lines.extend(textio.matrix_lines(m))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return textio.read(text, cls)

    @classmethod
    def _from_lines(cls, head, lines):
        d, n = int(head["d"]), int(head["n"])
        if head.get("field", "Q") != "Q":
            raise FormatError("linear matrices are rational only")
        if len(lines) != (n + 1) * d:
            raise FormatError("expected %d matrix rows, got %d" % ((n + 1) * d, len(lines)))
        return cls([textio.read_matrix(lines, b * d, d) for b in range(n + 1)])


class FactorizationCert:
    """Invertible P, Q and ordered linear factors with P*L*Q = product."""

    __slots__ = ("p", "q", "factors", "unit_flags")

    def __init__(self, p, q, factors, unit_flags):
        factors = tuple(factors)
        unit_flags = tuple(unit_flags)
        if len(factors) != len(unit_flags):
            raise ValueError("one unit flag per factor")
        self.p = p
        self.q = q
        self.factors = factors
        self.unit_flags = unit_flags

    def nontrivial_count(self):
        return sum(1 for flag in self.unit_flags if not flag)

    def __repr__(self):
        return "FactorizationCert(%d factors, %d nontrivial)" % (
            len(self.factors), self.nontrivial_count())

    KIND = "cert"
    UNIT_LINES = {"factor unit=0": False, "factor unit=1": True}

    def to_text(self):
        d = self.p.nrows
        n = max((f.n for f in self.factors), default=0)
        lines = ["cert d=%d n=%d field=Q" % (d, n), "P"]
        lines.extend(textio.matrix_lines(self.p))
        lines.append("Q")
        lines.extend(textio.matrix_lines(self.q))
        for factor, flag in zip(self.factors, self.unit_flags):
            lines.append("factor unit=%d" % (1 if flag else 0))
            for m in factor.mats:
                lines.extend(textio.matrix_lines(m))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return textio.read(text, cls)

    @classmethod
    def _from_lines(cls, head, lines):
        d, n = int(head["d"]), int(head["n"])
        if lines[0] != "P":
            raise FormatError("expected P block")
        p = textio.read_matrix(lines, 1, d)
        if lines[d + 1] != "Q":
            raise FormatError("expected Q block")
        q = textio.read_matrix(lines, d + 2, d)
        factors, flags = [], []
        pos = 2 * d + 2
        while pos < len(lines):
            flags.append(cls.UNIT_LINES[lines[pos]])
            factors.append(LinearMatrix([textio.read_matrix(lines, pos + 1 + k * d, d)
                                         for k in range(n + 1)]))
            pos += 1 + (n + 1) * d
        return cls(p, q, factors, flags)


class Irreducible:
    """Verdict that a linear matrix admits no nontrivial factorization."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "Irreducible(%s)" % self.reason


# -- certificate verification ------------------------------------------

def _scalar(nums):
    """c when the int rows are c times the identity, else None."""
    c = nums[0][0]
    for i, r in enumerate(nums):
        for j, x in enumerate(r):
            if x != (c if i == j else 0):
                return None
    return c


def _cleared(mats):
    """(s, [s*m for m in mats]) on integers, s > 0 the lcm of every
    denominator in the group.  The constant s*m0 is the int c when it is
    c*I (a factor's constant term mostly is I); every other s*m is given
    as (the set of its nonzero rows i, [(i, row i's nonzero (column,
    entry) pairs)]), and as None when it is zero."""
    s = lcm(*(m.den for m in mats))
    out = []
    for k, m in enumerate(mats):
        f = s // m.den
        c = None if k else _scalar(m.nums)
        if c is None:
            rows = [(i, [(j, x * f) for j, x in enumerate(r) if x])
                    for i, r in enumerate(m.nums) if any(r)]
            out.append((frozenset(i for i, _r in rows), rows) if rows else None)
        else:
            out.append(c * f or None)
    return s, out


def _times(coeffs, lin):
    """Coefficient matrices {word: C} of (sum_w C_w w) * lin on integer
    rows: each word is extended by lin's A0 (no letter) or A_i (letter
    x_i), given as by `_cleared`.  A product is skipped when the nonzero
    columns of C miss the nonzero rows of A_i (block-triangular factors
    make most products zero), and zero sums are dropped."""
    out = {}
    for word, c in coeffs.items():
        d = len(c)
        support = {j for j, col in enumerate(zip(*c)) if any(col)}
        for k, a in enumerate(lin):
            if a is None:
                continue
            key = word + (k - 1,) if k else word
            acc = out.get(key)
            if type(a) is int:
                out[key] = ([[a * x for x in row] for row in c] if acc is None else
                            [[y + a * x for y, x in zip(acc_row, row)]
                             for acc_row, row in zip(acc, c)])
                continue
            a_rows, a = a
            if support.isdisjoint(a_rows):
                continue
            if acc is None:
                acc = out[key] = [[0] * d for _ in range(d)]
            for row, acc_row in zip(c, acc):
                for i, a_row in a:
                    x = row[i]
                    if x:
                        for j, y in a_row:
                            acc_row[j] += x * y
    return {w: m for w, m in out.items() if any(map(any, m))}


def _invertible(m):
    return m == _identity(m.nrows) or m.rank() == m.nrows


def _words(mats):
    """(s, {word: C}): a linear matrix's nonzero coefficients as int rows
    over s > 0, the lcm of their denominators; word () holds A0 and
    (i,) holds A_(i+1)."""
    s = lcm(*(m.den for m in mats))
    return s, {(k - 1,) if k else (): [[x * (s // m.den) for x in r] for r in m.nums]
               for k, m in enumerate(mats) if not m.is_zero()}


def _product(groups, d):
    """(s, {word: C}): s > 0 and the integer coefficient matrices of s
    times the product of the groups, each a linear matrix's mats, every
    group scaled by the lcm of its own denominators (`_cleared`); no
    group gives the identity."""
    if not groups:
        return 1, {(): _unit_vectors(d)}
    scale, coeffs = _words(groups[0])
    for mats in groups[1:]:
        s, rows = _cleared(mats)
        coeffs = _times(coeffs, rows)
        scale *= s
    return scale, coeffs


def verify_cert(cert, L):
    """Exact check: P, Q invertible and P*L*Q = product of the factors,
    compared word by word as coefficient matrices (so quadratic terms
    must cancel identically).

    Both sides are multiplied out on integers, as s_lhs*P*L*Q (P*A_w*Q
    for each word w of L) and s_rhs*(product) (`_product`) for positive
    scales, so they agree exactly when s_rhs*lhs_w == s_lhs*rhs_w for
    every word w."""
    p, q = cert.p, cert.q
    if p.nrows != L.d or q.nrows != L.d:
        raise ValueError("certificate dimension mismatch")
    if not (_invertible(p) and _invertible(q)):
        return False
    if any(factor.d != L.d for factor in cert.factors):
        raise ValueError("factor dimension mismatch")
    s_l, words = _words(L.mats)
    s_lhs = p.den * s_l * q.den
    lhs = {w: _mul_rows(_mul_rows(p.nums, c), q.nums) for w, c in words.items()}
    s_rhs, rhs = _product([factor.mats for factor in cert.factors], L.d)
    return lhs.keys() == rhs.keys() and all(
        s_rhs * x == s_lhs * y
        for w, m in lhs.items() for row, rhs_row in zip(m, rhs[w]) for x, y in zip(row, rhs_row))


def product_linear(factors):
    """Product of linear matrices that stays linear (degree-2 coefficient
    blocks must vanish pairwise, as in the unit-absorbing block forms)."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    acc = factors[0]
    for nxt in factors[1:]:
        if acc.d != nxt.d:
            raise ValueError("factor dimension mismatch")
        n = max(acc.n, nxt.n)
        zero = Matrix.zeros(QQ, acc.d, acc.d)
        a = list(acc.mats[1:]) + [zero] * (n - acc.n)
        b = list(nxt.mats[1:]) + [zero] * (n - nxt.n)
        for ai in a:
            for bj in b:
                if any(map(any, _mul_rows(ai.nums, bj.nums))):
                    raise ValueError("product of factors is not linear")
        mats = [acc.constant * nxt.constant]
        for i in range(n):
            mats.append(acc.constant * b[i] + a[i] * nxt.constant)
        acc = LinearMatrix(mats)
    return acc


def is_monic(L):
    """Full row rank of [A1|...|An] and full column rank of the stack."""
    if L.n == 0:
        return False
    h = L.mats[1]
    v = L.mats[1]
    for m in L.mats[2:]:
        h = h.hstack(m)
        v = v.vstack(m)
    return h.rank() == L.d and v.rank() == L.d


# -- int-row helpers -----------------------------------------------------

# The identity matrices of the 3x3 algorithm and the quaternion gadget,
# built once: immutable constants.
_IDENTITY = {k: Matrix.identity(QQ, k) for k in range(1, 5)}


def _identity(d):
    return _IDENTITY.get(d) or Matrix.identity(QQ, d)


def _unit_vectors(d):
    return [[int(i == j) for i in range(d)] for j in range(d)]


def _apply(rows, v):
    """The int vector rows * v."""
    return [sum(map(mul, r, v)) for r in rows]


def _mul_rows(a, b):
    """The product of two matrices given as int rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


# -- common eigenvector machinery --------------------------------------

def _normalize_line(v):
    """The rational vector v / v_c, c the first nonzero entry of the int
    vector v; None when v is zero."""
    for c in v:
        if c:
            return tuple(Fraction(x, c) for x in v)
    return None


def _eigenvalues(m, roots):
    """The integer roots r of the monic integer charpoly of m's int rows N,
    with multiplicity, sorted: m = N / den has the rational eigenvalues
    r / den.  Looked up in the dict `roots` or computed and stored there
    for m and its transpose, which has the same charpoly.

    A cubic charpoly without an integer root is irreducible over Q.
    `cubic_integer_root` checks that verdict by bisection, independently
    of the Hensel lifting; a root it finds is one `integer_roots` missed,
    and raises SoundnessError (also under python -O)."""
    found = roots.get(m)
    if found is None:
        charpoly = m.int_charpoly()
        found = roots[m] = roots[m.transpose()] = integer_roots(charpoly)
        if not found and len(charpoly) == 4 and cubic_integer_root(charpoly) is not None:
            raise SoundnessError("the cubic charpoly has an integer root "
                                 "that the root finder missed")
    return found


def common_eigenlines(mats, side="right", roots=None):
    """All lines spanned by common eigenvectors of the matrices (one
    representative per common eigenspace), each with its eigenvalue
    tuple, sorted; dimension <= 3.  side='left' works with row vectors
    w, w*A_i = lambda_i*w, via transposes.  `roots`, a dict of
    `_eigenvalues` shared by the calls of one search, saves computing a
    charpoly's roots twice.

    On the subspace spanned by the columns of s, each eigenvalue lam of
    the next matrix a narrows s to s * kernel(a*s - lam*s).  A matrix
    scalar on s leaves s as it is (its one such kernel is all of s), and
    different eigenvalue tuples give subspaces that meet only in 0.  The
    columns are int vectors: with a = N / den and lam = r / den the
    kernel is that of N*s - r*s, and scaling a column changes no line."""
    if roots is None:
        roots = {}
    if not mats:
        raise ValueError("need at least one matrix")
    if mats[0].nrows > 3:
        raise ValueError("common eigenline search capped at dimension 3")
    work = [m.transpose() for m in mats] if side == "left" else list(mats)
    out = []

    def rec(s, lams):
        if len(lams) == len(work):
            out.append((_normalize_line(s[0]), lams))
            return
        a = work[len(lams)]
        prods = [_apply(a.nums, v) for v in s]
        for r, _mult in _eigenvalues(a, roots):
            cols = [[x - r * y for x, y in zip(nv, v)] for nv, v in zip(prods, s)]
            kernel = int_kernel(list(zip(*cols)))
            if kernel:
                rec([_apply(list(zip(*s)), k) for k in kernel], lams + (Fraction(r, a.den),))

    rec(_unit_vectors(work[0].nrows), ())
    out.sort()
    return out


# -- split/assembly helpers ---------------------------------------------

def _complete_basis(vectors, den, d):
    """Extend independent int vectors, read over den, to a basis using
    standard basis vectors (den * e_i, so the basis is over den too): the
    first e_i that are independent of everything before them."""
    k = len(vectors)
    cols = [list(v) for v in vectors] + [[den * x for x in e] for e in _unit_vectors(d)]
    pivots = independent(cols)
    assert pivots[:k] == list(range(k)), "expected independent vectors"
    return [cols[j] for j in pivots]


def _lift_factor(factor, d, off):
    """Lift a linear factor to d x d at diagonal offset off: constant
    block inside an identity, coefficient blocks inside zeros."""
    return LinearMatrix(
        [Matrix.from_blocks(QQ, d, d, [(0, 0, _identity(d)), (off, off, factor.mats[0])])]
        + [Matrix.from_blocks(QQ, d, d, [(off, off, m)]) for m in factor.mats[1:]])


def _unip_factor(ds, d, k):
    """[[I,0],[D,I]] with D = sum D_i x_i sitting under the top-left k
    block; each D_i given as (int rows, den)."""
    top = [[0] * d for _ in range(k)]
    return LinearMatrix([_identity(d)] + [
        Matrix.from_nums(QQ, top + [list(r) + [0] * (d - k) for r in rows], den)
        for rows, den in ds])


def _scalar_family(lams, d):
    """Data (p, q, factors, flags) when every coefficient is lam_i*I:
    L = prod_pos diag(1, .., 1 + sum lam_i x_i, .., 1), one factor per
    diagonal position."""
    ident = _identity(d)
    factors = [LinearMatrix([ident] + [Matrix.from_blocks(QQ, d, d, [(pos, pos, Matrix(QQ, [[lam]]))])
                                       for lam in lams])
               for pos in range(d)]
    return ident, ident, factors, [False] * d


def _all_scalar(mats):
    """Per-matrix lambdas when every coefficient matrix is lambda*I."""
    if any(_scalar(m.nums) is None for m in mats):
        return None
    return [Fraction(m.nums[0][0], m.den) for m in mats]


def _sandwich(a, rows, den, b):
    """(a * (rows / den) * b) as (int rows, den) for matrices a and b; an
    identity factor is skipped."""
    if a != _identity(a.nrows):
        rows, den = _mul_rows(a.nums, rows), a.den * den
    if b != _identity(b.nrows):
        rows, den = _mul_rows(rows, b.nums), den * b.den
    return rows, den


def _diag_times(a, b, m):
    """diag(a, b) * m, assembled once from int rows: a times the top rows
    of m over b times the rest; m itself when a and b are identities."""
    if a == _identity(a.nrows) and b == _identity(b.nrows):
        return m
    den = lcm(a.den, b.den)
    k = a.nrows
    rows = [[x * (den // blk.den) for x in r]
            for blk, part in ((a, m.nums[:k]), (b, m.nums[k:]))
            for r in _mul_rows(blk.nums, part)]
    return Matrix.from_nums(QQ, rows, den * m.den)


def _whole(L):
    """Data (p, q, factors, flags) of a side that is not split further:
    identity basis changes and L itself, no factor when L is constant."""
    ident = _identity(L.d)
    return (ident, ident, [L], [False]) if L.degree else (ident, ident, [], [])


def _split(L, p, pinv, k, split_top, split_bottom):
    """Data (P, Q, factors, flags) with P*L*Q = product of the factors,
    for L with identity constant term and a basis change p, given with
    its inverse pinv, after which every coefficient is
    block-lower-triangular, [[T, 0], [D, B]] with T of size k.  With
    (pt, qt, ...) = split_top(T) and (pb, qb, ...) = split_bottom(B),
    the certificates of the two diagonal blocks,

        diag(pt, pb) [[T, 0], [D, B]] diag(qt, qb)
            = diag(pt*T*qt, I) [[I, 0], [pb*D*qt, I]] diag(I, pb*B*qb),

    so P = diag(pt, pb)*p and Q = p^-1*diag(qt, qb).  Only the
    coefficients are conjugated, on int rows (the constant term stays
    I), and each block becomes a Matrix once."""
    d = L.d
    tops, bottoms, lows = [], [], []
    for m in L.mats[1:]:
        rows = _mul_rows(_mul_rows(p.nums, m.nums), pinv.nums)
        den = p.den * m.den * pinv.den
        assert not any(x for r in rows[:k] for x in r[k:]), "split subspace is not invariant"
        tops.append(Matrix.from_nums(QQ, [r[:k] for r in rows[:k]], den))
        bottoms.append(Matrix.from_nums(QQ, [r[k:] for r in rows[k:]], den))
        lows.append(([r[:k] for r in rows[k:]], den))
    pt, qt, top, top_flags = split_top(LinearMatrix([_identity(k)] + tops))
    pb, qb, bottom, bottom_flags = split_bottom(LinearMatrix([_identity(d - k)] + bottoms))
    factors = [_lift_factor(f, d, 0) for f in top]
    flags = list(top_flags)
    ds = [_sandwich(pb, low, den, qt) for low, den in lows]
    if any(any(map(any, rows)) for rows, _den in ds):
        factors.append(_unip_factor(ds, d, k))
        flags.append(True)
    factors.extend(_lift_factor(f, d, k) for f in bottom)
    flags.extend(bottom_flags)
    q = _diag_times(qt.transpose(), qb.transpose(), pinv.transpose()).transpose()
    return _diag_times(pt, pb, p), q, factors, flags


def _eigen_split(L, roots):
    """The split of L (identity constant term, d = 2 or 3) along a common
    eigenline of its coefficients with the most nontrivial factors, or
    None when they have no common eigenline.  The first such candidate
    is kept; one with two nontrivial factors ends the search.  `roots`
    is the search's dict of `_eigenvalues`."""
    best = None
    for cand in _eigen_candidates(L, roots):
        count = cand[3].count(False)
        if best is None or count > best[3].count(False):
            best = cand
        if count >= 2:
            break
    return best


def _eigen_candidates(L, roots):
    """Splits of L along its common eigenlines, in order.  A right line w
    as the last basis vector leaves a 1x1 block at the bottom and the
    (d-1)x(d-1) block on top, which `_factor_small` splits further.  For
    d = 3 the left lines follow, computed only when the right ones are
    used up: w as the first row leaves the 1x1 block on top."""
    d, coeffs = L.d, L.mats[1:]
    small = lambda block: _factor_small(block, roots)
    for w, _lams in common_eigenlines(coeffs, "right", roots):
        den, w = over_one_denominator(w)
        cols = _complete_basis([w], den, d)
        pinv = Matrix.from_nums(QQ, list(zip(*(cols[1:] + cols[:1]))), den)
        yield _split(L, pinv.inverse(), pinv, d - 1, small, _whole)
    if d == 3:
        for w, _lams in common_eigenlines(coeffs, "left", roots):
            den, w = over_one_denominator(w)
            p = Matrix.from_nums(QQ, _complete_basis([w], den, d), den)
            yield _split(L, p, p.inverse(), 1, _whole, small)


def _factor_small(L, roots=None):
    """Complete factorization data (p, q, factors, flags) for a d<=2
    linear matrix with identity constant term.  Always returns a valid
    certificate decomposition; the factor list may be a single atom.
    `roots` is the enclosing search's dict of `_eigenvalues`."""
    if L.d == 2 and L.degree:
        lams = _all_scalar(L.mats[1:])
        if lams is not None:
            return _scalar_family(lams, 2)
        # a coefficient without a rational eigenvalue leaves no common
        # eigenline, so the search then finds nothing
        best = _eigen_split(L, {} if roots is None else roots)
        if best is not None:
            return best
    return _whole(L)


def factor_3x3(L):
    """The 3x3 factorization algorithm over Q.

    Returns a verified FactorizationCert when L splits into at least two
    nontrivial linear factors, otherwise Irreducible with a reason tag:
    'charpoly-irreducible' (some coefficient has a Q-irreducible
    characteristic polynomial), 'unit-linear-matrix', or
    'exhausted-eigen-search'.
    """
    if L.d != 3:
        raise ValueError("factor_3x3 expects 3x3 linear matrices")
    original = L
    pre = _identity(3)
    if L.constant != pre:
        pre = L.constant.inverse()
        if pre is None:
            raise ValueError("constant term must be invertible")
        L = L.lmul(pre)

    if L.degree == 0 or L.is_unit():
        return Irreducible("unit-linear-matrix")
    # the rational eigenvalues of every coefficient seen in this call
    roots = {}
    # degree 2 or 3: a charpoly is Q-irreducible iff it has no rational root
    if any(not _eigenvalues(m, roots) for m in L.mats[1:] if not m.is_zero()):
        return Irreducible("charpoly-irreducible")
    lams = _all_scalar(L.mats[1:])
    found = _scalar_family(lams, 3) if lams is not None else _eigen_split(L, roots)
    if found is None or found[3].count(False) < 2:
        return Irreducible("exhausted-eigen-search")
    p, q, factors, flags = found
    cert = FactorizationCert(p * pre, q, factors, flags)
    _check_cert(cert, original)
    return cert


def _check_cert(cert, L):
    """Raise SoundnessError unless cert verifies for L; runs under -O too."""
    if not verify_cert(cert, L):
        raise SoundnessError("assembled certificate does not verify")


# -- quaternion gadget ---------------------------------------------------

def quaternion_linmat(alpha, beta):
    """L = I + M_u x + M_v y with the regular-representation matrices."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0 or beta == 0:
        raise ValueError("quaternion parameters must be nonzero")
    return LinearMatrix([_identity(4), mu_matrix(alpha), mv_matrix(beta)])


def zdiv_to_factorization(alpha, beta, z):
    """From a zero divisor z to a verified three-factor block certificate.

    The coordinate rows of the left ideal {x*z} are closed under the
    transition of M_u and M_v, so a basis of that ideal (completed to a
    full basis) conjugates L into block-lower-triangular form, which
    splits as diag(A,I) * [[I,0],[D,I]] * diag(I,B).
    """
    if not is_zero_divisor(z):
        raise ValueError("z must be a zero divisor")
    L = quaternion_linmat(alpha, beta)
    den, orbit = left_orbit(z)
    rows = [orbit[j] for j in independent(orbit)]
    r = len(rows)
    assert 1 <= r <= 3, "a zero divisor generates a proper nonzero left ideal"
    p = Matrix.from_nums(QQ, _complete_basis(rows, den, 4), den)
    cert = FactorizationCert(*_split(L, p, p.inverse(), r, _whole, _whole))
    _check_cert(cert, L)
    return cert


def factorization_to_zdiv(alpha, beta, f, g):
    """From a nontrivial factorization L = F*G to a zero divisor pair.

    After normalizing G(0,0) = I the quadratic cancellations force
    F_a * G_b = 0, so W = colspan(G_x) + colspan(G_y) is a proper nonzero
    subspace with M_u W <= W and M_v W <= W.  Its annihilator is the
    coordinate space of a proper left ideal, whose elements have
    linearly dependent left orbits {w, uw, vw, uvw}; the dependency
    coefficients give the complementary zero divisor.  W is spanned by
    int columns over one denominator; only the zero divisors' coordinates
    are Fractions.
    """
    L = quaternion_linmat(alpha, beta)
    if f.d != 4 or g.d != 4:
        raise ValueError("expected 4x4 factors")
    ident4 = _identity(4)
    cert = FactorizationCert(ident4, ident4, [f, g], [False, False])
    if not verify_cert(cert, L):
        raise ValueError("F*G does not equal the quaternion linear matrix")
    for factor in (f, g):
        if factor.degree == 0 or factor.is_unit():
            raise ValueError("unit factor: the factorization is trivial")

    g0inv = g.constant.inverse()
    assert g0inv is not None, "G(0,0) is invertible since F0*G0 = I"
    assert f.constant * g.constant == ident4
    zero = Matrix.zeros(QQ, 4, 4)
    pad = lambda lin: list(lin.mats[1:]) + [zero] * (2 - lin.n)
    # (F_a G0)(G0^-1 G_b) = F_a G_b: the normalized coefficients cancel iff these do
    for a in pad(f):
        for b_ in pad(g):
            assert not any(map(any, _mul_rows(a.nums, b_.nums))), \
                "degree-2 coefficients must cancel"

    gx, gy = (g0inv * m for m in pad(g))
    g_cols = gx.hstack(gy)
    all_cols = list(zip(*g_cols.nums))
    cols = [all_cols[j] for j in independent(all_cols)]
    assert cols, "a non-unit right factor has nonzero linear part"
    assert len(cols) < 4, "a non-unit left factor forces a proper subspace"
    for m in (mu_matrix(alpha), mv_matrix(beta)):
        assert len(independent(cols + [_apply(m.nums, c) for c in cols])) == len(cols), \
            "W must be invariant under M_u and M_v"

    # a column that is a multiple of e1 = 1 comes last
    candidates = sorted(cols, key=lambda c: not any(c[1:]))
    for w in candidates:
        z2 = Quaternion(alpha, beta, [Fraction(x, g_cols.den) for x in w])
        pair = _left_orbit_dependency(z2)
        if pair is not None:
            return pair
    # Fall back to the annihilator of W: the coordinate space of a left
    # ideal, where the orbit dependency always exists.
    perp = Matrix.from_nums(QQ, cols).nullspace()
    for s in perp:
        z2 = Quaternion(alpha, beta, s)
        pair = _left_orbit_dependency(z2)
        if pair is not None:
            return pair
    raise SoundnessError("no zero divisor found; the factorization was not nontrivial")


def _left_orbit_dependency(z2):
    """Solve gamma0*w + gamma1*u*w + gamma2*v*w + gamma3*uv*w = 0."""
    _den, orbit = left_orbit(z2)
    kernel = Matrix.from_nums(QQ, list(zip(*orbit))).nullspace()
    if not kernel:
        return None
    gamma = kernel[0]
    z1 = Quaternion(z2.alpha, z2.beta, gamma)
    assert not z1.is_zero() and not z2.is_zero()
    if not hmul(z1, z2).is_zero():
        raise SoundnessError("dependency coefficients do not annihilate w")
    return z1, z2
