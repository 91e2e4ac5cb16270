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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ncfactor import textio
from ncfactor.errors import FormatError, SoundnessError
from ncfactor.fields import QQ
from ncfactor.matrix import Matrix, integer_roots
from ncfactor.quaternion import (Quaternion, hmul, is_zero_divisor, mu_matrix,
                                 mv_matrix)


class LinearMatrix:
    """L = A0 + sum A_i x_i, all blocks d x d over Q."""

    __slots__ = ("d", "n", "mats")

    def __init__(self, mats):
        mats = tuple(mats)
        if not mats:
            raise ValueError("need at least the constant matrix A0")
        d = mats[0].nrows
        for m in mats:
            if not m.is_square or m.nrows != d or m.field != QQ:
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
        either shrinks the image or has reached a nonzero fixed space."""
        a0inv = self.constant.inverse()
        if a0inv is None:
            return False
        gens = [a0inv * m for m in self.mats[1:]]
        image = Matrix.identity(QQ, self.d)
        while gens:
            # the columns of each g*image as int vectors: scaling a column
            # changes no independence
            vecs = [v for g in gens for v in zip(*(g * image).nums)]
            vecs = [vecs[j] for j in Matrix.from_cols(QQ, vecs).pivot_cols()]
            if not vecs:
                return True
            if len(vecs) == image.ncols:
                return False
            image = Matrix.from_cols(QQ, vecs)
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

def _cleared(mats):
    """(s, [s*m for m in mats]) on integers, s > 0 the lcm of every
    denominator in the group; each s*m as rows of its nonzero (column,
    entry) pairs, or None when m is zero."""
    s = lcm(*(m.den for m in mats))
    out = []
    for m in mats:
        f = s // m.den
        rows = [[(j, x * f) for j, x in enumerate(r) if x] for r in m.nums]
        out.append(rows if any(rows) else None)
    return s, out


def _times(coeffs, lin):
    """Coefficient matrices {word: C} of (sum_w C_w w) * lin on integer
    rows: each word is extended by lin's A0 (no letter) or A_i (letter
    x_i), given as `_cleared` rows (None skips a zero coefficient); zero
    products are dropped."""
    out = {}
    for word, c in coeffs.items():
        d = len(c)
        for k, a in enumerate(lin):
            if a is None:
                continue
            key = word + (k - 1,) if k else word
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [[0] * d for _ in range(d)]
            for row, acc_row in zip(c, acc):
                for x, a_row in zip(row, a):
                    if x:
                        for j, y in a_row:
                            acc_row[j] += x * y
    return {w: m for w, m in out.items() if any(map(any, m))}


def _product(groups, d):
    """(s, {word: C}): s > 0 and the integer coefficient matrices of s
    times the product of the groups, each a linear matrix's mats ([m]
    for a constant m), every group scaled by its own `_cleared` factor."""
    coeffs, scale = {(): [[int(i == j) for j in range(d)] for i in range(d)]}, 1
    for mats in groups:
        s, rows = _cleared(mats)
        coeffs = _times(coeffs, rows)
        scale *= s
    return scale, coeffs


def verify_cert(cert, L):
    """Exact check: P, Q invertible and P*L*Q = product of the factors,
    compared word by word as coefficient matrices (so quadratic terms
    must cancel identically).

    Both sides are multiplied out on integers, as s_lhs*P*L*Q and
    s_rhs*(product) for positive scales (`_product`), so they agree
    exactly when s_rhs*lhs_w == s_lhs*rhs_w for every word w."""
    if cert.p.nrows != L.d or cert.q.nrows != L.d:
        raise ValueError("certificate dimension mismatch")
    if cert.p.det() == 0 or cert.q.det() == 0:
        return False
    if any(factor.d != L.d for factor in cert.factors):
        raise ValueError("factor dimension mismatch")
    s_lhs, lhs = _product([[cert.p], L.mats, [cert.q]], L.d)
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
                if not (ai * bj).is_zero():
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


# -- common eigenvector machinery --------------------------------------

def _normalize_line(w):
    for c in w:
        if c != 0:
            return tuple(x / c for x in w)
    return None


def _eigenvalues(m, roots):
    """The rational eigenvalues of m = N / den with multiplicity, sorted:
    r / den for the integer roots r of N's monic integer charpoly.
    Looked up in the dict `roots` or computed and stored there for m and
    its transpose, which has the same charpoly."""
    found = roots.get(m)
    if found is None:
        den = m.den
        found = roots[m] = roots[m.transpose()] = [
            (Fraction(r, den), mult) for r, mult in integer_roots(m.int_charpoly())]
    return found


def common_eigenlines(mats, side="right", roots=None):
    """All lines spanned by common eigenvectors of the matrices (one
    representative per common eigenspace), each with its eigenvalue
    tuple, sorted; dimension <= 3.  side='left' works with row vectors
    w, w*A_i = lambda_i*w, via transposes.  `roots`, a dict of
    `_eigenvalues` shared by the calls of one search, saves computing a
    charpoly's roots twice.

    On the subspace with basis matrix s, each eigenvalue lam of the next
    matrix a narrows s to s * kernel(a*s - lam*s).  A matrix scalar on s
    leaves s as it is (its one such kernel is all of s), and different
    eigenvalue tuples give subspaces that meet only in 0."""
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
            out.append((_normalize_line(s.col(0)), lams))
            return
        a = work[len(lams)]
        prod = a * s
        for lam, _mult in _eigenvalues(a, roots):
            kernel = (prod - s.scale(lam)).nullspace()
            if kernel:
                rec(s * Matrix.from_cols(QQ, kernel), lams + (lam,))

    rec(Matrix.identity(QQ, work[0].nrows), ())
    out.sort()
    return out


# -- split/assembly helpers ---------------------------------------------

def _complete_basis(vectors, d):
    """Extend independent vectors to a basis using standard basis vectors:
    the pivot columns of [vectors | I] pick the first e_i that are
    independent of everything before them."""
    k = len(vectors)
    ident = Matrix.identity(QQ, d)
    cols = [tuple(v) for v in vectors] + [ident.col(i) for i in range(d)]
    pivots = Matrix.from_cols(QQ, cols).pivot_cols()
    assert pivots[:k] == list(range(k)), "expected independent vectors"
    return [cols[j] for j in pivots]


def _place(m, base, row0, col0):
    """base with the block m written over it at (row0, col0)."""
    return Matrix.from_blocks(QQ, base.nrows, base.ncols, [(0, 0, base), (row0, col0, m)])


def _lift_factor(factor, d, off):
    """Lift a linear factor to d x d at diagonal offset off: constant
    block inside an identity, coefficient blocks inside zeros."""
    ident, zero = Matrix.identity(QQ, d), Matrix.zeros(QQ, d, d)
    return LinearMatrix([_place(factor.mats[0], ident, off, off)]
                        + [_place(m, zero, off, off) for m in factor.mats[1:]])


def _unip_factor(ds, d, k):
    """[[I,0],[D,I]] with D = sum D_i x_i sitting under the top-left k block."""
    zero = Matrix.zeros(QQ, d, d)
    return LinearMatrix([Matrix.identity(QQ, d)] + [_place(di, zero, k, 0) for di in ds])


def _scalar_family(lams, d):
    """Data (p, q, factors, flags) when every coefficient is lam_i*I:
    L = prod_pos diag(1, .., 1 + sum lam_i x_i, .., 1), one factor per
    diagonal position."""
    zero, ident = Matrix.zeros(QQ, d, d), Matrix.identity(QQ, d)
    factors = [LinearMatrix([ident] + [_place(Matrix(QQ, [[lam]]), zero, pos, pos)
                                       for lam in lams])
               for pos in range(d)]
    return ident, ident, factors, [False] * d


def _all_scalar(mats):
    """Per-matrix lambdas when every coefficient matrix is lambda*I."""
    ident = Matrix.identity(QQ, mats[0].nrows)
    lams = [m[0][0] for m in mats]
    return lams if all(m == ident.scale(lam) for m, lam in zip(mats, lams)) else None


def _diag(a, b):
    """The block-diagonal matrix diag(a, b)."""
    return Matrix.from_blocks(QQ, a.nrows + b.nrows, a.ncols + b.ncols,
                              [(0, 0, a), (a.nrows, a.ncols, b)])


def _whole(L):
    """Data (p, q, factors, flags) of a side that is not split further:
    identity basis changes and L itself, no factor when L is constant."""
    ident = Matrix.identity(QQ, L.d)
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

    so P = diag(pt, pb)*p and Q = p^-1*diag(qt, qb)."""
    conj = [p * m * pinv for m in L.mats]
    d = L.d
    head, tail = range(k), range(k, d)
    for m in conj[1:]:
        assert m.submatrix(head, tail).is_zero(), "split subspace is not invariant"
    pt, qt, top, top_flags = split_top(LinearMatrix([m.submatrix(head, head) for m in conj]))
    pb, qb, bottom, bottom_flags = split_bottom(
        LinearMatrix([m.submatrix(tail, tail) for m in conj]))
    factors = [_lift_factor(f, d, 0) for f in top]
    flags = list(top_flags)
    ds = [pb * m.submatrix(tail, head) * qt for m in conj[1:]]
    if any(not x.is_zero() for x in ds):
        factors.append(_unip_factor(ds, d, k))
        flags.append(True)
    factors.extend(_lift_factor(f, d, k) for f in bottom)
    flags.extend(bottom_flags)
    return _diag(pt, pb) * p, pinv * _diag(qt, qb), factors, flags


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
        cols = _complete_basis([w], d)
        pinv = Matrix.from_cols(QQ, cols[1:] + cols[:1])
        yield _split(L, pinv.inverse(), pinv, d - 1, small, _whole)
    if d == 3:
        for w, _lams in common_eigenlines(coeffs, "left", roots):
            p = Matrix(QQ, _complete_basis([w], d))
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
    pre = Matrix.identity(QQ, 3)
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
    return LinearMatrix([Matrix.identity(QQ, 4), mu_matrix(alpha), mv_matrix(beta)])


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
    orbit = [hmul(b, z).coords for b in Quaternion.basis(alpha, beta)]
    rows = [orbit[j] for j in Matrix.from_cols(QQ, orbit).pivot_cols()]
    r = len(rows)
    assert 1 <= r <= 3, "a zero divisor generates a proper nonzero left ideal"
    p = Matrix(QQ, _complete_basis(rows, 4))
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
    coefficients give the complementary zero divisor.
    """
    L = quaternion_linmat(alpha, beta)
    if f.d != 4 or g.d != 4:
        raise ValueError("expected 4x4 factors")
    ident4 = Matrix.identity(QQ, 4)
    cert = FactorizationCert(ident4, ident4, [f, g], [False, False])
    if not verify_cert(cert, L):
        raise ValueError("F*G does not equal the quaternion linear matrix")
    for factor in (f, g):
        if factor.degree == 0 or factor.is_unit():
            raise ValueError("unit factor: the factorization is trivial")

    g0inv = g.constant.inverse()
    assert g0inv is not None, "G(0,0) is invertible since F0*G0 = I"
    fn = f.rmul(g.constant)
    gn = g.lmul(g0inv)
    assert fn.constant == ident4 and gn.constant == ident4
    pad = lambda lin: list(lin.mats[1:]) + [Matrix.zeros(QQ, 4, 4)] * (2 - lin.n)
    fx, fy = pad(fn)
    gx, gy = pad(gn)
    for a in (fx, fy):
        for b_ in (gx, gy):
            assert (a * b_).is_zero(), "degree-2 coefficients must cancel"

    g_cols = gx.hstack(gy)
    cols = [g_cols.col(j) for j in g_cols.pivot_cols()]
    assert cols, "a non-unit right factor has nonzero linear part"
    assert len(cols) < 4, "a non-unit left factor forces a proper subspace"
    w_basis = Matrix.from_cols(QQ, cols)
    for m in (mu_matrix(alpha), mv_matrix(beta)):
        prod = m * w_basis
        joint = w_basis.hstack(prod)
        assert joint.rank() == len(cols), "W must be invariant under M_u and M_v"

    e1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    candidates = sorted(cols, key=lambda c: _normalize_line(c) == e1)
    for w in candidates:
        z2 = Quaternion(alpha, beta, w)
        pair = _left_orbit_dependency(z2)
        if pair is not None:
            return pair
    # Fall back to the annihilator of W: the coordinate space of a left
    # ideal, where the orbit dependency always exists.
    perp = Matrix(QQ, [tuple(c) for c in cols]).nullspace()
    for s in perp:
        z2 = Quaternion(alpha, beta, s)
        pair = _left_orbit_dependency(z2)
        if pair is not None:
            return pair
    raise SoundnessError("no zero divisor found; the factorization was not nontrivial")


def _left_orbit_dependency(z2):
    """Solve gamma0*w + gamma1*u*w + gamma2*v*w + gamma3*uv*w = 0."""
    basis = Quaternion.basis(z2.alpha, z2.beta)
    orbit = [hmul(b, z2).coords for b in basis]
    kernel = Matrix.from_cols(QQ, orbit).nullspace()
    if not kernel:
        return None
    gamma = kernel[0]
    z1 = Quaternion(z2.alpha, z2.beta, gamma)
    assert not z1.is_zero() and not z2.is_zero()
    if not hmul(z1, z2).is_zero():
        raise SoundnessError("dependency coefficients do not annihilate w")
    return z1, z2
