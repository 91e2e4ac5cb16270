import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from ncfactor.fields import GF2, GF3, QQ, PrimeField, PrimeFieldElement
from ncfactor.matrix import Matrix, integer_roots, rational_roots, upoly_eval


def rand_matrix(rng, n, lo=-4, hi=4):
    return Matrix(QQ, [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
                       for _ in range(n)])


def test_charpoly_identity_3x3():
    # (t-1)^3 = t^3 - 3t^2 + 3t - 1
    assert Matrix.identity(QQ, 3).charpoly() == (-1, 3, -3, 1)


def test_charpoly_companion():
    companion = Matrix.from_ints(QQ, [[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert companion.charpoly() == (-2, 0, 0, 1)


def test_charpoly_diagonal():
    assert Matrix.from_ints(QQ, [[1, 0], [0, 2]]).charpoly() == (2, -3, 1)


def test_charpoly_requires_square():
    with pytest.raises(ValueError):
        Matrix.from_ints(QQ, [[1, 2, 3], [4, 5, 6]]).charpoly()


def test_charpoly_dimension_cap():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 9).charpoly()


def _assert_cayley_hamilton(m):
    coeffs = m.charpoly()
    n = m.nrows
    assert len(coeffs) == n + 1 and coeffs[-1] == m.field.one
    acc = Matrix.zeros(m.field, n, n)
    power = Matrix.identity(m.field, n)
    for c in coeffs:
        acc = acc + power.scale(c)
        power = power * m
    assert acc.is_zero()


def test_cayley_hamilton_on_random_matrices():
    rng = random.Random(11)
    for _ in range(25):
        _assert_cayley_hamilton(rand_matrix(rng, rng.randint(1, 4)))
    for field in (GF2, GF3, PrimeField(5)):
        for n in range(1, 5):
            for _ in range(4):
                _assert_cayley_hamilton(Matrix.from_ints(
                    field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]))
    _assert_cayley_hamilton(rand_matrix(rng, 8))


def test_charpoly_over_prime_field():
    m = Matrix.from_ints(GF3, [[1, 1], [0, 2]])
    assert m.charpoly() == (GF3.from_int(2), GF3.zero, GF3.one)  # (t-1)(t-2) = t^2 - 3t + 2 = t^2 + 2


def test_rational_roots_quadratic():
    assert rational_roots((Fraction(2), Fraction(-3), Fraction(1))) == [
        (Fraction(1), 1), (Fraction(2), 1)]


def test_rational_roots_t3_minus_2():
    # candidates +-1, +-2 all fail by direct substitution
    p = (Fraction(-2), Fraction(0), Fraction(0), Fraction(1))
    for cand in (1, -1, 2, -2):
        assert upoly_eval(p, Fraction(cand)) != 0
    assert rational_roots(p) == []


def test_rational_roots_triple_root():
    assert rational_roots((Fraction(-1), Fraction(3), Fraction(-3), Fraction(1))) == [
        (Fraction(1), 3)]


def test_rational_roots_fractional_and_zero_roots():
    # t * (2t - 1) = 2t^2 - t
    assert rational_roots((Fraction(0), Fraction(-1), Fraction(2))) == [
        (Fraction(0), 1), (Fraction(1, 2), 1)]


def test_rational_roots_degree_cap_and_zero():
    with pytest.raises(ValueError):
        rational_roots((Fraction(1),) + (Fraction(0),) * 4 + (Fraction(1),))
    with pytest.raises(ValueError):
        rational_roots((Fraction(0),))


def _upoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_match_constructed_roots():
    """c * prod (b_i t - a_i)^m_i, degree <= 4, sometimes times t^2 - 2 or
    t^2 + 1 (no rational roots): the roots and multiplicities are known."""
    rng = random.Random(4242)
    seen = set()
    for _ in range(200):
        extra = rng.choice(((), (), (-2, 0, 1), (1, 0, 1)))
        budget = 4 - (2 if extra else 0)
        expected = {}
        poly = [Fraction(rng.choice((1, -1, 2, -3, 6, 10)), rng.choice((1, 1, 3, 7, 35)))]
        if extra:
            poly = _upoly_mul(poly, [Fraction(c) for c in extra])
        while budget and rng.random() < 0.8:
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            mult = rng.randint(1, budget)
            budget -= mult
            expected[root] = expected.get(root, 0) + mult
            for _ in range(mult):
                poly = _upoly_mul(poly, [Fraction(-root.numerator), Fraction(root.denominator)])
        assert rational_roots(tuple(poly)) == sorted(expected.items())
        seen.update(("zero" if r == 0 else "negative" if r < 0 else "positive")
                    for r in expected)
        seen.update("fractional" for r in expected if r.denominator > 1)
        seen.update("repeated" for m in expected.values() if m > 1)
        if abs(poly[-1]) != 1:
            seen.add("leading")
        if any(c.denominator > 1 for c in poly):
            seen.add("rational")
        if extra:
            seen.add(extra)
    assert seen == {"zero", "negative", "positive", "fractional", "repeated", "leading",
                    "rational", (-2, 0, 1), (1, 0, 1)}


def _trial_division_roots(coeffs):
    """Reference for `rational_roots`: the rational-root theorem on the
    integer form, each candidate +-num/den (num | a_0, den | a_n, divisors
    by trial division) tested by substitution, and each root divided out
    as often as it divides."""
    p = [Fraction(c) for c in coeffs]
    while p[-1] == 0:
        p.pop()
    roots = {}
    while p[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        p = p[1:]
    scale = lcm(*(c.denominator for c in p))
    ints = [int(c * scale) for c in p]

    def divisors(n):
        n = abs(n)
        return {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}

    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for r in (Fraction(num, den), Fraction(-num, den)):
                while len(p) > 1 and upoly_eval(p, r) == 0:
                    quotient = [Fraction(0)] * (len(p) - 1)
                    acc = Fraction(0)
                    for i in range(len(p) - 1, 0, -1):
                        acc = acc * r + p[i]
                        quotient[i - 1] = acc
                    p = quotient
                    roots[r] = roots.get(r, 0) + 1
    return sorted(roots.items())


def test_root_finder_matches_trial_division():
    """Seeded random polynomials of degree 1-4, c * t^z * prod (b t - a)
    times at most one factor without a rational root, some monic over
    the integers (`integer_roots`), the rest rational (`rational_roots`);
    both finders agree with the trial-division reference."""
    rng = random.Random(2024)
    no_root = ((-2, 0, 1), (1, 0, 1), (2, 1, 1), (-5, 0, 3), (1, 1, 1))
    seen = set()
    for trial in range(400):
        monic = trial % 2 == 0
        poly = [Fraction(1)] if monic else [
            Fraction(rng.choice((1, -1, 2, -3, 6, 10)), rng.choice((1, 1, 3, 7, 35)))]
        degree = rng.randint(1, 4)
        if degree >= 2 and rng.random() < 0.3:
            extra = rng.choice([e for e in no_root if e[-1] == 1 or not monic])
            poly = _upoly_mul(poly, [Fraction(c) for c in extra])
            seen.add("no-root")
            degree -= 2
        root = None
        for _ in range(degree):
            if root is not None and rng.random() < 0.3:
                pass  # the previous root again
            elif rng.random() < 0.15:
                root = Fraction(0)
            elif monic:
                root = Fraction(rng.randint(-30, 30))
            else:
                root = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            poly = _upoly_mul(poly, [-root.numerator, root.denominator] if not monic
                              else [-root, Fraction(1)])
        expected = _trial_division_roots(poly)
        if monic:
            ints = [int(c) for c in poly]
            assert integer_roots(ints) == [(int(r), m) for r, m in expected], poly
        assert rational_roots(tuple(poly)) == expected, poly
        seen.update("zero" for r, _m in expected if r == 0)
        seen.update("repeated" for _r, m in expected if m > 1)
        seen.update("fractional" for r, _m in expected if r.denominator > 1)
        seen.add("degree %d" % (len(poly) - 1))
    assert seen >= {"zero", "repeated", "fractional", "no-root",
                    "degree 1", "degree 2", "degree 3", "degree 4"}


def test_root_finder_on_large_roots():
    """Cubics with three roots of 20-60 digits, some with a double root,
    monic over the integers and divided by a leading coefficient; a
    polynomial that is not monic is refused by `integer_roots`."""
    rng = random.Random(60)
    for _ in range(20):
        roots = [rng.choice((1, -1)) * rng.randrange(10 ** 19, 10 ** 60) for _ in range(3)]
        if rng.random() < 0.5:
            roots[1] = roots[0]
        poly = [1]
        for r in roots:
            poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
        expected = sorted((r, roots.count(r)) for r in set(roots))
        assert integer_roots(poly) == expected
        lead = rng.randrange(2, 10 ** 6)
        scaled = [Fraction(c, lead) for c in poly]
        assert rational_roots(tuple(scaled)) == [(Fraction(r), m) for r, m in expected]
    with pytest.raises(ValueError):
        integer_roots([3, 2])


def test_integer_roots_keeps_only_exact_roots():
    """t^2 + t + 2 has the simple roots 0 and 1 modulo 2, and
    (t - 6)(t^2 - 7) the simple roots 0, 1 and 2 modulo 3 (after a double
    root modulo 2); every lift but 6 is no integer root, and the exact
    substitution check drops them, also under python -O."""
    assert integer_roots([2, 1, 1]) == []
    assert integer_roots([42, -7, -6, 1]) == [(6, 1)]
    assert rational_roots((Fraction(2), Fraction(1), Fraction(1))) == []


def test_nullspace_examples():
    assert len(Matrix.zeros(QQ, 2, 2).nullspace()) == 2
    assert Matrix.identity(QQ, 2).nullspace() == []
    basis = Matrix.from_ints(QQ, [[1, 1], [1, 1]]).nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[0] != 0


def test_nullspace_exactness_and_rank_law():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(cols)] for _ in range(rows)])
        basis = m.nullspace()
        assert len(basis) == cols - m.rank()
        zero = tuple(Fraction(0) for _ in range(rows))
        for v in basis:
            assert tuple(sum(r[j] * v[j] for j in range(cols)) for r in m.rows) == zero
        if basis:
            assert Matrix(QQ, basis).rank() == len(basis)


def test_inverse_and_det():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        inv = m.inverse()
        if m.det() == 0:
            assert inv is None
        else:
            assert m * inv == Matrix.identity(QQ, n)


def _ref(field, x):
    """x as a reference element, whose arithmetic shares no code with the
    package: a Fraction over Q, a PrimeFieldElement over F_p."""
    return PrimeFieldElement(x, field.p) if field.characteristic else Fraction(x)


def _refs(field, rows):
    return [[_ref(field, x) for x in r] for r in rows]


def _val(x):
    """A reference element as the package holds it: the residue over F_p."""
    return x.value if type(x) is PrimeFieldElement else x


def _vals(rows):
    return [[_val(x) for x in r] for r in rows]


def cofactor_det(m):
    n = m.nrows
    row = _refs(m.field, m.rows)[0]
    if n == 1:
        return row[0]
    total = _ref(m.field, 0)
    for j in range(n):
        sub = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = row[j] * cofactor_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def ref_rank(rows):
    """Textbook Gaussian elimination with field division, independent of
    the fraction-free core."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def greedy_independent_cols(m):
    """Keep each column that raises the rank of the columns kept so far."""
    kept = []
    for j in range(m.ncols):
        if ref_rank(_refs(m.field, m.submatrix(range(m.nrows), kept + [j]).rows)) > len(kept):
            kept.append(j)
    return kept


def test_det_matches_cofactor_expansion():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        assert m.det() == cofactor_det(m)


def _rand_low_rank(rng, field, nrows, ncols, entry):
    """Product of nrows x k and k x ncols random factors, so dependent
    columns and singular square matrices are common over Q too."""
    k = rng.randint(1, min(nrows, ncols))
    a = Matrix(field, [[entry() for _ in range(k)] for _ in range(nrows)])
    b = Matrix(field, [[entry() for _ in range(ncols)] for _ in range(k)])
    return a * b


ENTRIES = {
    "Q-int": (QQ, lambda rng: Fraction(rng.randint(-3, 3))),
    "Q-frac": (QQ, lambda rng: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))),
    "GF2": (GF2, lambda rng: GF2.from_int(rng.randrange(2))),
    "GF3": (GF3, lambda rng: GF3.from_int(rng.randrange(3))),
}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_core_against_references(kind):
    field, draw = ENTRIES[kind]
    rng = random.Random(kind)
    entry = lambda: draw(rng)
    seen_singular = seen_invertible = 0
    for trial in range(80):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        if trial % 2:
            ncols = nrows
        if trial % 3:
            m = Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)])
        else:
            m = _rand_low_rank(rng, field, nrows, ncols, entry)
        assert m.rank() == ref_rank(_refs(field, m.rows))
        assert m.pivot_cols() == greedy_independent_cols(m)
        kernel = m.nullspace()
        assert len(kernel) == ncols - m.rank()
        for v in kernel:
            assert (m * Matrix.from_cols(field, [v])).is_zero()
        if not m.is_square:
            continue
        assert m.det() == cofactor_det(m)
        inv = m.inverse()
        if m.det() == 0:
            assert inv is None
            seen_singular += 1
        else:
            ident = Matrix.identity(field, nrows)
            assert m * inv == ident and inv * m == ident
            seen_invertible += 1
    assert seen_singular and seen_invertible


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_core_on_zero_matrices(field):
    for nrows, ncols in ((1, 1), (2, 3), (3, 2), (3, 3)):
        z = Matrix.zeros(field, nrows, ncols)
        assert z.rank() == 0
        assert z.pivot_cols() == []
        assert z.nullspace() == [Matrix.identity(field, ncols).col(j) for j in range(ncols)]
        if z.is_square:
            assert z.det() == field.zero
            assert z.inverse() is None


def test_core_on_fractional_rows():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert m.det() == Fraction(1, 60)
    assert m.inverse() == Matrix.from_ints(QQ, [[12, -20], [-15, 30]])
    thirds = Matrix(QQ, [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(1)]])
    assert thirds.rank() == 1 and thirds.pivot_cols() == [0]
    assert thirds.nullspace() == [(Fraction(-2), Fraction(1))]


def ref_product(a, b):
    """Schoolbook triple loop over every index, zero entries included."""
    ra, rb = _refs(a.field, a.rows), _refs(b.field, b.rows)
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            s = _ref(a.field, 0)
            for k in range(a.ncols):
                s = s + ra[i][k] * rb[k][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _assert_product(a, b):
    prod = a * b
    assert prod.rows == ref_product(a, b)
    assert all(type(x) is type(a.field.one) for r in prod.rows for x in r)
    _assert_normal(prod)
    return prod


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_product_against_triple_loop(kind):
    field, draw = ENTRIES[kind]
    rng = random.Random("product-" + kind)

    def rand(nrows, ncols, density):
        return Matrix(field, [[draw(rng) if rng.random() < density else field.zero
                               for _ in range(ncols)] for _ in range(nrows)])

    for trial in range(60):
        density = 0.05 if trial % 2 else 1.0
        hi = 12 if density < 1 else 5
        n, k = rng.randint(1, hi), rng.randint(1, hi)
        m = n if trial % 3 == 0 else rng.randint(1, hi)
        _assert_product(rand(n, k, density), rand(k, m, density))


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_product_with_zero_and_identity_factors(field):
    rng = random.Random(7)
    for nrows, ncols in ((1, 1), (2, 3), (3, 2), (4, 4)):
        a = Matrix(field, [[field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
                           for _ in range(nrows)])
        assert _assert_product(a, Matrix.identity(field, ncols)) == a
        assert _assert_product(Matrix.identity(field, nrows), a) == a
        assert _assert_product(a, Matrix.zeros(field, ncols, 2)) == Matrix.zeros(field, nrows, 2)
        assert _assert_product(Matrix.zeros(field, 3, nrows), a) == Matrix.zeros(field, 3, ncols)
    with pytest.raises(ValueError):
        Matrix.identity(field, 2) * Matrix.identity(field, 3)


# -- differential test: every public op against a naive reference -------
#
# The reference works on tuples of reference elements (`_ref`) with their
# own + - * /, row by row, and shares no code with `Matrix`; `_vals`
# hands the same entries to `Matrix`.

F5 = PrimeField(5)
DIFF_FIELDS = (QQ, GF2, GF3, F5)


def _draw(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
    return _ref(field, rng.randrange(field.p))


def _rand_rows(rng, field, nrows, ncols):
    """Zero, rank-one, sparse or dense rows: singular shapes are common."""
    kind = rng.randrange(4)
    zero = _ref(field, 0)
    if kind == 0:
        return [[zero] * ncols for _ in range(nrows)]
    if kind == 1:
        u = [_draw(rng, field) for _ in range(nrows)]
        v = [_draw(rng, field) for _ in range(ncols)]
        return [[a * b for b in v] for a in u]
    density = 0.3 if kind == 2 else 1.0
    return [[_draw(rng, field) if rng.random() < density else zero
             for _ in range(ncols)] for _ in range(nrows)]


def _naive_rref(rows, field):
    """(reduced row echelon rows, pivot columns) by division."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0])):
        top = len(pivots)
        piv = next((i for i in range(top, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = _ref(field, 1) / rows[top][c]
        rows[top] = [x * inv for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    return rows, pivots


def _naive_nullspace(rows, field):
    rref, pivots = _naive_rref(rows, field)
    ncols = len(rows[0])
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [_ref(field, 0)] * ncols
        v[fc] = _ref(field, 1)
        for k, pc in enumerate(pivots):
            v[pc] = -rref[k][fc]
        out.append(tuple(v))
    return out


def _naive_inverse(rows, field):
    n = len(rows)
    aug = [list(r) + [_ref(field, int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = _naive_rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in rref)


def _poly_mul(a, b, field):
    out = [_ref(field, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_add(a, b, field):
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else _ref(field, 0)) for i, x in enumerate(a)]


def _laplace_det(entries, add, mul, neg, zero):
    """Determinant by expansion along the first row, over any ring."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = zero
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in entries[1:]]
        term = mul(entries[0][j], _laplace_det(minor, add, mul, neg, zero))
        total = add(total, term if j % 2 == 0 else neg(term))
    return total


def _naive_det(rows, field):
    return _laplace_det(rows, lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, _ref(field, 0))


def _naive_charpoly(rows, field):
    """det(tI - M) expanded over polynomials in t, ascending."""
    n = len(rows)
    zero, one = _ref(field, 0), _ref(field, 1)
    entries = [[[-x, one] if i == j else [-x] for j, x in enumerate(r)]
               for i, r in enumerate(rows)]
    poly = _laplace_det(entries, lambda a, b: _poly_add(a, b, field),
                        lambda a, b: _poly_mul(a, b, field), lambda a: [-x for x in a],
                        [zero])
    return tuple(poly + [zero] * (n + 1 - len(poly)))


def _assert_normal(m):
    """The representation invariants: int rows over one positive int
    denominator; over Q gcd(den, nums) = 1, over F_p residues and den = 1."""
    nums, den = m.nums, m.den
    assert type(nums) is tuple and all(type(r) is tuple for r in nums)
    assert type(den) is int and den > 0
    assert all(type(x) is int for r in nums for x in r)
    if m.field == QQ:
        assert gcd(den, *(x for r in nums for x in r)) == 1
    else:
        assert den == 1 and all(0 <= x < m.field.p for r in nums for x in r)


def _assert_rows(m, field, expected):
    """m holds exactly the elements `expected`, as values of the field's
    type (ints over F_p), in normal form."""
    _assert_normal(m)
    expected = tuple(tuple(r) for r in expected)
    assert m.field == field
    assert m.rows == expected
    assert (m.nrows, m.ncols) == (len(expected), len(expected[0]))
    kind = type(field.one)
    assert all(type(x) is kind for r in m.rows for x in r)
    for i, r in enumerate(expected):
        assert m[i] == r
    for j in range(m.ncols):
        assert m.col(j) == tuple(r[j] for r in expected)
    assert m.is_zero() == all(x == 0 for r in expected for x in r)


def test_matrix_ops_match_naive_reference():
    rng = random.Random("matrix-differential")
    seen = set()
    for field in DIFF_FIELDS:
        for trial in range(70):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            if trial % 2:
                ncols = nrows
            rows = _rand_rows(rng, field, nrows, ncols)
            m = Matrix(field, _vals(rows))
            _assert_rows(m, field, rows)
            other = _rand_rows(rng, field, nrows, ncols)
            o = Matrix(field, _vals(other))
            _assert_rows(m + o, field, [[a + b for a, b in zip(r, s)]
                                        for r, s in zip(rows, other)])
            _assert_rows(m - o, field, [[a - b for a, b in zip(r, s)]
                                        for r, s in zip(rows, other)])
            _assert_rows(-m, field, [[-a for a in r] for r in rows])
            c = _draw(rng, field)
            _assert_rows(m.scale(_val(c)), field, [[c * a for a in r] for r in rows])
            _assert_rows(m.transpose(), field, list(zip(*rows)))
            _assert_rows(m.hstack(o), field, [list(r) + list(s) for r, s in zip(rows, other)])
            _assert_rows(m.vstack(o.transpose().transpose()), field, rows + other)
            grid = [[_ref(field, 0)] * (ncols + 1) for _ in range(nrows + 1)]
            for row0, col0, block in ((0, 0, rows), (1, 1, other)):
                for i, r in enumerate(block):
                    grid[row0 + i][col0:col0 + ncols] = r
            _assert_rows(Matrix.from_blocks(field, nrows + 1, ncols + 1, [(0, 0, m), (1, 1, o)]),
                         field, grid)
            ri = sorted(rng.sample(range(nrows), rng.randint(1, nrows)))
            ci = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
            _assert_rows(m.submatrix(ri, ci), field, [[rows[i][j] for j in ci] for i in ri])
            k = rng.randint(1, 5)
            right = _rand_rows(rng, field, ncols, k)
            _assert_rows(m * Matrix(field, _vals(right)), field,
                         [[sum((r[t] * right[t][j] for t in range(ncols)), _ref(field, 0))
                           for j in range(k)] for r in rows])
            _assert_rows(Matrix.from_cols(field, [tuple(r) for r in _vals(rows)]), field,
                         list(zip(*rows)))
            rref, pivots = _naive_rref(rows, field)
            assert m.rank() == len(pivots)
            assert m.pivot_cols() == pivots
            assert m.nullspace() == _naive_nullspace(rows, field)
            seen.add("zero" if m.is_zero() else "rank-deficient"
                     if len(pivots) < min(nrows, ncols) else "full-rank")
            if nrows != ncols:
                seen.add("non-square")
                continue
            det = m.det()
            assert det == _naive_det(rows, field) and type(det) is type(field.one)
            inv = m.inverse()
            ref_inv = _naive_inverse(rows, field)
            if ref_inv is None:
                assert inv is None
                seen.add("singular")
            else:
                _assert_rows(inv, field, ref_inv)
            poly = m.charpoly()
            assert poly == _naive_charpoly(rows, field)
            assert all(type(x) is type(field.one) for x in poly)
        n = rng.randint(1, 5)
        _assert_rows(Matrix.identity(field, n), field,
                     [[_ref(field, int(i == j)) for j in range(n)] for i in range(n)])
        _assert_rows(Matrix.zeros(field, n, n + 1), field, [[_ref(field, 0)] * (n + 1)] * n)
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        _assert_rows(Matrix.from_ints(field, ints), field, _refs(field, ints))
    assert seen == {"zero", "rank-deficient", "full-rank", "non-square", "singular"}


def test_from_blocks_refuses_a_block_outside_the_matrix():
    block = Matrix(QQ, [[Fraction(1, 2), 1]])
    assert Matrix.from_blocks(QQ, 2, 3, [(1, 1, block)]).rows == (
        (0, 0, 0), (0, Fraction(1, 2), 1))
    for row0, col0 in ((2, 0), (0, 2)):
        with pytest.raises(ValueError):
            Matrix.from_blocks(QQ, 2, 3, [(row0, col0, block)])


def test_equal_matrices_from_differently_scaled_rows_are_equal():
    """Matrices equal as field elements compare equal and hash alike,
    however they were built: scaled up and back down, as a difference,
    as a double transpose or as a product with the identity."""
    rng = random.Random("matrix-equality")
    for field in DIFF_FIELDS:
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = _rand_rows(rng, field, nrows, ncols)
            m = Matrix(field, _vals(rows))
            c = _draw(rng, field)
            while c == 0:
                c = _draw(rng, field)
            scaled = Matrix(field, _vals([[c * x for x in r] for r in rows]))
            c, cinv = _val(c), _val(_ref(field, 1) / c)
            built = [
                scaled.scale(cinv),
                m.scale(c).scale(cinv),
                (m + m) - m,
                m.transpose().transpose(),
                Matrix.identity(field, nrows) * m,
                m.hstack(m).submatrix(range(nrows), range(ncols, 2 * ncols)),
            ]
            for b in built:
                _assert_normal(b)
                assert (b.nums, b.den) == (m.nums, m.den)
                assert b == m and hash(b) == hash(m)
            if not m.is_zero():
                assert m != m + Matrix.identity(field, max(nrows, ncols)).submatrix(
                    range(nrows), range(ncols))
                if c != field.one:
                    assert m.scale(c) != m
