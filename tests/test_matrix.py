import random
from fractions import Fraction

import pytest

from ncfactor.fields import GF2, GF3, QQ, PrimeField
from ncfactor.matrix import Matrix, rational_roots, upoly_eval


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


def cofactor_det(m):
    n = m.nrows
    if n == 1:
        return m[0][0]
    total = m.field.zero
    for j in range(n):
        sub = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = m[0][j] * cofactor_det(sub)
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
        if ref_rank(m.submatrix(range(m.nrows), kept + [j]).rows) > len(kept):
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
        assert m.rank() == ref_rank(m.rows)
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
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            s = a.field.zero
            for k in range(a.ncols):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _assert_product(a, b):
    prod = a * b
    ref = ref_product(a, b)
    assert prod.rows == ref
    assert [type(x) for r in prod.rows for x in r] == [type(x) for r in ref for x in r]
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
