import random
from fractions import Fraction

import pytest

from ncfactor.fields import GF3, QQ
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


def test_cayley_hamilton_on_random_matrices():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        coeffs = m.charpoly()
        acc = Matrix.zeros(QQ, n, n)
        power = Matrix.identity(QQ, n)
        for c in coeffs:
            acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


def test_charpoly_over_prime_field():
    m = Matrix.from_ints(GF3, [[1, 1], [0, 2]])
    assert m.charpoly() == (GF3(2), GF3(0), GF3(1))  # (t-1)(t-2) = t^2 - 3t + 2 = t^2 + 2


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


def test_det_matches_cofactor_expansion():
    def cofactor_det(m):
        n = m.nrows
        if n == 1:
            return m[0][0]
        total = Fraction(0)
        cols = list(range(1, n))
        for j in range(n):
            sub = m.submatrix(range(1, n), [c for c in range(n) if c != j])
            term = m[0][j] * cofactor_det(sub)
            total += term if j % 2 == 0 else -term
        return total

    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        assert m.det() == cofactor_det(m)
