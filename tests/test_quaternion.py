import random
from fractions import Fraction
from itertools import product

import pytest

from ncfactor.quaternion import (Quaternion, hmul, is_zero_divisor, mu_matrix,
                                 mv_matrix, regular_representation,
                                 search_zero_divisor)


def test_basis_products():
    one, u, v, uv = Quaternion.basis(1, 1)
    assert hmul(u, v) == uv
    assert hmul(v, u) == -uv
    assert hmul(u, u) == one
    assert hmul(one - u, one + u).is_zero()


def test_relations_with_general_parameters():
    alpha, beta = Fraction(4), Fraction(-3)
    one, u, v, uv = Quaternion.basis(alpha, beta)
    assert hmul(u, u) == Quaternion(alpha, beta, (alpha, 0, 0, 0))
    assert hmul(v, v) == Quaternion(alpha, beta, (beta, 0, 0, 0))
    assert hmul(u, v) == uv
    assert hmul(v, u) == -uv
    # associativity on random triples
    rng = random.Random(81)
    for _ in range(30):
        z = [Quaternion(alpha, beta, tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)))
             for _ in range(3)]
        assert hmul(hmul(z[0], z[1]), z[2]) == hmul(z[0], hmul(z[1], z[2]))


def test_hmul_matches_the_fraction_formula():
    """Seeded differential test of the integer product against the
    defining relations written out on Fractions, with alpha, beta and the
    coordinates given denominators and zero coordinates."""
    rng = random.Random(188)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 35)))

    def reference(al, be, a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 + al * a1 * b1 + be * a2 * b2 - al * be * a3 * b3,
                a0 * b1 + a1 * b0 - be * a2 * b3 + be * a3 * b2,
                a0 * b2 + a2 * b0 + al * a1 * b3 - al * a3 * b1,
                a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1)

    seen = set()
    for _ in range(500):
        al, be = rational() or Fraction(-1), rational() or Fraction(3, 2)
        a, b = ([rational() if rng.random() < 0.7 else Fraction(0) for _ in range(4)]
                for _ in range(2))
        z = hmul(Quaternion(al, be, a), Quaternion(al, be, b))
        assert z.coords == reference(al, be, a, b)
        assert all(type(c) is Fraction for c in z.coords)
        assert (z.alpha, z.beta) == (al, be)
        seen.add(("alpha/", al.denominator > 1))
        seen.add(("beta/", be.denominator > 1))
        seen.update(("zero", c == 0) for c in a + b)
    assert seen == {(k, v) for k in ("alpha/", "beta/", "zero") for v in (False, True)}


def test_parameter_mismatch_and_zero_params():
    a = Quaternion(1, 1, (1, 0, 0, 0))
    b = Quaternion(1, 2, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        hmul(a, b)
    with pytest.raises(ValueError):
        Quaternion(0, 1, (1, 0, 0, 0))


def test_regular_representation_matches_gadget_matrices():
    for alpha, beta in ((1, 1), (4, 3), (Fraction(-1), Fraction(5, 2))):
        _one, u, v, _uv = Quaternion.basis(alpha, beta)
        assert regular_representation(u) == mu_matrix(alpha)
        assert regular_representation(v) == mv_matrix(beta)


def test_regular_representation_reverses_products():
    rng = random.Random(82)
    for _ in range(20):
        alpha = Fraction(rng.choice([1, 2, 4, -1, 9]))
        beta = Fraction(rng.choice([1, 2, 3, -3, 5]))
        z1 = Quaternion(alpha, beta, tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)))
        z2 = Quaternion(alpha, beta, tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)))
        assert regular_representation(hmul(z1, z2)) == \
            regular_representation(z2) * regular_representation(z1)


def test_is_zero_divisor():
    one, u, v, uv = Quaternion.basis(1, 1)
    assert is_zero_divisor(one - u)
    assert not is_zero_divisor(one)
    with pytest.raises(ValueError):
        is_zero_divisor(Quaternion(1, 1, (0, 0, 0, 0)))


def test_reduced_norm_matches_regular_representation():
    pairs = ((1, 1), (4, 3), (9, 5), (-1, -1), (-1, -3), (Fraction(5, 2), -1))
    split = set()
    for alpha, beta in pairs:
        for coords in product(range(-2, 3), repeat=4):
            if coords == (0, 0, 0, 0):
                continue
            z = Quaternion(alpha, beta, coords)
            singular = regular_representation(z).det() == 0
            assert is_zero_divisor(z) == singular, (alpha, beta, coords)
            if singular:
                split.add((alpha, beta))
    # H(9, 5) splits too, but its smallest zero divisors (3 - u, ...) lie
    # outside this box.
    assert split == {(1, 1), (4, 3), (Fraction(5, 2), -1)}


def test_hamilton_like_algebras_have_no_zero_divisors():
    rng = random.Random(83)
    for alpha, beta in ((-1, -1), (-1, -3)):
        for _ in range(200):
            coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
            if all(c == 0 for c in coords):
                continue
            assert not is_zero_divisor(Quaternion(alpha, beta, coords))


def test_search_zero_divisor():
    z = search_zero_divisor(1, 1, 1)
    assert z is not None and is_zero_divisor(z)
    assert search_zero_divisor(-1, -1, 3) is None
    z2 = search_zero_divisor(4, 3, 2)
    assert z2 is not None and is_zero_divisor(z2)
    # 2 - u is a witness the scan must be able to certify
    assert is_zero_divisor(Quaternion(4, 3, (2, -1, 0, 0)))
    with pytest.raises(ValueError):
        search_zero_divisor(1, 1, 6)


def test_search_matches_the_reduced_norm_scan():
    """The integer norm form finds the same first hit as scanning every
    candidate's Fraction reduced norm, also for non-integral alpha, beta."""
    params = (1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
    for alpha, beta in product(params, repeat=2):
        want = next((Quaternion(alpha, beta, c)
                     for c in product(range(-2, 3), repeat=4)
                     if c != (0, 0, 0, 0) and is_zero_divisor(Quaternion(alpha, beta, c))),
                    None)
        assert search_zero_divisor(alpha, beta, 2) == want


def test_search_is_deterministic():
    assert search_zero_divisor(1, 1, 1) == search_zero_divisor(1, 1, 1)
