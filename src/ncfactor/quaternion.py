"""Generalized quaternion algebras over Q: u^2 = alpha, v^2 = beta, uv = -vu.

Elements are coordinate vectors in the basis {1, u, v, uv}.  The
regular representation used throughout matches the 4x4 matrices of the
linear-matrix gadget exactly: rep(z)[i][j] is the coefficient of basis
element j in z * (basis element i), so rep(u) and rep(v) are literally
M_u and M_v.  With this (row) convention rep reverses products:
rep(z1 * z2) = rep(z2) * rep(z1).

Coordinates and parameters are `Fraction`s.  `hmul` works on integers:
it brings each factor's coordinates over one denominator, multiplies
the numerators by the integer form of the defining relations, and
builds each coordinate of the product once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from ncfactor.errors import SoundnessError
from ncfactor.fields import QQ
from ncfactor.matrix import Matrix

SEARCH_MAX_BOUND = 5


class Quaternion:
    """Element a0 + a1*u + a2*v + a3*uv of H(alpha, beta)."""

    __slots__ = ("alpha", "beta", "coords")

    def __init__(self, alpha, beta, coords):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha == 0 or beta == 0:
            raise ValueError("quaternion parameters must be nonzero")
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != 4:
            raise ValueError("need four coordinates")
        self.alpha = alpha
        self.beta = beta
        self.coords = coords

    @classmethod
    def basis(cls, alpha, beta):
        e = lambda i: cls(alpha, beta, tuple(1 if j == i else 0 for j in range(4)))
        return e(0), e(1), e(2), e(3)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.alpha == other.alpha and self.beta == other.beta
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.alpha, self.beta, self.coords))

    def __mul__(self, other):
        return hmul(self, other)

    def __add__(self, other):
        self._check(other)
        return Quaternion(self.alpha, self.beta,
                          tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quaternion(self.alpha, self.beta, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def _check(self, other):
        if self.alpha != other.alpha or self.beta != other.beta:
            raise ValueError("quaternion parameter mismatch")

    def __repr__(self):
        names = ("", "u", "v", "uv")
        parts = []
        for c, name in zip(self.coords, names):
            if c != 0:
                parts.append("%s%s" % (c, name) if name else str(c))
        return "Quaternion(%s)" % (" + ".join(parts) if parts else "0")


def hmul(z1, z2):
    """Product in H(alpha, beta), expanded through the defining relations.

    On ints: with alpha = na/da, beta = nb/db and the coordinates over
    one denominator each, a_i = x_i/e1 and b_i = y_i/e2, every product
    coordinate is an integer form in the x_i and y_i over da*db*e1*e2;
    each becomes a Fraction once, at the end."""
    z1._check(z2)
    na, da = z1.alpha.numerator, z1.alpha.denominator
    nb, db = z1.beta.numerator, z1.beta.denominator
    e1, (x0, x1, x2, x3) = _over_one_denominator(z1.coords)
    e2, (y0, y1, y2, y3) = _over_one_denominator(z2.coords)
    ab, a, b = da * db, na * db, nb * da
    den = ab * e1 * e2
    z = object.__new__(Quaternion)
    z.alpha, z.beta = z1.alpha, z1.beta
    z.coords = (
        Fraction(ab * x0 * y0 + a * x1 * y1 + b * x2 * y2 - na * nb * x3 * y3, den),
        Fraction(ab * (x0 * y1 + x1 * y0) + b * (x3 * y2 - x2 * y3), den),
        Fraction(ab * (x0 * y2 + x2 * y0) + a * (x1 * y3 - x3 * y1), den),
        Fraction(ab * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1), den),
    )
    return z


def _over_one_denominator(coords):
    """(e, ints) with coords = ints / e, e the lcm of the denominators."""
    e = lcm(*(c.denominator for c in coords))
    return e, [c.numerator * (e // c.denominator) for c in coords]


def regular_representation(z):
    """Row i holds the coordinates of z * basis_i; rep(u) = M_u, rep(v) = M_v."""
    basis = Quaternion.basis(z.alpha, z.beta)
    return Matrix(QQ, [hmul(z, b).coords for b in basis])


def mu_matrix(alpha):
    a = Fraction(alpha)
    return Matrix(QQ, [
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [a, Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0), a, Fraction(0)],
    ])


def mv_matrix(beta):
    b = Fraction(beta)
    return Matrix(QQ, [
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
        [b, Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), -b, Fraction(0), Fraction(0)],
    ])


def is_zero_divisor(z):
    """A nonzero z kills some nonzero element iff its reduced norm
    a0^2 - alpha*a1^2 - beta*a2^2 + alpha*beta*a3^2 vanishes (Voight,
    Quaternion Algebras, GTM 288); det(regular_representation(z)) is
    the square of the norm."""
    if z.is_zero():
        raise ValueError("zero is not classified as a zero divisor")
    al, be = z.alpha, z.beta
    a0, a1, a2, a3 = z.coords
    return a0 * a0 - al * a1 * a1 - be * a2 * a2 + al * be * a3 * a3 == 0


def search_zero_divisor(alpha, beta, bound):
    """Exhaustive scan of integer coordinate vectors with entries in
    [-bound, bound]; returns the first zero divisor found, or None.

    With alpha = na/da and beta = nb/db, da*db times the reduced norm is
    the integer form da*db*a0^2 - na*db*a1^2 - nb*da*a2^2 + na*nb*a3^2,
    so each candidate is tested on ints; only the hit becomes a
    Quaternion, and `is_zero_divisor` re-checks it."""
    if bound > SEARCH_MAX_BOUND:
        raise ValueError("search bound capped at %d" % SEARCH_MAX_BOUND)
    one = Quaternion(alpha, beta, (1, 0, 0, 0))
    na, da = one.alpha.as_integer_ratio()
    nb, db = one.beta.as_integer_ratio()
    c0, c1, c2, c3 = da * db, -na * db, -nb * da, na * nb
    for coords in product(range(-bound, bound + 1), repeat=4):
        if coords == (0, 0, 0, 0):
            continue
        a0, a1, a2, a3 = coords
        if c0 * a0 * a0 + c1 * a1 * a1 + c2 * a2 * a2 + c3 * a3 * a3 == 0:
            z = Quaternion(alpha, beta, coords)
            if not is_zero_divisor(z):
                raise SoundnessError("integer norm form vanishes off the reduced norm")
            return z
    return None
