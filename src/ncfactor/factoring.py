"""Brute-force complete factorization over small prime fields.

This is the desk-scale oracle the reduction is verified against.  Left
factors of degree k are found exactly: once the k coefficients a monic
candidate g assigns to the proper prefixes of its (forced) leading word
are fixed, the whole cofactor h is determined by a triangular recurrence
over words in descending length, and g itself comes back by right
division.  Enumerating the |F_p|^k prefix assignments is therefore a
complete search, at a tiny fraction of the cost of enumerating all of g.

Soundness is re-checked by exact multiplication on every factor found;
a failed check raises SoundnessError, also under `python -O`.
"""

from __future__ import annotations

from itertools import product

from ncfactor.errors import BudgetExceededError, SoundnessError
from ncfactor.fields import PrimeField
from ncfactor.ncpoly import NcPoly, left_divide, right_divide

ORACLE_PRIMES = (2, 3, 5)
DEFAULT_BUDGET = 1 << 22


class FactorizationTree:
    """A polynomial together with all of its complete factorizations.

    Each factorization is (leading scalar, tuple of monic irreducible
    factors) whose exact product reproduces the polynomial.
    """

    __slots__ = ("polynomial", "factorizations")

    def __init__(self, polynomial, factorizations):
        self.polynomial = polynomial
        self.factorizations = tuple(factorizations)

    def __len__(self):
        return len(self.factorizations)

    def __iter__(self):
        return iter(self.factorizations)

    def __repr__(self):
        return "FactorizationTree(%d factorizations)" % len(self.factorizations)


def _check_field(f):
    if not isinstance(f.field, PrimeField) or f.field.p not in ORACLE_PRIMES:
        raise ValueError("the dense oracle runs over F_p for p in %s" % (ORACLE_PRIMES,))


def _words_descending(alphabet_size, max_len):
    """All words of length <= max_len, longest first (order within a
    length does not matter for the recurrence)."""
    for length in range(max_len, -1, -1):
        yield from product(range(alphabet_size), repeat=length)


def left_factors(f, k, budget=DEFAULT_BUDGET):
    """All monic degree-k left factors of f, in canonical order.

    Complete by the prefix-coefficient argument: if f = g*h with g monic
    of degree k, then lm(g) is the length-k prefix w0 of lm(f), and for
    every word v the coefficient of w0*v in f equals
    h(v) + sum_j g(w0[:j]) * h(w0[j:]*v), which determines h from the k
    prefix coefficients alone.  The budget counts recurrence steps.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("left factors of the zero polynomial")
    d = f.degree
    if not 1 <= k <= d:
        return []
    field = f.field
    p = field.p
    w0 = f.leading_monomial()[:k]
    suffixes = [w0[j:] for j in range(k)]
    a = f.alphabet.size
    rem_deg = d - k

    n_words = sum(a ** m for m in range(rem_deg + 1))
    steps = p ** k * n_words
    if steps > budget:
        raise BudgetExceededError(
            "left-factor search needs %d steps, budget %d" % (steps, budget))

    elems = [field.from_int(t) for t in range(p)]
    found = []
    seen = set()
    for assignment in product(range(p), repeat=k):
        gammas = [elems[t] for t in assignment]
        eta = {}
        for v in _words_descending(a, rem_deg):
            val = f.coeff(w0 + v)
            for j in range(k):
                if assignment[j]:
                    longer = eta.get(suffixes[j] + v)
                    if longer is not None:
                        val = val - gammas[j] * longer
            if val != field.zero:
                eta[v] = val
        h = NcPoly(f.alphabet, field, eta)
        if h.is_zero() or h.degree != rem_deg:
            continue
        g = right_divide(f, h)
        if g is None:
            continue
        key = _poly_key(g)
        if key in seen:
            continue
        seen.add(key)
        if g.degree != k or g.leading_coeff() != field.one:
            raise SoundnessError("left factor is not monic of degree %d" % k)
        if g * h != f:
            raise SoundnessError("left factor times cofactor does not give f")
        found.append(g)
    found.sort(key=_poly_key)
    return found


def _poly_key(g):
    return tuple(sorted((w, c.value) for w, c in g.terms.items()))


def is_irreducible(f, budget=DEFAULT_BUDGET):
    """True when f (degree >= 1) has no nontrivial left factor."""
    _check_field(f)
    if f.is_zero() or f.degree < 1:
        raise ValueError("irreducibility is about polynomials of degree >= 1")
    for k in range(1, f.degree):
        if left_factors(f, k, budget):
            return False
    return True


def complete_factorizations(f, budget=DEFAULT_BUDGET):
    """Every complete factorization of f, deduplicated and in canonical order.

    Recursion: a complete factorization is an irreducible monic left
    factor followed by a complete factorization of the cofactor.  The
    minimal-degree left factor is always irreducible, so 'no proper left
    factor' certifies irreducibility.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    field = f.field
    lc, fm = f.monic()
    memo = {}

    def rec(g):
        key = _poly_key(g)
        if key in memo:
            return memo[key]
        if g.degree == 0:
            memo[key] = {()}
            return memo[key]
        out = set()
        for k in range(1, g.degree):
            for left in left_factors(g, k, budget):
                if not irr(left):
                    continue
                rest = left_divide(g, left)
                for tail in rec(rest):
                    out.add((left,) + tail)
        if not out:
            out = {(g,)}
        memo[key] = out
        return out

    irr_memo = {}

    def irr(g):
        key = _poly_key(g)
        if key not in irr_memo:
            if g.degree < 1:
                irr_memo[key] = False
            else:
                irr_memo[key] = all(not left_factors(g, k, budget)
                                    for k in range(1, g.degree))
        return irr_memo[key]

    raw = rec(fm)
    factorizations = []
    for tail in raw:
        acc = NcPoly.constant(f.alphabet, field, lc)
        for factor in tail:
            acc = acc * factor
        if acc != f:
            raise SoundnessError("factorization does not multiply back to f")
        factorizations.append((lc, tail))
    factorizations.sort(key=lambda fac: tuple(_poly_key(t) for t in fac[1]))
    return FactorizationTree(f, factorizations)
