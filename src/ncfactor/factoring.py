"""Brute-force complete factorization over small prime fields.

This is the desk-scale oracle the reduction is verified against.  Left
factors of degree k are found exactly: once the k coefficients a monic
candidate g assigns to the proper prefixes of its (forced) leading word
are fixed, the whole cofactor h is determined by a triangular recurrence
over words in descending length, and g itself comes back by right
division.  Enumerating the |F_p|^k prefix assignments is therefore a
complete search, at a tiny fraction of the cost of enumerating all of g.

Complete factorizations are the maximal chains of f's own monic left
factors, so f is searched once per degree and every factor is a quotient.

Soundness is re-checked by exact multiplication on every factor found;
a failed check raises SoundnessError, also under `python -O`.

Budget contract: a search of degree-k left factors of f costs
p^k * (number of words of length <= deg f - k) recurrence steps.  One
`left_factors` call raises BudgetExceededError when its own cost passes
the budget; `is_irreducible` and `complete_factorizations` charge every
search they make against one counter, so a single call of either is
bounded as a whole; for `complete_factorizations` these are only the
searches on f.
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


def _search_steps(f, k):
    """Recurrence steps of one `left_factors(f, k)` call: p^k prefix
    assignments, each over every word of length <= deg f - k."""
    if f.is_zero() or not 1 <= k <= f.degree:
        return 0
    a = f.alphabet.size
    return f.field.p ** k * sum(a ** m for m in range(f.degree - k + 1))


def left_factors(f, k, budget=DEFAULT_BUDGET):
    """All monic degree-k left factors of f, in canonical order.

    Complete by the prefix-coefficient argument: if f = g*h with g monic
    of degree k, then lm(g) is the length-k prefix w0 of lm(f), and for
    every word v the coefficient of w0*v in f equals
    h(v) + sum_j g(w0[:j]) * h(w0[j:]*v), which determines h from the k
    prefix coefficients alone.  The recurrence runs on plain ints mod p;
    h becomes an NcPoly only when it has full degree, and g then comes
    back by `right_divide`.  The budget bounds the recurrence steps of
    this one call.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("left factors of the zero polynomial")
    d = f.degree
    if not 1 <= k <= d:
        return []
    steps = _search_steps(f, k)
    if steps > budget:
        raise BudgetExceededError(
            "left-factor search needs %d steps, limit %d" % (steps, budget))
    field = f.field
    p = field.p
    w0 = f.leading_monomial()[:k]
    suffixes = [w0[j:] for j in range(k)]
    a = f.alphabet.size
    rem_deg = d - k
    coeffs = {w: c.value for w, c in f.terms.items()}
    elems = [field.from_int(t) for t in range(p)]
    found = []
    seen = set()
    for assignment in product(range(p), repeat=k):
        active = [(suffixes[j], t) for j, t in enumerate(assignment) if t]
        eta = {}
        for v in _words_descending(a, rem_deg):
            val = coeffs.get(w0 + v, 0)
            for suffix, t in active:
                longer = eta.get(suffix + v)
                if longer is not None:
                    val -= t * longer
            val %= p
            if val:
                eta[v] = val
        # words come longest first, so the first key has the top degree
        if not eta or len(next(iter(eta))) != rem_deg:
            continue
        h = NcPoly(f.alphabet, field, {v: elems[t] for v, t in eta.items()})
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


def _metered(budget):
    """`left_factors` charged against one shared step counter: a search
    that would take the total past `budget` raises before it runs."""
    used = 0

    def search(g, k):
        nonlocal used
        steps = _search_steps(g, k)
        if used + steps > budget:
            raise BudgetExceededError(
                "factor search used %d of limit %d steps; the next left-factor "
                "search needs %d" % (used, budget, steps))
        used += steps
        return left_factors(g, k, budget)
    return search


def _poly_key(g):
    return tuple(sorted((w, c.value) for w, c in g.terms.items()))


def is_irreducible(f, budget=DEFAULT_BUDGET):
    """True when f (degree >= 1) has no nontrivial left factor; the
    budget bounds the steps of all its left-factor searches together."""
    _check_field(f)
    if f.is_zero() or f.degree < 1:
        raise ValueError("irreducibility is about polynomials of degree >= 1")
    search = _metered(budget)
    for k in range(1, f.degree):
        if search(f, k):
            return False
    return True


def complete_factorizations(f, budget=DEFAULT_BUDGET):
    """Every complete factorization of f, deduplicated and in canonical order.

    Factor lattice: the complete factorizations of the monic fm are the
    maximal chains 1 | m_1 | ... | fm of fm's own monic left factors, the
    factors being the quotients of consecutive links.  The nodes are 1,
    `left_factors(fm, k)` for k = 1..deg-1, and fm; a step a | b is a link
    when no node lies strictly between, and then its quotient q is
    irreducible, since a proper left factor q1 of q would make a*q1 a left
    factor of fm in between.  So only fm is searched, and every other
    polynomial is reached by division.  The budget bounds the recurrence
    steps of those searches together; a search that would pass it raises
    BudgetExceededError, naming the steps used against the limit.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    field = f.field
    lc, fm = f.monic()
    search = _metered(budget)
    nodes = [NcPoly.one(f.alphabet, field)]
    for k in range(1, fm.degree):
        nodes.extend(search(fm, k))
    if fm.degree:
        nodes.append(fm)
    # up[i][j] = q with nodes[j] = nodes[i] * q; nodes rise in degree
    up = [{} for _ in nodes]
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            if nodes[j].degree > a.degree:
                q = left_divide(nodes[j], a)
                if q is not None:
                    up[i][j] = q
    # tails[i]: the maximal chains from nodes[i] to fm, as quotient tuples
    tails = [None] * len(nodes)
    tails[-1] = [()]
    for i in range(len(nodes) - 2, -1, -1):
        tails[i] = [(q,) + tail for j, q in up[i].items()
                    if not any(j in up[m] for m in up[i])
                    for tail in tails[j]]
    factorizations = []
    for tail in tails[0]:
        acc = NcPoly.constant(f.alphabet, field, lc)
        for factor in tail:
            acc = acc * factor
        if acc != f:
            raise SoundnessError("factorization does not multiply back to f")
        factorizations.append((lc, tail))
    factorizations.sort(key=lambda fac: tuple(_poly_key(t) for t in fac[1]))
    return FactorizationTree(f, factorizations)
