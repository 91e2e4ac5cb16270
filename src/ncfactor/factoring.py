"""Brute-force complete factorization over small prime fields.

This is the desk-scale oracle the reduction is verified against.  Left
factors of degree k are found exactly: once the k coefficients a monic
candidate g assigns to the proper prefixes of its (forced) leading word
are fixed, the whole cofactor h is determined by a triangular recurrence
over words in descending length, and g itself comes back by right
division.  Enumerating the prefix assignments is therefore a complete
search, at a tiny fraction of the cost of enumerating all of g.  Only
the coefficients the recurrence reads vary: it reads g(w0[:j]) only
where w0[j:] is at most deg f - k long, so at most |F_p|^min(k, deg f - k)
assignments run.

Complete factorizations are the maximal chains of f's own monic left
factors, so f is searched once per degree and every factor is a quotient.

Soundness is re-checked by exact multiplication on every factor found;
a failed check raises SoundnessError, also under `python -O`.

Budget contract: a search is planned before it runs, and costs
p^r * (w + 1) steps, where r is the number of prefix coefficients its
recurrence reads, w the number of words it visits and the +1 the one
division each assignment makes.  One `left_factors` call raises
BudgetExceededError when its own cost passes the budget;
`is_irreducible` and `complete_factorizations` charge every search they
make against one counter, so a single call of either is bounded as a
whole; for `complete_factorizations` these are only the searches on f,
and the divisions between its lattice nodes are not charged.
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


def _plan(f, k):
    """(steps, rows, read): the recurrence for degree-k left factors of f
    (1 <= k <= deg f), built before any assignment runs.

    rows are the words v that can carry a cofactor coefficient (v with
    w0*v a word of f, or with w0[j:]*v such a word for some j), longest
    first, each with f's coefficient at w0*v and the keys w0[j:]*v among
    them.  read are the prefix indices j that some key reads; an unread
    prefix coefficient leaves h as it is, so only the read ones vary, the
    others staying 0.  The search costs p^len(read) * (len(rows) + 1)
    steps: every row, and one division, per assignment.
    """
    w0 = f.leading_monomial()[:k]
    suffixes = [w0[j:] for j in range(k)]
    coeffs = {w: c.value for w, c in f.terms.items()}
    words = set()
    todo = [w[k:] for w in coeffs if w[:k] == w0]
    while todo:
        v = todo.pop()
        if v not in words:
            words.add(v)
            todo.extend(v[len(s):] for s in suffixes if v[:len(s)] == s)
    rows = [(v, coeffs.get(w0 + v, 0),
             [(j, s + v) for j, s in enumerate(suffixes) if s + v in words])
            for v in sorted(words, key=len, reverse=True)]
    read = sorted({j for _, _, links in rows for j, _ in links})
    rows = [(v, c, [(read.index(j), key) for j, key in links]) for v, c, links in rows]
    return f.field.p ** len(read) * (len(rows) + 1), rows, read


def left_factors(f, k, budget=DEFAULT_BUDGET):
    """All monic degree-k left factors of f, in canonical order.

    Complete by the prefix-coefficient argument: if f = g*h with g monic
    of degree k, then lm(g) is the length-k prefix w0 of lm(f), and for
    every word v the coefficient of w0*v in f equals
    h(v) + sum_j g(w0[:j]) * h(w0[j:]*v), which determines h from the k
    prefix coefficients alone.  The recurrence runs on plain ints mod p
    over the rows `_plan` lists, once per assignment of the prefix
    coefficients it reads, and g comes back from h by `right_divide`.
    The budget bounds the planned steps of this one call.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("left factors of the zero polynomial")
    if not 1 <= k <= f.degree:
        return []
    steps, rows, read = _plan(f, k)
    if steps > budget:
        raise BudgetExceededError(
            "left-factor search needs %d steps, limit %d" % (steps, budget))
    field = f.field
    p = field.p
    elems = [field.from_int(t) for t in range(p)]
    found = []
    seen = set()
    for assignment in product(range(p), repeat=len(read)):
        eta = {}
        for v, val, links in rows:
            for j, key in links:
                val -= assignment[j] * eta.get(key, 0)
            val %= p
            if val:
                eta[v] = val
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
        steps = _plan(g, k)[0]
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
