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

Each search is planned once, and its per-assignment loop runs on
{word: int mod p} dicts, the form `NcPoly.terms` already has over F_p:
f's terms and the int cofactor go straight to the dict-level division
core `ncpoly._divide_terms`, and quotients are deduplicated as they
come.

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
from ncfactor.ncpoly import NcPoly, _divide_terms, left_divide

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
    first, each with f's coefficient at w0*v and the links (j, w0[j:]*v)
    for the keys among them.  read are the prefix indices j that some
    link reads; an unread prefix coefficient leaves h as it is, so only
    the read ones vary, the others staying 0.  The search costs
    p^len(read) * (len(rows) + 1) steps: every row, and one division,
    per assignment.
    """
    w0 = f.leading_monomial()[:k]
    suffixes = [w0[j:] for j in range(k)]
    top = {w[k:]: c for w, c in f.terms.items() if w[:k] == w0}
    words = set()
    todo = list(top)
    while todo:
        v = todo.pop()
        if v not in words:
            words.add(v)
            for s in suffixes:
                if v[:len(s)] == s:
                    todo.append(v[len(s):])
    rows = [(v, top.get(v, 0), [(j, s + v) for j, s in enumerate(suffixes) if s + v in words])
            for v in sorted(words, key=len, reverse=True)]
    read = sorted({j for _, _, links in rows for j, _ in links})
    return f.field.p ** len(read) * (len(rows) + 1), rows, read


class _SharedBudget(int):
    """A step limit shared by several searches: the int limit itself, so
    it reads as any budget does, plus the steps already charged to it."""

    def __new__(cls, limit):
        budget = super().__new__(cls, limit)
        budget.used = 0
        return budget


def _charge(budget, steps):
    """Charge a planned search to its budget, raising BudgetExceededError
    before the search runs when it does not fit."""
    if isinstance(budget, _SharedBudget):
        if budget.used + steps > budget:
            raise BudgetExceededError(
                "factor search used %d of limit %d steps; the next left-factor "
                "search needs %d" % (budget.used, budget, steps))
        budget.used += steps
    elif steps > budget:
        raise BudgetExceededError(
            "left-factor search needs %d steps, limit %d" % (steps, budget))


def left_factors(f, k, budget=DEFAULT_BUDGET):
    """All monic degree-k left factors of f, in canonical order.

    Complete by the prefix-coefficient argument: if f = g*h with g monic
    of degree k, then lm(g) is the length-k prefix w0 of lm(f), and for
    every word v the coefficient of w0*v in f equals
    h(v) + sum_j g(w0[:j]) * h(w0[j:]*v), which determines h from the k
    prefix coefficients alone.  The search is planned once, and each
    assignment of the prefix coefficients the plan reads runs the
    recurrence and one right division of f's terms (`_divide_terms`).
    Quotients are deduplicated as they come; only a new one becomes a
    polynomial g, checked monic of degree k and multiplied back against
    f.  The budget bounds the planned steps of this one call, or of
    every call sharing it.
    """
    _check_field(f)
    if f.is_zero():
        raise ValueError("left factors of the zero polynomial")
    if not 1 <= k <= f.degree:
        return []
    steps, rows, read = _plan(f, k)
    _charge(budget, steps)
    field = f.field
    p = field.p
    found = {}
    gamma = [0] * k
    for values in product(range(p), repeat=len(read)):
        for j, value in zip(read, values):
            gamma[j] = value
        eta = {}
        for v, val, links in rows:
            for j, key in links:
                val -= gamma[j] * eta.get(key, 0)
            val %= p
            if val:
                eta[v] = val
        quot = _divide_terms(f.terms, eta, False, p)
        if quot is None:
            continue
        key = tuple(sorted(quot.items()))
        if key in found:
            continue
        g = NcPoly(f.alphabet, field, quot)
        if g.degree != k or g.leading_coeff() != 1:
            raise SoundnessError("left factor is not monic of degree %d" % k)
        h = NcPoly(f.alphabet, field, eta)
        if g * h != f:
            raise SoundnessError("left factor times cofactor does not give f")
        found[key] = g
    return [found[key] for key in sorted(found)]


def _metered(budget):
    """`left_factors` charged against one shared step counter: a search
    that would take the total past `budget` raises before it runs."""
    shared = _SharedBudget(budget)
    return lambda g, k: left_factors(g, k, shared)


def _poly_key(g):
    return tuple(sorted(g.terms.items()))


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
