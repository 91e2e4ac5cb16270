import random
import re
from itertools import product

import pytest

from ncfactor import factoring
from ncfactor.errors import BudgetExceededError, SoundnessError
from ncfactor.factoring import (_check_field, _metered, _plan, _poly_key,
                                complete_factorizations, is_irreducible,
                                left_factors)
from ncfactor.fields import GF2, GF3, QQ, PrimeField, PrimeFieldElement
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, left_divide, right_divide

AB = Alphabet.bivariate()


def rand_poly(rng, alphabet, field, max_deg=2, max_terms=3, nonzero=True):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_deg)))
        terms.append((w, field.from_int(rng.randrange(1, field.p))))
    f = NcPoly(alphabet, field, terms)
    if nonzero and f.is_zero():
        return NcPoly.one(alphabet, field)
    return f


def test_left_factors_paper_examples():
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    one = NcPoly.one(AB, GF2)
    f = x + x * y * x
    assert left_factors(f, 1) == [x]
    assert left_factors(f, 2) == [one + x * y]
    assert left_factors(x * x, 1) == [x]


def test_left_factors_match_naive_enumeration():
    """Independent oracle: enumerate every monic g over words of degree <= k
    and keep those whose left division succeeds."""
    from itertools import product as iproduct

    rng = random.Random(71)
    for _ in range(12):
        field = GF2 if rng.random() < 0.7 else GF3
        f = rand_poly(rng, AB, field, max_deg=2) * rand_poly(rng, AB, field, max_deg=1)
        if f.degree < 1:
            continue
        for k in range(1, f.degree + 1):
            words = []
            for length in range(k + 1):
                words.extend(iproduct(range(2), repeat=length))
            naive = []
            for coeffs in iproduct(range(field.p), repeat=len(words)):
                g = NcPoly(AB, field, [(w, field.from_int(c))
                                       for w, c in zip(words, coeffs)])
                if g.is_zero() or g.degree != k:
                    continue
                if g.leading_coeff() != field.one:
                    continue
                if left_divide(f, g) is not None:
                    naive.append(g)
            fast = left_factors(f, k)
            assert sorted(naive, key=lambda p: sorted(p.terms)) == \
                sorted(fast, key=lambda p: sorted(p.terms)), (f, k)


def test_left_factors_budget():
    x = NcPoly.variable(AB, GF2, 0)
    f = x
    for _ in range(6):
        f = f * (x + NcPoly.one(AB, GF2))
    with pytest.raises(BudgetExceededError):
        left_factors(f, 4, budget=10)


def _used_and_limit(exc):
    used, limit, need = map(int, re.search(
        r"used (\d+) of limit (\d+) steps; the next left-factor search needs (\d+)",
        str(exc.value)).groups())
    assert used <= limit < used + need
    return used, limit


def test_complete_factorizations_budget_is_cumulative():
    """x^4 over F2 searches k = 1, 2, 3 at 10, 16 and 6 steps: every
    search fits a budget of 16, the whole factorization does not.  Those
    three searches are all it makes, so 32 = 10 + 16 + 6 steps suffice."""
    x = NcPoly.variable(AB, GF2, 0)
    f = x * x * x * x
    assert [(s, fs) for s, fs in complete_factorizations(f)] == [(GF2.one, (x, x, x, x))]
    for k in (1, 2, 3):
        left_factors(f, k, budget=16)
    with pytest.raises(BudgetExceededError) as exc:
        complete_factorizations(f, budget=16)
    assert _used_and_limit(exc) == (10, 16)
    assert [(s, fs) for s, fs in complete_factorizations(f, budget=32)] == \
        [(GF2.one, (x, x, x, x))]
    with pytest.raises(BudgetExceededError) as exc:
        complete_factorizations(f, budget=31)
    assert _used_and_limit(exc) == (26, 31)


def test_plan_charges_the_rows_and_read_prefixes():
    """A search costs p^(read prefixes) * (rows + 1).  For x^4 over F2,
    k = 1 visits x^3, x^2, x, 1 and reads g(1); k = 2 visits x^2, x, 1 and
    reads g(1), g(x); k = 3 visits x, 1 and reads only g(x^2), since
    w0[j:] must fit in the d - k = 1 letters of a cofactor word."""
    x = NcPoly.variable(AB, GF2, 0)
    f = x * x * x * x
    plans = [_plan(f, k) for k in (1, 2, 3, 4)]
    assert [(steps, len(rows), read) for steps, rows, read in plans] == \
        [(10, 4, [0]), (16, 3, [0, 1]), (6, 2, [2]), (2, 1, [])]
    u = NcPoly.variable(AB, GF3, 0)
    assert _plan(u * u * u * u * u, 4)[0] == 3 * (2 + 1)


def test_complete_factorizations_searches_only_the_monic_input(monkeypatch):
    x = NcPoly.variable(AB, GF3, 0)
    y = NcPoly.variable(AB, GF3, 1)
    one = NcPoly.one(AB, GF3)
    f = ((x + x * y * x) * (y + one)).scale(GF3.from_int(2))
    calls = []

    def spy(g, k, budget):
        calls.append((g, k))
        return left_factors(g, k, budget)
    monkeypatch.setattr(factoring, "left_factors", spy)
    tree = complete_factorizations(f)
    assert len(tree) == 2
    assert calls == [(f.monic()[1], k) for k in range(1, f.degree)]


def test_each_search_is_planned_once(monkeypatch):
    """`complete_factorizations` plans each degree it searches exactly
    once: the budget charge and the search share one plan."""
    rng = random.Random(79)
    plan = factoring._plan
    calls = []
    monkeypatch.setattr(factoring, "_plan", lambda g, k: calls.append((g, k)) or plan(g, k))
    for n in range(12):
        field = (GF2, GF3, PrimeField(5))[n % 3]
        f = rand_poly(rng, AB, field, max_deg=2, max_terms=4) * rand_poly(rng, AB, field, max_deg=2)
        if f.degree < 2:
            continue
        complete_factorizations(f)
        assert calls == [(f.monic()[1], k) for k in range(1, f.degree)]
        calls.clear()
        left_factors(f, 1)
        assert calls == [(f, 1)]
        calls.clear()


def _reference_complete_factorizations(f, budget=factoring.DEFAULT_BUDGET):
    """The recursive oracle the factor lattice replaced: an irreducible
    left factor, certified by searching it, then a complete factorization
    of the cofactor, each searched again."""
    _check_field(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has no factorization")
    lc, fm = f.monic()
    search = _metered(budget)
    memo, irr_memo = {}, {}

    def irr(g):
        key = _poly_key(g)
        if key not in irr_memo:
            irr_memo[key] = g.degree >= 1 and all(not search(g, k) for k in range(1, g.degree))
        return irr_memo[key]

    def rec(g):
        key = _poly_key(g)
        if key not in memo:
            out = set() if g.degree else {()}
            for k in range(1, g.degree):
                for left in search(g, k):
                    if irr(left):
                        out.update((left,) + tail for tail in rec(left_divide(g, left)))
            memo[key] = out or {(g,)}
        return memo[key]

    factorizations = []
    for tail in rec(fm):
        acc = NcPoly.constant(f.alphabet, f.field, lc)
        for factor in tail:
            acc = acc * factor
        if acc != f:
            raise SoundnessError("factorization does not multiply back to f")
        factorizations.append((lc, tail))
    factorizations.sort(key=lambda fac: tuple(_poly_key(t) for t in fac[1]))
    return factorizations


def _outcome(oracle, f):
    try:
        return [(s, fs) for s, fs in oracle(f)]
    except Exception as exc:  # the exception type is part of the answer compared
        return type(exc)


def test_lattice_matches_recursive_oracle():
    rng = random.Random(78)
    fields = (GF2, GF3, PrimeField(5))
    several = 0
    for n in range(120):
        field = fields[n % 3]
        ab = Alphabet.nvars(rng.randint(1, 2))
        f = NcPoly.one(ab, field)
        for _ in range(rng.randint(2, 4)):
            f = f * rand_poly(rng, ab, field, max_deg=2 if field.p < 5 else 1)
        want = _outcome(_reference_complete_factorizations, f)
        assert _outcome(complete_factorizations, f) == want, f
        several += isinstance(want, list) and len(want) > 1
    assert several >= 30


def test_is_irreducible_budget_is_cumulative():
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    f = x * y * y * x + NcPoly.one(AB, GF2)
    assert is_irreducible(f, budget=10)
    with pytest.raises(BudgetExceededError) as exc:
        is_irreducible(f, budget=9)
    assert _used_and_limit(exc) == (8, 9)


def _reference_left_factors(f, k):
    """The oracle's recurrence on `PrimeFieldElement`s, written out
    plainly: every full-degree cofactor h, then g by right division."""
    field = f.field
    p = field.p
    w0 = f.leading_monomial()[:k]
    rem_deg = f.degree - k
    found = {}
    for assignment in product(range(p), repeat=k):
        gammas = [PrimeFieldElement(t, p) for t in assignment]
        eta = {}
        for length in range(rem_deg, -1, -1):
            for v in product(range(f.alphabet.size), repeat=length):
                val = PrimeFieldElement(f.coeff(w0 + v), p)
                for j in range(k):
                    longer = eta.get(w0[j:] + v)
                    if longer is not None:
                        val = val - gammas[j] * longer
                if val:
                    eta[v] = val
        h = NcPoly(f.alphabet, field, {v: c.value for v, c in eta.items()})
        if h.is_zero() or h.degree != rem_deg:
            continue
        g = right_divide(f, h)
        if g is not None and g * h == f:
            found[tuple(sorted(g.terms.items()))] = g
    return [found[key] for key in sorted(found)]


def test_left_factors_match_field_element_reference(monkeypatch):
    """Also checks the plan: it reads at most min(k, d - k) prefix
    coefficients, and each of its p^len(read) assignments makes the one
    division it is charged for."""
    rng = random.Random(77)
    fields = (GF2, GF3, PrimeField(5))
    products = 0
    searches = [0, 0]
    divisions = []
    divide = factoring._divide_terms
    monkeypatch.setattr(factoring, "_divide_terms",
                        lambda f, h, left, p: divisions.append(h) or divide(f, h, left, p))
    while products < 30:
        field = fields[products % 3]
        ab = Alphabet.nvars(rng.randint(1, 3))
        f = (rand_poly(rng, ab, field, max_deg=2, max_terms=4)
             * rand_poly(rng, ab, field, max_deg=2, max_terms=4))
        if f.degree < 2 or (field.p == 5 and f.degree > 3):
            continue
        products += 1
        for k in range(1, f.degree + 1):
            fast = left_factors(f, k)
            assert fast == _reference_left_factors(f, k), (f, k)
            searches[bool(fast)] += 1
            read = _plan(f, k)[2]
            assert len(read) <= min(k, f.degree - k)
            assert len(divisions) == field.p ** len(read)
            divisions.clear()
    assert min(searches) >= 10


def test_oracle_rejects_large_fields():
    f = NcPoly.variable(Alphabet.bivariate(), PrimeField(7), 0)
    with pytest.raises(ValueError):
        left_factors(f, 1)
    with pytest.raises(ValueError):
        is_irreducible(NcPoly.variable(AB, QQ, 0) * NcPoly.variable(AB, QQ, 0)
                       if False else f)


def test_complete_factorizations_non_ufd_witness():
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    one = NcPoly.one(AB, GF2)
    f = x + x * y * x
    tree = complete_factorizations(f)
    got = {tuple(factors) for _scalar, factors in tree}
    assert got == {(x, one + y * x), (one + x * y, x)}
    assert all(scalar == GF2.one for scalar, _ in tree)


def test_complete_factorizations_square():
    x = NcPoly.variable(AB, GF2, 0)
    tree = complete_factorizations(x * x)
    assert [(s, f) for s, f in tree] == [(GF2.one, (x, x))]


def test_four_term_example_is_irreducible():
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, GF2, [((2, 0), GF2.one), ((3, 1), GF2.one),
                          ((3, 0), GF2.one), ((4, 1), GF2.one)])
    tree = complete_factorizations(f)
    assert len(tree) == 1
    (scalar, factors), = tree
    assert factors == (f,)
    assert is_irreducible(f)


def test_four_term_example_rank_witness():
    """Independent cross-check: a product of two linear forms has a
    quadratic coefficient matrix of rank <= 1; this one has rank 2."""
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, GF2, [((2, 0), GF2.one), ((3, 1), GF2.one),
                          ((3, 0), GF2.one), ((4, 1), GF2.one)])
    rows = sorted({w[0] for w in f.terms})
    cols = sorted({w[1] for w in f.terms})
    m = Matrix(GF2, [[f.coeff((i, j)) for j in cols] for i in rows])
    assert m.rank() == 2


def test_is_irreducible_basics():
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    one = NcPoly.one(AB, GF2)
    assert is_irreducible(x)
    assert is_irreducible(x + y + one)
    assert not is_irreducible(x * x)
    assert is_irreducible(one + y * x)
    with pytest.raises(ValueError):
        is_irreducible(one)


def test_degree_one_always_irreducible():
    rng = random.Random(73)
    for _ in range(20):
        f = rand_poly(rng, AB, GF2, max_deg=1)
        if f.degree == 1:
            assert is_irreducible(f)


def test_completeness_on_random_products():
    rng = random.Random(74)
    checked = 0
    for _ in range(100):
        ab = Alphabet.nvars(rng.randint(1, 3))
        g = rand_poly(rng, ab, GF2, max_deg=2)
        h = rand_poly(rng, ab, GF2, max_deg=2)
        if g.degree < 1 or h.degree < 1:
            continue
        f = g * h
        tree = complete_factorizations(f)
        # some factorization must refine (g, h): a prefix product equals g
        found = False
        for _scalar, factors in tree:
            acc = NcPoly.one(ab, GF2)
            for factor in factors:
                acc = acc * factor
                if acc == g:
                    found = True
                    break
            if found:
                break
        assert found, (g, h)
        checked += 1
    assert checked >= 40


def test_soundness_products_and_monic_normalization():
    rng = random.Random(75)
    for _ in range(15):
        field = GF3 if rng.random() < 0.5 else GF2
        f = rand_poly(rng, AB, field, max_deg=2) * rand_poly(rng, AB, field, max_deg=1)
        if f.degree < 1:
            continue
        tree = complete_factorizations(f)
        assert len(tree) >= 1
        for scalar, factors in tree:
            acc = NcPoly.constant(AB, field, scalar)
            for factor in factors:
                assert factor.leading_coeff() == field.one
                acc = acc * factor
            assert acc == f


def test_embedding_preserves_factorizations_desk_scale():
    """Factorizations of phi(f) correspond 1-1 to factorizations of f."""
    from ncfactor.embedding import Embedding, phi_inverse_poly, phi_poly

    rng = random.Random(76)
    e = Embedding.for_variables(2, "compact")
    for _ in range(10):
        f = rand_poly(rng, Alphabet.nvars(2), GF2, max_deg=2)
        if f.degree < 1:
            continue
        img = phi_poly(f, e)
        tree_f = complete_factorizations(f)
        tree_img = complete_factorizations(img)
        pulled = set()
        for _scalar, factors in tree_img:
            back = []
            for factor in factors:
                pre = phi_inverse_poly(factor, e)
                assert pre is not None, "factor must lie in the embedding image"
                back.append(pre)
            pulled.add(tuple(back))
        assert pulled == {tuple(factors) for _s, factors in tree_f}


def _answers(f):
    """complete_factorizations and is_irreducible of f, or the type of
    what each raises."""
    try:
        irreducible = is_irreducible(f)
    except Exception as exc:  # the exception type is part of the answer compared
        irreducible = type(exc)
    return _outcome(complete_factorizations, f), irreducible


def test_top_component_filter_keeps_every_answer(monkeypatch):
    """The oracle answers the same with and without the top-component
    filter on seeded products over F2, F3 and F5 whose factors' top
    components have several words, so that the filter skips degrees."""
    rng = random.Random(79)
    fields = (GF2, GF3, PrimeField(5))
    skipped, several = [0, 0, 0], 0
    for n in range(90):
        field = fields[n % 3]
        ab = Alphabet.nvars(rng.randint(2, 3))
        f = NcPoly.one(ab, field)
        for _ in range(rng.randint(2, 3 if field.p < 5 else 2)):
            d = rng.randint(1, 2)
            top = [(tuple(rng.randrange(ab.size) for _ in range(d)), rng.randrange(1, field.p))
                   for _ in range(rng.randint(2, 3))]
            f = f * (NcPoly(ab, field, top) + rand_poly(rng, ab, field, max_deg=d - 1))
        if f.degree < 2:
            continue
        filtered = _answers(f)
        with monkeypatch.context() as m:
            m.setattr(factoring, "_top_splits", lambda g, k: True)
            assert _answers(f) == filtered, f
        skipped[n % 3] += sum(not factoring._top_splits(f, k) for k in range(1, f.degree))
        several += isinstance(filtered[0], list) and len(filtered[0]) > 1
    assert min(skipped) >= 10 and several >= 3


def test_top_component_filter_answers_paper_mode_images(monkeypatch):
    """Paper-mode images over F3 that lean on x1, of degree 28: searching
    every degree is planned at 1,456,575 steps for phi(x1*x1 + x1) and at
    144,635 for phi(x1*x2 + x1), while the top component leaves degree 14
    alone, at 567 and 189 steps.  With the filter both answer within
    10^5 steps, as f itself factors; without it both pass that budget."""
    from ncfactor.embedding import Embedding, phi_poly

    ab = Alphabet.nvars(2)
    x1, x2 = NcPoly.variable(ab, GF3, 0), NcPoly.variable(ab, GF3, 1)
    e = Embedding.for_variables(2, "paper")
    for f in (x1 * x1 + x1, x1 * x2 + x1):
        image = phi_poly(f, e)
        assert [k for k in range(1, 28) if factoring._top_splits(image, k)] == [14]
        assert len(complete_factorizations(image, budget=10 ** 5)) == \
            len(complete_factorizations(f))
        assert not is_irreducible(image, budget=10 ** 5)
        with monkeypatch.context() as m:
            m.setattr(factoring, "_top_splits", lambda g, k: True)
            with pytest.raises(BudgetExceededError):
                complete_factorizations(image, budget=10 ** 5)
