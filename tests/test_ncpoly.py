import operator
import random
from fractions import Fraction

import pytest

from ncfactor.fields import GF2, GF3, QQ, PrimeField
from ncfactor.ncpoly import (Alphabet, NcPoly, bar, imbalance, left_divide,
                             right_divide, word_key)

AB = Alphabet.bivariate()
GF5 = PrimeField(5)


def biv(text, field=QQ):
    """Shorthand: sum of +1-coefficient monomials, '1' for the empty word."""
    return NcPoly(AB, field, [(AB.word_from_str(tok), field.one)
                              for tok in text.split("+")])


def rand_poly(rng, alphabet, field, max_deg=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_deg)))
        c = field.from_int(rng.randint(-3, 3)) if field is QQ else field.from_int(rng.randrange(field.p))
        terms.append((w, c))
    return NcPoly(alphabet, field, terms)


def rand_nonzero_coeff_poly(rng, alphabet, field):
    """Like rand_poly, but every drawn coefficient is nonzero."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, 3)))
        c = rng.choice([-3, -2, -1, 1, 2, 3]) if field is QQ else rng.randrange(1, field.p)
        terms.append((w, field.from_int(c)))
    return NcPoly(alphabet, field, terms)


def test_multiply_expansion():
    x, y = NcPoly.variable(AB, QQ, 0), NcPoly.variable(AB, QQ, 1)
    assert (x + y) * (x - y) == x * x - x * y + y * x - y * y


def test_multiply_identity():
    rng = random.Random(5)
    one = NcPoly.one(AB, QQ)
    for _ in range(10):
        f = rand_poly(rng, AB, QQ)
        assert f * one == f and one * f == f


def test_multiply_paper_example():
    x, y = NcPoly.variable(AB, QQ, 0), NcPoly.variable(AB, QQ, 1)
    one = NcPoly.one(AB, QQ)
    assert x * (one + y * x) == x + x * y * x


def test_alphabet_mismatch_rejected():
    f = NcPoly.variable(AB, QQ, 0)
    g = NcPoly.variable(Alphabet.nvars(3), QQ, 0)
    with pytest.raises(ValueError):
        f * g
    with pytest.raises(ValueError):
        NcPoly.variable(AB, QQ, 0) * NcPoly.variable(AB, GF2, 0)


def test_leading_monomial():
    assert biv("xy+yx").leading_monomial() == AB.word_from_str("xy")
    assert biv("x+yy").leading_monomial() == AB.word_from_str("yy")
    assert biv("xxyy+xyxy").leading_monomial() == AB.word_from_str("xxyy")
    with pytest.raises(ValueError):
        NcPoly.zero(AB, QQ).leading_monomial()


def test_degree_of_zero_is_sentinel():
    z = NcPoly.zero(AB, QQ)
    assert z.degree == float("-inf")
    assert z.degree < 0


def test_imbalance():
    assert imbalance(AB.word_from_str("xxy")) == 1
    assert imbalance(()) == 0
    assert imbalance(AB.word_from_str("xyxy")) == 0


def test_bar():
    assert bar(AB.word_from_str("xy")) == AB.word_from_str("yx")
    assert bar(AB.word_from_str("xxyy")) == AB.word_from_str("yyxx")
    assert bar(()) == ()
    rng = random.Random(1)
    for _ in range(50):
        w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 8)))
        assert bar(bar(w)) == w


def test_bar_reverses_order_on_equal_degree():
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(1, 7)
        w1 = tuple(rng.randrange(2) for _ in range(d))
        w2 = tuple(rng.randrange(2) for _ in range(d))
        if w1 == w2:
            continue
        assert (word_key(w1) < word_key(w2)) == (word_key(bar(w2)) < word_key(bar(w1)))


def test_left_divide_paper_examples():
    x, y = NcPoly.variable(AB, QQ, 0), NcPoly.variable(AB, QQ, 1)
    one = NcPoly.one(AB, QQ)
    f = x + x * y * x
    assert left_divide(f, x) == one + y * x
    assert left_divide(f, one + x * y) == x
    assert left_divide(x * y, y * x) is None


def test_left_divide_zero_divisor_rejected():
    with pytest.raises(ZeroDivisionError):
        left_divide(biv("xy"), NcPoly.zero(AB, QQ))


def test_division_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        alphabet = AB if rng.random() < 0.5 else Alphabet.nvars(3)
        field = QQ if rng.random() < 0.5 else GF2
        g = rand_poly(rng, alphabet, field)
        h = rand_poly(rng, alphabet, field)
        if g.is_zero() or h.is_zero():
            continue
        assert left_divide(g * h, g) == h
        assert right_divide(g * h, h) == g
    for field in (QQ, GF2, GF3, GF5):
        checked = 0
        for _ in range(40):
            alphabet = Alphabet.nvars(rng.randint(1, 3))
            g = rand_nonzero_coeff_poly(rng, alphabet, field)
            h = rand_nonzero_coeff_poly(rng, alphabet, field)
            if g.is_zero() or h.is_zero():
                continue
            assert left_divide(g * h, g) == h
            assert right_divide(g * h, h) == g
            checked += 1
        assert checked >= 25


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=["Q", "F2", "F3", "F5"])
def test_division_core_rejects_non_divisible(field):
    """g*h + 1 has no left factor g (nor right factor h) of degree >= 1:
    g*(q - h) = 1 would make g a unit."""
    rng = random.Random(30 + (0 if field is QQ else field.p))
    checked = 0
    for _ in range(40):
        alphabet = Alphabet.nvars(rng.randint(1, 3))
        g = rand_nonzero_coeff_poly(rng, alphabet, field)
        h = rand_nonzero_coeff_poly(rng, alphabet, field)
        if g.is_zero() or h.is_zero():
            continue
        f = g * h + NcPoly.one(alphabet, field)
        if g.degree >= 1:
            assert left_divide(f, g) is None
        if h.degree >= 1:
            assert right_divide(f, h) is None
        checked += 1
    assert checked >= 25
    x, y = NcPoly.variable(AB, field, 0), NcPoly.variable(AB, field, 1)
    assert left_divide(x * y, y) is None
    assert right_divide(x * y, x) is None
    assert right_divide(x, x * y) is None


def test_division_by_zero_names_its_side():
    with pytest.raises(ZeroDivisionError, match="left division"):
        left_divide(biv("xy"), NcPoly.zero(AB, QQ))
    with pytest.raises(ZeroDivisionError, match="right division"):
        right_divide(biv("xy"), NcPoly.zero(AB, QQ))


@pytest.mark.parametrize("field", [QQ, GF2, GF3, GF5], ids=["Q", "F2", "F3", "F5"])
def test_arithmetic_against_dict_reference(field):
    """+, -, *, scale, monic and both divisions against a plain-dict
    model on inputs built to cancel: repeated words passed to the
    constructor, words that cancel and then come back, a - a, and b
    holding the negation of some terms of a.  Coefficients are drawn as
    ints, handed to the constructor unreduced over F_p; the model keeps
    ints (mod p).  Every stored coefficient is a nonzero Fraction over Q
    and an int in (0, p) over F_p."""
    p = 0 if field is QQ else field.p
    ab = Alphabet.nvars(2)

    def model(pairs):
        out = {}
        for w, k in pairs:
            out[w] = out.get(w, 0) + k
        out = {w: k % p if p else k for w, k in out.items()}
        return {w: k for w, k in out.items() if k}

    def plain(f):
        for c in f.terms.values():
            if p:
                assert type(c) is int and 0 < c < p, "stored coefficient %r" % (c,)
            else:
                assert type(c) is Fraction and c != 0, "stored coefficient %r" % (c,)
        return dict(f.terms)

    def build(pairs):
        return NcPoly(ab, field, [(w, k if p else Fraction(k)) for w, k in pairs])

    def draw(rng):
        pairs = []
        for _ in range(rng.randint(0, 6)):
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 2)))
            k = rng.randint(-4, 4)
            pairs.append((w, k))
            if rng.random() < 0.5:
                pairs.append((w, -k))
                if rng.random() < 0.5:
                    pairs.append((w, rng.randint(-4, 4)))
        return pairs

    rng = random.Random(50 + p)
    scalars = random.Random(60 + p)
    for _ in range(80):
        a_pairs = draw(rng)
        a = build(a_pairs)
        assert plain(a) == model(a_pairs)
        b_pairs = draw(rng) + [(w, -k) for w, k in model(a_pairs).items()
                               if rng.random() < 0.5]
        b = build(b_pairs)
        ma, mb = list(model(a_pairs).items()), list(model(b_pairs).items())
        assert plain(a + b) == model(ma + mb)
        assert plain(a - b) == model(ma + [(w, -k) for w, k in mb])
        assert plain(a * b) == model([(w1 + w2, k1 * k2) for w1, k1 in ma for w2, k2 in mb])
        assert plain(a - a) == {} and (a - a).is_zero()
        assert plain(a + b - b) == plain(a)
        c = scalars.randint(-4, 4)
        assert plain(a.scale(field.from_int(c))) == model([(w, k * c) for w, k in ma])
        if not ma or not mb:
            continue
        lw = min(dict(ma), key=lambda w: (-len(w), w))
        lk = dict(ma)[lw]
        lc, am = a.monic()
        assert lc == lk and (type(lc) is int if p else type(lc) is Fraction)
        inv = pow(lk, p - 2, p) if p else Fraction(1, lk)
        assert plain(am) == model([(w, k * inv) for w, k in ma])
        assert plain(left_divide(a * b, a)) == model(mb)
        assert plain(right_divide(a * b, b)) == model(ma)

    # a word that cancels is dropped, and stored again after the others
    # when it comes back
    x, y = (0,), (1,)
    f = build([(x, 1), (y, 1), (x, -1), (x, 1)])
    assert list(f.terms) == [y, x] and plain(f) == model([(y, 1), (x, 1)])


def test_mixed_prime_fields_rejected():
    """An F_p coefficient is a bare int, so only `_compatible` keeps
    polynomials over F2 and F3 apart."""
    f = NcPoly.variable(AB, GF2, 0) + NcPoly.one(AB, GF2)
    g = NcPoly.variable(AB, GF3, 0) + NcPoly.one(AB, GF3)
    assert f.terms == g.terms and f != g
    for op in (operator.add, operator.sub, operator.mul, left_divide, right_divide):
        with pytest.raises(ValueError, match="alphabet/field mismatch"):
            op(f, g)


def test_support_and_leading_monomial_follow_word_key():
    rng = random.Random(40)
    for _ in range(30):
        f = rand_poly(rng, Alphabet.nvars(3), QQ, max_deg=4, max_terms=8)
        if f.is_zero():
            continue
        assert f.support() == sorted(f.terms, key=word_key, reverse=True)
        assert f.leading_monomial() == max(f.terms, key=word_key)


def test_degree_additivity_and_order_multiplicativity():
    rng = random.Random(10)
    for _ in range(60):
        f = rand_poly(rng, AB, QQ)
        g = rand_poly(rng, AB, QQ)
        if f.is_zero() or g.is_zero():
            continue
        prod = f * g
        assert prod.degree == f.degree + g.degree
        assert prod.leading_monomial() == f.leading_monomial() + g.leading_monomial()


def test_serialization_round_trip_and_canonical_bytes():
    rng = random.Random(12)
    for _ in range(20):
        alphabet = AB if rng.random() < 0.5 else Alphabet.nvars(4)
        field = QQ if rng.random() < 0.5 else GF2
        f = rand_poly(rng, alphabet, field)
        text = f.to_text()
        back = NcPoly.from_text(text)
        assert back == f
        assert back.to_text() == text


def test_serialization_formats():
    f = biv("xxyy+1")
    assert f.to_text() == "ncpoly field=Q alphabet=xy\n1 xxyy\n1 1\n"
    g = NcPoly(Alphabet.nvars(3), QQ, [((2, 0), QQ.one)])
    assert g.to_text() == "ncpoly field=Q alphabet=x1..x3\n1 x3.x1\n"
    assert NcPoly.from_text("ncpoly field=Q alphabet=xy\n").is_zero()


def test_alphabet_reads_only_canonical_names():
    """x1..x<n> holds n and reads a name back from its digits: only the
    spelling `word_to_str` writes is a name."""
    wide = Alphabet.nvars(12)
    assert [wide.index(wide.word_to_str((i,))) for i in range(12)] == list(range(12))
    for name in ("x01", "x0", "x13", "x+1", "x1_0", "x١", "x", "1", "y", "X1", ""):
        with pytest.raises(KeyError):
            wide.index(name)
    assert [AB.index(name) for name in "xy"] == [0, 1]
    with pytest.raises(KeyError):
        AB.index("x1")
    assert Alphabet.nvars(50000000).word_from_str("x50000000.x1") == (49999999, 0)
