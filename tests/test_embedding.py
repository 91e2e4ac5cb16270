import random

import pytest

from ncfactor.circuits import Abp, MatrixAssignment, circuit_from_poly
from ncfactor.embedding import (Embedding, decompose_balanced, naive_substitution,
                                phi_abp, phi_blackbox, phi_circuit, phi_inverse_poly,
                                phi_poly)
from ncfactor.fields import GF2, QQ
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, bar, imbalance
from ncfactor.words import is_minimally_balanced
from test_automaton import parse_into_words

AB = Alphabet.bivariate()


def rand_poly(rng, n, field, max_deg=3, max_terms=4):
    alphabet = Alphabet.nvars(n)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_deg)))
        c = field.from_int(rng.randint(-3, 3)) if field is QQ else field.from_int(rng.randrange(field.p))
        terms.append((w, c))
    return NcPoly(alphabet, field, terms)


def test_phi_poly_single_variable():
    e = Embedding.for_variables(1, "compact")
    x1 = NcPoly.variable(Alphabet.nvars(1), QQ, 0)
    assert phi_poly(x1, e) == NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)])


def test_phi_poly_product_of_two_variables():
    e = Embedding.for_variables(2, "compact")
    ab2 = Alphabet.nvars(2)
    f = NcPoly.monomial(ab2, QQ, (0, 1))
    img = phi_poly(f, e)
    words = {AB.word_to_str(w) for w in img.terms}
    assert words == {"xyxxyy", "xyyyxx", "yxxxyy", "yxyyxx"}


def test_phi_poly_zero_and_errors():
    e = Embedding.for_variables(1, "compact")
    assert phi_poly(NcPoly.zero(Alphabet.nvars(1), QQ), e).is_zero()
    with pytest.raises(ValueError):
        phi_poly(NcPoly.variable(Alphabet.nvars(3), QQ, 2), e)


def test_phi_is_ring_homomorphism():
    rng = random.Random(50)
    for mode in ("compact", "paper"):
        e = Embedding.for_variables(3, mode)
        for _ in range(15):
            field = QQ if rng.random() < 0.5 else GF2
            f = rand_poly(rng, 3, field, max_deg=2)
            g = rand_poly(rng, 3, field, max_deg=2)
            assert phi_poly(f * g, e) == phi_poly(f, e) * phi_poly(g, e)
            assert phi_poly(f + g, e) == phi_poly(f, e) + phi_poly(g, e)


def test_phi_injective_and_disjoint_monomial_images():
    rng = random.Random(51)
    e = Embedding.for_variables(3, "compact")
    for _ in range(30):
        f = rand_poly(rng, 3, QQ)
        g = rand_poly(rng, 3, QQ)
        if f == g:
            continue
        assert phi_poly(f, e) != phi_poly(g, e)
    # distinct monomials have disjoint support images
    seen = {}
    for w1 in [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 1)]:
        img = phi_poly(NcPoly.monomial(Alphabet.nvars(3), QQ, w1), e)
        for word in img.terms:
            assert word not in seen, (w1, seen[word])
            seen[word] = w1


def test_phi_image_is_balanced():
    rng = random.Random(52)
    for mode in ("compact", "paper"):
        e = Embedding.for_variables(2, mode)
        for _ in range(10):
            f = rand_poly(rng, 2, QQ)
            for word in phi_poly(f, e).terms:
                assert imbalance(word) == 0


def test_formula_circuits_expand_to_images():
    for mode in ("compact", "paper"):
        e = Embedding.for_variables(3, mode)
        for i in range(3):
            assert e.formula(QQ, i).expand() == e.image_poly(QQ, i)


def test_phi_circuit_matches_phi_poly():
    rng = random.Random(53)
    e = Embedding.for_variables(2, "compact")
    for _ in range(15):
        f = rand_poly(rng, 2, QQ, max_deg=3)
        c = circuit_from_poly(f)
        assert phi_circuit(c, e).expand() == phi_poly(f, e)


def test_phi_circuit_var_gate():
    e = Embedding.for_variables(1, "compact")
    c = circuit_from_poly(NcPoly.variable(Alphabet.nvars(1), QQ, 0))
    img = phi_circuit(c, e)
    assert img.expand() == NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)])


def test_phi_circuit_constant_circuit():
    e = Embedding.for_variables(2, "compact")
    c = circuit_from_poly(NcPoly.constant(Alphabet.nvars(2), QQ, QQ.from_int(5)))
    img = phi_circuit(c, e)
    assert img.alphabet == AB
    assert img.expand() == NcPoly.constant(AB, QQ, QQ.from_int(5))


def test_phi_abp_preserves_shape_and_semantics():
    rng = random.Random(54)
    ab2 = Alphabet.nvars(2)
    e = Embedding.for_variables(2, "compact")
    lbl = lambda *terms: NcPoly(ab2, QQ, list(terms))
    p = Abp(ab2, QQ, (1, 2, 1), [
        {(0, 0): lbl(((0,), QQ.one), ((), QQ.from_int(2))), (0, 1): lbl(((1,), QQ.one))},
        {(0, 0): lbl(((1,), QQ.one)), (1, 0): lbl(((0,), QQ.one))},
    ])
    img = phi_abp(p, e)
    assert isinstance(img, Abp)
    assert img.expand() == phi_poly(p.expand(), e)
    for _ in range(5):
        q = Abp(ab2, QQ, (1, rng.randint(1, 2), 1), [
            {(0, 0): lbl(((rng.randrange(2),), QQ.one), ((), QQ.from_int(rng.randint(0, 2))))},
            {(0, 0): lbl(((rng.randrange(2),), QQ.one))},
        ])
        assert phi_abp(q, e).expand() == phi_poly(q.expand(), e)


def test_phi_abp_zero_label_edge():
    ab2 = Alphabet.nvars(2)
    e = Embedding.for_variables(2, "compact")
    zero = NcPoly.zero(ab2, QQ)
    live = NcPoly(ab2, QQ, [((0,), QQ.one)])
    p = Abp(ab2, QQ, (1, 2, 1), [{(0, 0): live, (0, 1): zero},
                                 {(0, 0): live, (1, 0): live}])
    img = phi_abp(p, e)
    assert img.expand() == phi_poly(p.expand(), e)


def test_phi_blackbox_scalar_example():
    e = Embedding.for_variables(1, "compact")
    ab1 = Alphabet.nvars(1)
    bb = lambda assignment: assignment.mats[0]  # f = x1
    wrapped = phi_blackbox(bb, e, QQ)
    assign = MatrixAssignment(AB, QQ, (Matrix.from_ints(QQ, [[2]]),
                                       Matrix.from_ints(QQ, [[3]])))
    assert wrapped(assign) == Matrix.from_ints(QQ, [[12]])  # 2*3 + 3*2


def test_phi_blackbox_identity_assignment():
    e = Embedding.for_variables(2, "compact")
    ab2 = Alphabet.nvars(2)
    f = NcPoly.monomial(ab2, QQ, (0, 1))
    c = circuit_from_poly(f)
    bb = lambda assignment: c.evaluate(assignment)
    wrapped = phi_blackbox(bb, e, QQ)
    n = 3
    assign = MatrixAssignment(AB, QQ, (Matrix.identity(QQ, n), Matrix.identity(QQ, n)))
    assert wrapped(assign) == Matrix.identity(QQ, n).scale(QQ.from_int(4))


def test_phi_blackbox_agrees_with_phi_circuit():
    rng = random.Random(55)
    e = Embedding.for_variables(2, "compact")
    for _ in range(5):
        f = rand_poly(rng, 2, QQ, max_deg=2)
        c = circuit_from_poly(f)
        bb = lambda assignment: c.evaluate(assignment)
        wrapped = phi_blackbox(bb, e, QQ)
        embedded = phi_circuit(c, e)
        assign = MatrixAssignment.random(AB, QQ, 2, rng)
        assert wrapped(assign) == embedded.evaluate(assign)


def test_parse_into_words_prefix_free_unique():
    e = Embedding.for_variables(4, "compact")
    ws = e.wordset
    assert parse_into_words(ws.words[0] + ws.words[2] + ws.words[1], ws) == (0, 2, 1)
    assert parse_into_words((1, 0), ws) is None
    assert parse_into_words((), ws) == ()


def test_phi_inverse_examples():
    e = Embedding.for_variables(2, "compact")
    img = NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)])
    assert phi_inverse_poly(img, e) == NcPoly.variable(Alphabet.nvars(2), QQ, 0)
    assert phi_inverse_poly(NcPoly.monomial(AB, QQ, (0, 1)), e) is None


def test_phi_inverse_round_trip():
    rng = random.Random(56)
    for mode in ("compact", "paper"):
        e = Embedding.for_variables(3, mode)
        for _ in range(10):
            f = rand_poly(rng, 3, GF2, max_deg=2)
            assert phi_inverse_poly(phi_poly(f, e), e) == f


def test_naive_substitution_examples():
    ab1 = Alphabet.nvars(1)
    assert naive_substitution(NcPoly.variable(ab1, QQ, 0)) == \
        NcPoly.monomial(AB, QQ, (0, 1))
    assert naive_substitution(NcPoly.one(ab1, QQ)) == NcPoly.one(AB, QQ)
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, QQ, [((2, 0), QQ.one), ((3, 1), QQ.one),
                         ((3, 0), QQ.one), ((4, 1), QQ.one)])
    g1 = NcPoly(AB, QQ, [((0, 1, 1), QQ.one), ((0, 1, 1, 1), QQ.one)])
    g2 = NcPoly(AB, QQ, [((1, 0, 1), QQ.one), ((1, 1, 0, 1, 1), QQ.one)])
    assert naive_substitution(f) == g1 * g2


def test_decompose_balanced_examples():
    xy_yx = NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)])
    g, h = decompose_balanced(xy_yx)
    assert g == xy_yx and h.is_zero()

    yx = NcPoly.monomial(AB, QQ, (1, 0))
    g, h = decompose_balanced(yx)
    assert g.is_zero() and h == yx

    xy = NcPoly.monomial(AB, QQ, (0, 1))
    g, h = decompose_balanced(xy)
    assert g == xy_yx
    assert h == NcPoly(AB, QQ, [((1, 0), QQ.from_int(-1))])


def test_decompose_balanced_properties():
    from ncfactor.words import WordSet, minimally_balanced_up_to

    rng = random.Random(57)
    e = Embedding.for_variables(2, "compact")
    for _ in range(20):
        # random balanced polynomial: mix of images and mirrored junk
        f = phi_poly(rand_poly(rng, 2, QQ, max_deg=2), e)
        extra_word = bar(e.word(0)) + e.word(1)
        f = f + NcPoly.monomial(AB, QQ, extra_word, QQ.from_int(rng.randint(-2, 2)))
        g, h = decompose_balanced(f)
        assert g + h == f
        if not h.is_zero():
            m = h.leading_monomial()
            assert not all(is_minimally_balanced(s) for s in _segments(m))
        if not g.is_zero() and g.degree >= 2:
            # g lies in the subalgebra generated by all u + bar(u): it has a
            # preimage under the embedding built from every short word
            full = Embedding(WordSet(minimally_balanced_up_to(int(g.degree)),
                                     "compact"))
            assert phi_inverse_poly(g, full) is not None


def _segments(word):
    out = []
    run = 0
    start = 0
    for pos, c in enumerate(word):
        run += 1 if c == 0 else -1
        if run == 0:
            out.append(word[start:pos + 1])
            start = pos + 1
    return out


def test_decompose_balanced_rejects_unbalanced():
    with pytest.raises(ValueError):
        decompose_balanced(NcPoly.variable(AB, QQ, 0))
