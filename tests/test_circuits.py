import random
from fractions import Fraction
from pathlib import Path

import pytest

from ncfactor import textio
from ncfactor.circuits import (Abp, Circuit, CircuitBuilder, MatrixAssignment,
                               affine_from_str, affine_to_str, circuit_from_poly,
                               equal_whp, eval_word)
from ncfactor.errors import BudgetExceededError, FormatError
from ncfactor.fields import GF2, QQ, parse_field
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly

AB = Alphabet.bivariate()
AB2 = Alphabet.nvars(2)


def rand_poly(rng, alphabet, field, max_deg=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(alphabet.size) for _ in range(rng.randint(0, max_deg)))
        c = field.from_int(rng.randint(-3, 3)) if field is QQ else field.from_int(rng.randrange(field.p))
        terms.append((word, c))
    return NcPoly(alphabet, field, terms)


def test_evaluate_product_of_matrix_units():
    b = CircuitBuilder(AB2, QQ)
    out = b.mul(b.var(0), b.var(1))
    c = b.build(out)
    e12 = Matrix.from_ints(QQ, [[0, 1], [0, 0]])
    e21 = Matrix.from_ints(QQ, [[0, 0], [1, 0]])
    assign = MatrixAssignment(AB2, QQ, (e12, e21))
    assert c.evaluate(assign) == Matrix.from_ints(QQ, [[1, 0], [0, 0]])


def test_evaluate_at_identity_sums_coefficients():
    rng = random.Random(4)
    for _ in range(10):
        f = rand_poly(rng, AB, QQ)
        c = circuit_from_poly(f)
        n = 3
        assign = MatrixAssignment(AB, QQ, (Matrix.identity(QQ, n), Matrix.identity(QQ, n)))
        total = sum(f.terms.values(), QQ.zero)
        assert c.evaluate(assign) == Matrix.identity(QQ, n).scale(total)


def test_abp_single_edge_affine():
    label = NcPoly(AB, QQ, [((), Fraction(2)), ((0,), Fraction(1))])  # 2 + x
    p = Abp(AB, QQ, (1, 1), [{(0, 0): label}])
    assign = MatrixAssignment(AB, QQ, (Matrix.from_ints(QQ, [[3]]), Matrix.from_ints(QQ, [[0]])))
    assert p.evaluate(assign) == Matrix.from_ints(QQ, [[5]])


def test_expand_square():
    b = CircuitBuilder(AB, QQ)
    s = b.add(b.var(0), b.var(1))
    c = b.build(b.mul(s, s))
    x, y = NcPoly.variable(AB, QQ, 0), NcPoly.variable(AB, QQ, 1)
    assert c.expand(degree_bound=2) == x * x + x * y + y * x + y * y


def test_expand_const_zero():
    b = CircuitBuilder(AB, QQ)
    c = b.build(b.const(QQ.zero))
    assert c.expand().is_zero()


def test_expand_budget():
    b = CircuitBuilder(AB, QQ)
    s = b.add(b.var(0), b.var(1))
    for _ in range(4):
        s = b.mul(s, s)
    c = b.build(s)
    with pytest.raises(BudgetExceededError):
        c.expand(budget=100)


def test_expand_refuses_a_product_before_it_runs(monkeypatch):
    """(x+y)^5 squared touches 32*32 = 1024 pairs of terms: with budget
    1000 no product of that size may be computed at all."""
    b = CircuitBuilder(AB, QQ)
    s = b.add(b.var(0), b.var(1))
    p = s
    for _ in range(4):
        p = b.mul(p, s)
    c = b.build(b.mul(p, p))
    touched = []
    real_mul = NcPoly.__mul__

    def spy(f, g):
        touched.append(len(f.terms) * len(g.terms))
        return real_mul(f, g)

    monkeypatch.setattr(NcPoly, "__mul__", spy)
    with pytest.raises(BudgetExceededError, match="touches 1024 terms, budget 1000"):
        c.expand(budget=1000)
    assert touched == [4, 8, 16, 32]


def test_expand_budget_counts_terms_touched_not_kept():
    """Over F2, (x+1)(x+1) = x^2 + 1 keeps 2 terms but touches 4."""
    b = CircuitBuilder(AB, GF2)
    s = b.add(b.var(0), b.const(GF2.one))
    c = b.build(b.mul(s, s))
    assert len(c.expand(budget=4).terms) == 2
    with pytest.raises(BudgetExceededError):
        c.expand(budget=3)


def test_abp_expand_refuses_a_product_before_it_runs():
    """Two layers labelled 1 + x + y: the second product touches 3*3 = 9
    pairs of terms, though the expansion keeps only 7."""
    label = NcPoly(AB, QQ, [((), QQ.one), ((0,), QQ.one), ((1,), QQ.one)])
    p = Abp(AB, QQ, (1, 1, 1), [{(0, 0): label}, {(0, 0): label}])
    assert len(p.expand(budget=9).terms) == 7
    with pytest.raises(BudgetExceededError):
        p.expand(budget=8)


def test_expand_degree_bound():
    b = CircuitBuilder(AB, QQ)
    c = b.build(b.mul(b.var(0), b.var(0)))
    with pytest.raises(ValueError):
        c.expand(degree_bound=1)


def test_substitute_identity_map():
    rng = random.Random(8)
    for _ in range(10):
        f = rand_poly(rng, AB2, QQ)
        c = circuit_from_poly(f)
        idmap = {}
        for v in c.variables():
            b = CircuitBuilder(AB2, QQ)
            idmap[v] = b.build(b.var(v))
        assert c.substitute(idmap).expand() == f if idmap else True


def test_substitute_single_variable():
    b = CircuitBuilder(Alphabet.nvars(1), QQ)
    c = b.build(b.var(0))
    target = circuit_from_poly(NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)]))
    sub = c.substitute({0: target})
    assert sub.expand() == NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)])


def test_substitute_naive_map_matches_product():
    # x_i -> x y^i on x3x1 + x4x2 + x4x1 + x5x2 factors as
    # (xy2 + xy3)(yxy + y2xy2)
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, QQ, [((2, 0), QQ.one), ((3, 1), QQ.one),
                         ((3, 0), QQ.one), ((4, 1), QQ.one)])
    c = circuit_from_poly(f)
    mapping = {}
    for v in c.variables():
        b = CircuitBuilder(AB, QQ)
        mapping[v] = b.build(b.word((0,) + (1,) * (v + 1)))
    image = c.substitute(mapping).expand()
    g1 = NcPoly(AB, QQ, [((0, 1, 1), QQ.one), ((0, 1, 1, 1), QQ.one)])
    g2 = NcPoly(AB, QQ, [((1, 0, 1), QQ.one), ((1, 1, 0, 1, 1), QQ.one)])
    assert image == g1 * g2


def test_substitute_requires_all_variables():
    b = CircuitBuilder(AB2, QQ)
    c = b.build(b.add(b.var(0), b.var(1)))
    sub = CircuitBuilder(AB, QQ)
    with pytest.raises(ValueError):
        c.substitute({0: sub.build(sub.var(0))})


def test_substitution_commutes_with_expansion():
    rng = random.Random(21)
    for _ in range(15):
        f = rand_poly(rng, AB2, QQ, max_deg=2)
        c = circuit_from_poly(f)
        images = {v: rand_poly(rng, AB, QQ, max_deg=2, max_terms=2)
                  for v in range(2)}
        mapping = {v: circuit_from_poly(images[v]) for v in c.variables()}
        direct = NcPoly.zero(AB, QQ)
        for word, coeff in f.terms.items():
            term = NcPoly.constant(AB, QQ, coeff)
            for letter in word:
                term = term * images[letter]
            direct = direct + term
        if c.variables():
            assert c.substitute(mapping).expand() == direct


def test_evaluate_is_gatewise_ring_homomorphism():
    """evaluate agrees with the exact expansion evaluated term by term."""
    rng = random.Random(19)
    for _ in range(15):
        f = rand_poly(rng, AB2, QQ)
        c = circuit_from_poly(f)
        assign = MatrixAssignment.random(AB2, QQ, 2, rng)
        direct = Matrix.zeros(QQ, 2, 2)
        for word, coeff in f.terms.items():
            direct = direct + eval_word(word, assign).scale(coeff)
        assert c.evaluate(assign) == direct


def test_equal_whp():
    rng = random.Random(17)
    f = rand_poly(rng, AB, QQ)
    c1 = circuit_from_poly(f)
    c2 = circuit_from_poly(f)
    assert equal_whp(c1, c2, 4, seed=1)
    x = circuit_from_poly(NcPoly.variable(AB, QQ, 0))
    y = circuit_from_poly(NcPoly.variable(AB, QQ, 1))
    assert not equal_whp(x, y, 1, seed=1)


def test_equal_whp_embedded_circuit_vs_reread_expansion():
    from ncfactor.embedding import Embedding, phi_circuit

    rng = random.Random(18)
    e = Embedding.for_variables(2, "compact")
    for _ in range(5):
        f = rand_poly(rng, AB2, QQ, max_deg=2)
        c = phi_circuit(circuit_from_poly(f), e)
        reread = circuit_from_poly(NcPoly.from_text(c.expand().to_text()))
        bound = max(1, int(c.expand().degree if c.expand() else 1))
        assert equal_whp(c, reread, bound, seed=3)


def test_equal_whp_accepts_abp_operands():
    rng = random.Random(20)
    p = rand_abp(rng, AB, QQ)
    c = circuit_from_poly(p.expand())
    bound = max(1, int(p.expand().degree if p.expand() else 1))
    assert equal_whp(p, c, bound, seed=4)


def test_equal_whp_never_false_unequal():
    rng = random.Random(23)
    for trial in range(10):
        f = rand_poly(rng, AB, GF2)
        b = CircuitBuilder(AB, GF2)
        # two structurally different circuits for f + f = 0-shifted variants
        c1 = circuit_from_poly(f)
        c2 = circuit_from_poly(NcPoly(AB, GF2, dict(f.terms)))
        assert equal_whp(c1, c2, max(0, int(f.degree if f else 0)) or 1, seed=trial)


def abp_paths_expand(p):
    """Independent oracle: enumerate source->sink paths explicitly."""
    total = NcPoly.zero(p.alphabet, p.field)

    def rec(layer, node, acc):
        nonlocal total
        if layer == p.n_layers - 1:
            if node == 0:
                total = total + acc
            return
        for (u, v), label in p.edges[layer].items():
            if u == node:
                rec(layer + 1, v, acc * label)

    rec(0, 0, NcPoly.one(p.alphabet, p.field))
    return total


def rand_abp(rng, alphabet, field, layers=3, width=2):
    sizes = [1] + [rng.randint(1, width) for _ in range(layers - 2)] + [1]
    edges = []
    for k in range(layers - 1):
        block = {}
        for u in range(sizes[k]):
            for v in range(sizes[k + 1]):
                if rng.random() < 0.8:
                    terms = [((), field.from_int(rng.randint(-2, 2)))]
                    for i in range(alphabet.size):
                        terms.append(((i,), field.from_int(rng.randint(-2, 2))))
                    block[(u, v)] = NcPoly(alphabet, field, terms)
        edges.append(block)
    return Abp(alphabet, field, sizes, edges)


def test_abp_expand_matches_path_enumeration():
    rng = random.Random(31)
    for _ in range(20):
        p = rand_abp(rng, AB2, QQ, layers=rng.randint(2, 4))
        assert p.expand() == abp_paths_expand(p)


def test_abp_evaluate_matches_expand_on_matrices():
    rng = random.Random(37)
    for _ in range(10):
        p = rand_abp(rng, AB, QQ)
        f = p.expand()
        assign = MatrixAssignment.random(AB, QQ, 2, rng)
        direct = Matrix.zeros(QQ, 2, 2)
        for word, coeff in f.terms.items():
            direct = direct + eval_word(word, assign).scale(coeff)
        assert p.evaluate(assign) == direct


def test_abp_layer_validation():
    with pytest.raises(ValueError):
        Abp(AB, QQ, (2, 1), [{}])
    with pytest.raises(ValueError):
        Abp(AB, QQ, (1, 1), [{(0, 0): NcPoly.monomial(AB, QQ, (0, 1))}])


def test_circuit_text_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        c = circuit_from_poly(rand_poly(rng, AB2, GF2))
        text = c.to_text()
        back = Circuit.from_text(text)
        assert back.to_text() == text
        assert back.expand() == c.expand()


def test_circuit_text_errors():
    with pytest.raises(FormatError):
        Circuit.from_text("nope\n")
    with pytest.raises(FormatError):
        Circuit.from_text("ncc field=Q alphabet=xy\ng0 = VAR z\noutput g0\n")
    with pytest.raises(FormatError):
        Circuit.from_text("ncc field=Q alphabet=xy\ng0 = VAR x\n")
    with pytest.raises(FormatError):
        Circuit.from_text("ncc field=Q alphabet=xy\ng0 = VAR x\ng1 = VAR y\n"
                          "g2\t=\tADD\tg0\tg1\noutput g2\n")


def test_abp_text_round_trip():
    rng = random.Random(43)
    for _ in range(10):
        p = rand_abp(rng, AB, QQ)
        text = p.to_text()
        back = Abp.from_text(text)
        assert back.to_text() == text
        assert back.expand() == p.expand()


def test_affine_syntax():
    label = NcPoly(AB, QQ, [((), Fraction(-1, 2)), ((1,), Fraction(3))])
    s = affine_to_str(label)
    assert s == "-1/2 + 3*y"
    assert affine_from_str(s, AB, QQ) == label
    assert affine_to_str(NcPoly.zero(AB, QQ)) == "0"
    assert affine_from_str("0", AB, QQ).is_zero()


def test_pruned_keeps_semantics():
    b = CircuitBuilder(AB, QQ)
    used = b.add(b.var(0), b.var(1))
    b.mul(used, used)  # dead gate
    c = b.build(used)
    p = c.pruned()
    assert p.size <= c.size
    assert p.expand() == c.expand()


class RefCircuitText:
    """The circuit reader as it stood before its one-split parser: the
    line split at its first " = ", each gate reference read by `_ref`.
    It reads through `textio.read` like the real reader, so the two are
    compared on the same wrapping of what they raise."""

    KIND = "ncc"

    @staticmethod
    def _ref(tok):
        if not tok.startswith("g"):
            raise FormatError("bad gate reference %r" % tok)
        return int(tok[1:])

    @classmethod
    def _from_lines(cls, head, lines):
        field = parse_field(head["field"])
        alphabet = Alphabet.parse_spec(head["alphabet"])
        gates = []
        output = None
        for ln in lines:
            if ln.startswith("output "):
                output = cls._ref(ln.split()[1])
                continue
            target, rhs = ln.split(" = ", 1)
            if cls._ref(target) != len(gates):
                raise FormatError("gates must be numbered consecutively: %r" % ln)
            parts = rhs.split()
            op = parts[0]
            if op == "VAR":
                gates.append(("var", alphabet.index(parts[1])))
            elif op == "CONST":
                gates.append(("const", field.parse(parts[1])))
            elif op in ("ADD", "MUL"):
                gates.append((op.lower(), cls._ref(parts[1]), cls._ref(parts[2])))
            else:
                raise FormatError("unknown gate op %r" % op)
        if output is None:
            raise FormatError("missing output line")
        return Circuit(alphabet, field, gates, output)


def _read_both(text):
    """(gates, output) from the reader and from the reference, or
    FormatError for either when it refuses the text."""
    out = []
    for read in (Circuit.from_text, lambda t: textio.read(t, RefCircuitText)):
        try:
            c = read(text)
        except FormatError:
            out.append(FormatError)
        else:
            out.append((c.gates, c.output))
    return out


# Edits of one token of a gate or output line: spacing, numbering, ops,
# arity, references and literals
LINE_EDITS = (
    lambda toks: ["\t".join(toks)],
    lambda toks: [toks[0] + " "] + toks[1:],
    lambda toks: [toks[0][0], toks[0][1:]] + toks[1:],
    lambda toks: toks[:-1],
    lambda toks: toks + [toks[-1]],
    lambda toks: toks[:1] + ["=="] + toks[2:],
    lambda toks: toks[:2] + [toks[2].lower()] + toks[3:] if len(toks) > 2 else toks,
    lambda toks: toks[:2] + ["SUB"] + toks[3:] if len(toks) > 2 else toks,
    lambda toks: toks[:-1] + ["g%d" % (int(toks[0][1:]) + 1)] if toks[0][1:].isdigit()
    else toks,
    lambda toks: toks[:-1] + ["h" + toks[-1][1:]],
    lambda toks: toks[:-1] + ["g"],
    lambda toks: toks[:-1] + ["g-1"],
    lambda toks: toks[:-1] + ["g+0"],
    lambda toks: toks[:-1] + ["g0" + toks[-1][1:]],
    lambda toks: toks[:-1] + ["z"],
    lambda toks: toks[:-1] + ["1/0"],
    lambda toks: toks[:-1] + ["-3/6"],
    lambda toks: ["g%s" % toks[0][1:].zfill(3)] + toks[1:],
    lambda toks: [],
)


def _mutants(text, rng, count):
    lines = text.splitlines()
    for _ in range(count):
        i = rng.randrange(1, len(lines))
        edit = rng.choice(LINE_EDITS)
        yield "\n".join(lines[:i] + [" ".join(edit(lines[i].split()))] + lines[i + 1:]) + "\n"


def test_circuit_reader_matches_reference():
    """On the golden circuits, seeded circuits over Q and F2 and seeded
    one-line edits of them, the reader gives the reference's gates and
    output, or both refuse the text with a FormatError."""
    golden = Path(__file__).parent / "golden"
    texts = [p.read_text() for p in sorted(golden.glob("*.txt")) + [golden / "inputs" / "f.ncc"]
             if p.read_text().startswith("ncc ")]
    rng = random.Random(77)
    for field, alphabet in ((QQ, AB), (QQ, AB2), (GF2, AB2)):
        for _ in range(4):
            texts.append(circuit_from_poly(rand_poly(rng, alphabet, field)).to_text())
    refused = 0
    for text in texts:
        got, want = _read_both(text)
        assert got == want != FormatError
        for mutant in _mutants(text, rng, 60):
            got, want = _read_both(mutant)
            assert got == want, mutant
            refused += got is FormatError
    assert refused > 400
