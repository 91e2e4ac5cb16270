import hashlib
import random
import time
from itertools import product

import pytest

from ncfactor.automaton import (build_automaton, recover_abp, recover_blackbox, recover_circuit,
                                reduce_and_recover)
from ncfactor.circuits import Abp, Circuit, CircuitBuilder, MatrixAssignment, circuit_from_poly
from ncfactor.embedding import Embedding, phi_abp, phi_blackbox, phi_circuit
from ncfactor.factoring import complete_factorizations, is_irreducible
from ncfactor.fields import GF2, QQ
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, X, Y
from ncfactor.words import WordSet, enumerate_words

AB = Alphabet.bivariate()


def w(text):
    return AB.word_from_str(text)


def rand_poly(rng, n, field, max_deg=3, max_terms=4, ensure_nonzero=False):
    alphabet = Alphabet.nvars(n)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_deg)))
        c = field.from_int(rng.randint(-3, 3)) if field is QQ else field.from_int(rng.randrange(field.p))
        terms.append((word, c))
    f = NcPoly(alphabet, field, terms)
    if ensure_nonzero and f.is_zero():
        f = NcPoly.one(alphabet, field)
    return f


def test_build_automaton_single_word():
    a = build_automaton(WordSet([w("xy")], "compact"))
    assert a.n_states == 4 and a.n_vars == 1
    q0, q1, qf, qr = a.q0, a.root, a.qf, a.qr
    assert (q0, q1, qf, qr) == (0, 1, 2, 3)
    mx, my = a.moves
    assert mx == {q0: (q1, None), qf: (q1, None)}
    assert my == {q1: (qf, 0)}
    # absent entries are the zero rows: y from q0, x from the root, y from
    # qf, and nothing at all out of qr
    assert q0 not in my and q1 not in mx and qf not in my
    assert qr not in mx and qr not in my


def test_build_automaton_mixed_lengths():
    a = build_automaton(WordSet([w("xy"), w("xxyy")], "compact"))
    # q0, root, two deeper trie states, qf (plus the reject state)
    assert a.n_states - 1 == 5
    mx, my = a.moves
    # after reading x we sit at the root: accept point for xy, interior for xxyy
    assert mx[a.q0] == (a.root, None)
    assert my[a.root] == (a.qf, 0)
    deeper, out = mx[a.root]
    assert deeper not in (a.qf, a.qr) and out is None
    nxt, out = my[deeper]
    assert my[nxt] == (a.qf, 1) and out is None
    assert a.qr not in mx and a.qr not in my


def test_build_automaton_paper_depth():
    ws = enumerate_words(1, "paper")
    a = build_automaton(ws)
    # root-to-leaf path of the trie has length 2l - 2 = 12, emitting nothing
    state = a.root
    depth = 0
    mid = ws.words[0][1:-1]
    for letter in mid:
        state, out = a.moves[letter][state]
        assert out is None
        depth += 1
    assert depth == 12
    assert a.moves[Y][state] == (a.qf, 0)


def test_transition_matrix_entries():
    """The nonzero entries of M_x and M_y are the move tables, one entry
    per row at most, rows in ascending order."""
    a = build_automaton(WordSet([w("xy"), w("xxyy"), w("xxyxyy")], "compact"))
    for table in a.moves:
        assert list(table) == sorted(table)
        assert all(0 <= q < a.qr and 0 < q2 < a.qr for q, (q2, _out) in table.items())
    # rule 1: reading y from the start state kills everything
    assert a.q0 not in a.moves[Y]
    # every transition into qf emits, and it emits its word's variable
    into_qf = sorted(out for table in a.moves for q2, out in table.values() if q2 == a.qf)
    assert into_qf == [0, 1, 2]
    assert a.run(w("xyxxyyxxyxyy")) == (a.qf, 1, (0, 1, 2))
    assert a.run(w("xyy")) == (a.qr, 0, ())


def test_kill_and_parse_properties_exhaustive():
    """The accept-entry weight of a word is nonzero exactly when the word
    is a concatenation of embedding words, and then it equals the parse.

    In particular every tensor word of an image monomial that involves a
    mirrored factor contributes nothing: it starts with y at its first
    mirrored factor, where no embedding word can match.
    """
    from ncfactor.embedding import parse_into_words

    for n in (1, 2):
        ws = enumerate_words(n, "compact")
        a = build_automaton(ws)
        for length in range(0, 9):
            for word in product((0, 1), repeat=length):
                state, scalar, emitted = a.run(word)
                accept_weight = emitted if (state == a.qf and scalar) else None
                parsed = parse_into_words(word, ws)
                if parsed is not None and len(word) > 0:
                    assert accept_weight == parsed, (word, n)
                else:
                    assert accept_weight is None, (word, n)


def test_mixed_tensor_words_are_killed():
    """Image monomials: only the all-unmirrored tensor word survives."""
    from itertools import product as iproduct

    for n in (1, 2):
        ws = enumerate_words(n, "compact")
        a = build_automaton(ws)
        bars = [tuple(1 - c for c in v) for v in ws.words]
        for t in (1, 2, 3):
            for idxs in iproduct(range(n), repeat=t):
                for mask in iproduct((0, 1), repeat=t):
                    word = ()
                    for i, m in zip(idxs, mask):
                        word += bars[i] if m else ws.words[i]
                    state, scalar, emitted = a.run(word)
                    if any(mask):
                        assert not (state == a.qf and scalar), (idxs, mask)
                    else:
                        assert state == a.qf and scalar == 1 and emitted == idxs


def test_recover_circuit_examples():
    e = Embedding.for_variables(1, "compact")
    a = build_automaton(e.wordset)
    c = circuit_from_poly(NcPoly(AB, QQ, [((0, 1), QQ.one), ((1, 0), QQ.one)]))
    assert recover_circuit(c, a).expand() == NcPoly.variable(Alphabet.nvars(1), QQ, 0)

    c2 = circuit_from_poly(NcPoly(AB, QQ, [((), QQ.one), ((0, 1), QQ.one),
                                           ((1, 0), QQ.one)]))
    expected = NcPoly(Alphabet.nvars(1), QQ, [((), QQ.one), ((0,), QQ.one)])
    assert recover_circuit(c2, a).expand() == expected


def test_recover_circuit_round_trip_with_constants():
    rng = random.Random(61)
    for mode in ("compact", "paper"):
        trials = 25 if mode == "compact" else 3
        for _ in range(trials):
            n = rng.randint(1, 3)
            e = Embedding.for_variables(n, mode)
            a = build_automaton(e.wordset)
            f = rand_poly(rng, n, QQ, max_deg=3)
            f = f + NcPoly.one(Alphabet.nvars(n), QQ)  # force a constant term
            c = circuit_from_poly(f)
            assert recover_circuit(phi_circuit(c, e), a).expand() == f


def test_recover_grid_size_bound():
    rng = random.Random(62)
    for _ in range(10):
        n = rng.randint(1, 3)
        e = Embedding.for_variables(n, "compact")
        a = build_automaton(e.wordset)
        f = rand_poly(rng, n, QQ, max_deg=2)
        c = phi_circuit(circuit_from_poly(f), e)
        r = recover_circuit(c, a)
        assert r.size <= 4 * c.size * a.n_states ** 3


def random_formula(rng, nvars, leaves):
    """Q circuit: a random bracketing of `leaves` variables joined by MUL,
    or by ADD with a small constant weight, plus a nonzero constant term."""
    small = (-3, -2, -1, 1, 2, 3)
    b = CircuitBuilder(Alphabet.nvars(nvars), QQ)
    nodes = [b.var(rng.randrange(nvars)) for _ in range(leaves)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        left, right = nodes[i], nodes[i + 1]
        if rng.random() < 0.6:
            gate = b.mul(left, right)
        else:
            gate = b.add(left, b.mul(b.const(QQ.from_int(rng.choice(small))), right))
        nodes[i:i + 2] = [gate]
    return b.build(b.add(nodes[0], b.const(QQ.from_int(rng.choice(small)))))


def raw_sum(rng, wordset, nterms):
    """Bivariate circuit: a weighted sum of products whose leaves spell one
    to three embedding words, now and then mirrored (which kills the
    term).  Every leaf and weight is a gate of its own, so VAR and CONST
    gates repeat, and a weight right of a killed term is never read."""
    small = (-3, -2, -1, 0, 1, 2, 3)
    gates = []

    def gate(*g):
        gates.append(g)
        return len(gates) - 1

    acc = None
    for _ in range(nterms):
        nodes = []
        for _ in range(rng.randint(1, 3)):
            word = rng.choice(wordset.words)
            if rng.random() < 0.2:
                word = tuple(1 - a for a in word)
            nodes.extend(gate("var", a) for a in word)
        while len(nodes) > 1:
            i = rng.randrange(len(nodes) - 1)
            nodes[i:i + 2] = [gate("mul", nodes[i], nodes[i + 1])]
        weight = gate("const", QQ.from_int(rng.choice(small)))
        term = gate("mul", weight, nodes[0]) if rng.random() < 0.5 else gate("mul", nodes[0], weight)
        acc = term if acc is None else gate("add", acc, term)
    gate("add", acc, gate("const", QQ.from_int(rng.choice(small))))
    return Circuit(AB, QQ, gates, len(gates) - 1)


def parsed_part(g, e):
    """The terms of g whose words are concatenations of embedding words,
    rewritten over x_1..x_n: what the automaton reads off g."""
    from ncfactor.embedding import parse_into_words

    terms = [(parse_into_words(word, e.wordset), c) for word, c in g.terms.items()]
    return NcPoly(Alphabet.nvars(e.n), g.field, [t for t in terms if t[0] is not None])


# sha256 of the recovered circuits' text, recorded with the full |Q|-row
# grid build; building only the rows the output reads must not move a gate
RECOVER_PINS = {
    (4, "compact"): "1f500ae0a2e138f6a635b361a05983e5b164763d22063261ef0d517676f5f447",
    (4, "paper"): "ce86c421dc5aa5811d03b1d446461cc9d0b0929cd7f40a01e0ab1180de94fb44",
    (16, "compact"): "66f87e0d8744f72d9d71fdc9c2382ce054a50011a69c9ed215715d3c759d04c1",
    (16, "paper"): "3333da7e629f6108ecd8fb782b84304dd9e932738cde961cd93f7629c5d46d27",
    (64, "compact"): "cc7feb067f129e5ddbce046f7d8b229bb832acc6aec64a6e9e09b62f72982955",
    (64, "paper"): "b5dbaf838152505ce0d7392b2a12ed26b9fccdb92727a0402c6e270f561879bd",
}


@pytest.mark.parametrize("n,mode", sorted(RECOVER_PINS))
def test_recover_circuit_output_is_pinned(n, mode):
    """Embedded formulas and raw sums.  Only the raw sums show in the text
    the order in which recovery creates the output's VAR and CONST gates:
    their VAR and CONST gates repeat between gates that make products."""
    rng = random.Random(1000 * n + (mode == "paper"))
    e = Embedding.for_variables(n, mode)
    a = build_automaton(e.wordset)
    digest = hashlib.sha256()
    for leaves in (6, 9, 12):
        c = random_formula(rng, n, leaves)
        back = recover_circuit(phi_circuit(c, e), a)
        assert back.expand() == c.expand()
        digest.update(back.to_text().encode())
    for nterms in (3, 5, 8):
        c = raw_sum(rng, e.wordset, nterms)
        back = recover_circuit(c, a)
        assert back.expand() == parsed_part(c.expand(), e)
        digest.update(back.to_text().encode())
    assert digest.hexdigest() == RECOVER_PINS[(n, mode)]


def recovers_at_a_point(c, mode):
    """Embed c, recover it, and compare both at a seeded 2x2 point."""
    e = Embedding.for_variables(c.alphabet.size, mode)
    back = recover_circuit(phi_circuit(c, e), build_automaton(e.wordset))
    point = MatrixAssignment.random(c.alphabet, c.field, 2, random.Random(5))
    assert back.evaluate(point) == c.evaluate(point)


def test_recover_circuit_deep_chain():
    """3000 nested products, alternately on the left and on the right:
    the demand pass walks them on its own stack, not Python's."""
    b = CircuitBuilder(Alphabet.nvars(2), QQ)
    x1, x2 = b.var(0), b.var(1)
    g = x1
    for k in range(3000):
        g = b.mul(g, x2) if k % 2 else b.mul(x1, g)
    recovers_at_a_point(b.build(g), "paper")


def test_recover_circuit_shared_dag():
    """g = g + g 300 times has 2^300 paths; the demand pass resolves each
    (gate, row) once, so it visits each gate a few times, not per path."""
    b = CircuitBuilder(Alphabet.nvars(2), QQ)
    g = b.add(b.mul(b.var(0), b.var(1)), b.mul(b.const(QQ.from_int(-2)), b.var(1)))
    for _ in range(300):
        g = b.add(g, g)
    start = time.perf_counter()
    recovers_at_a_point(b.build(b.mul(g, b.var(0))), "paper")
    assert time.perf_counter() - start < 2.0


def test_recover_abp_examples():
    e = Embedding.for_variables(1, "compact")
    a = build_automaton(e.wordset)
    x = NcPoly.variable(AB, QQ, 0)
    y = NcPoly.variable(AB, QQ, 1)
    single = Abp(AB, QQ, (1, 1), [{(0, 0): x}])
    assert recover_abp(single, a).expand().is_zero()
    two = Abp(AB, QQ, (1, 2, 1), [{(0, 0): x, (0, 1): y},
                                  {(0, 0): y, (1, 0): x}])
    assert recover_abp(two, a).expand() == NcPoly.variable(Alphabet.nvars(1), QQ, 0)


def assert_edges_leave_reachable_nodes(abp):
    """Every edge starts at a node that the source reaches."""
    reached = {0}
    for k, block in enumerate(abp.edges):
        stray = sorted(u for u, _v in block if u not in reached)
        assert not stray, "gap %d: edges leave unreachable nodes %s" % (k, stray)
        reached = {v for _u, v in block}


def test_recover_abp_round_trip():
    rng = random.Random(63)
    ab2 = Alphabet.nvars(2)
    e = Embedding.for_variables(2, "compact")
    a = build_automaton(e.wordset)
    for _ in range(5):
        lbl = lambda: NcPoly(ab2, QQ, [((), QQ.from_int(rng.randint(0, 2))),
                                       ((0,), QQ.from_int(rng.randint(-1, 1))),
                                       ((1,), QQ.from_int(rng.randint(-1, 1)))])
        p = Abp(ab2, QQ, (1, 2, 1), [{(0, 0): lbl(), (0, 1): lbl()},
                                     {(0, 0): lbl(), (1, 0): lbl()}])
        f = p.expand()
        back = recover_abp(phi_abp(p, e), a)
        assert back.expand() == f
        assert_edges_leave_reachable_nodes(back)


def test_recover_abp_three_word_lengths():
    """n = 3 compact mixes word lengths 2, 4 and 6, so every chain in the
    blown-up ABP needs a different amount of unit-edge padding."""
    rng = random.Random(66)
    ab3 = Alphabet.nvars(3)
    e = Embedding.for_variables(3, "compact")
    a = build_automaton(e.wordset)
    for _ in range(3):
        lbl = lambda: NcPoly(ab3, QQ, [((), QQ.from_int(rng.randint(0, 1))),
                                       ((0,), QQ.from_int(rng.randint(-1, 1))),
                                       ((1,), QQ.from_int(rng.randint(-1, 1))),
                                       ((2,), QQ.from_int(rng.randint(-1, 1)))])
        p = Abp(ab3, QQ, (1, 2, 1), [{(0, 0): lbl(), (0, 1): lbl()},
                                     {(0, 0): lbl(), (1, 0): lbl()}])
        f = p.expand()
        embedded = phi_abp(p, e)
        assert embedded.expand() == phi_poly_oracle(f, e)
        assert recover_abp(embedded, a).expand() == f


@pytest.mark.parametrize("n", [2, 3])
def test_recover_abp_paper_mode(n):
    """Uniform word length: every edge of a 3-gap ABP is blown up through
    the deep trie, where q2 is q1, delta(q1, x) or delta(q1, y)."""
    rng = random.Random(67 + n)
    abn = Alphabet.nvars(n)
    e = Embedding.for_variables(n, "paper")
    a = build_automaton(e.wordset)
    lbl = lambda: NcPoly(abn, QQ, [((), QQ.from_int(rng.randint(0, 1)))]
                         + [((i,), QQ.from_int(rng.randint(-1, 1))) for i in range(n)])
    p = Abp(abn, QQ, (1, 2, 2, 1), [{(0, 0): lbl(), (0, 1): lbl()},
                                    {(0, 0): lbl(), (0, 1): lbl(), (1, 1): lbl()},
                                    {(0, 0): lbl(), (1, 0): lbl()}])
    f = p.expand()
    back = recover_abp(phi_abp(p, e), a)
    assert back.expand() == f
    assert_edges_leave_reachable_nodes(back)


def phi_poly_oracle(f, e):
    from ncfactor.embedding import phi_poly
    return phi_poly(f, e)


def test_recover_blackbox_examples():
    e = Embedding.for_variables(1, "compact")
    a = build_automaton(e.wordset)
    ab1 = Alphabet.nvars(1)
    bb = phi_blackbox(lambda assign: assign.mats[0], e, QQ)
    rec = recover_blackbox(bb, a, QQ)
    t = MatrixAssignment(ab1, QQ, (Matrix.from_ints(QQ, [[5]]),))
    assert rec(t) == Matrix.from_ints(QQ, [[5]])

    # constant term survives via the (q0, q0) block
    const = NcPoly(ab1, QQ, [((), QQ.from_int(7)), ((0,), QQ.one)])
    c = circuit_from_poly(const)
    bb2 = phi_blackbox(lambda assign: c.evaluate(assign), e, QQ)
    rec2 = recover_blackbox(bb2, a, QQ)
    zero_assign = MatrixAssignment(ab1, QQ, (Matrix.zeros(QQ, 2, 2),))
    assert rec2(zero_assign) == Matrix.identity(QQ, 2).scale(QQ.from_int(7))


def test_recover_blackbox_round_trip():
    rng = random.Random(64)
    for trial in range(7):
        # five compact-mode cases, then paper mode at n = 2 and n = 3
        n, mode = (rng.randint(1, 2), "compact") if trial < 5 else (trial - 3, "paper")
        e = Embedding.for_variables(n, mode)
        a = build_automaton(e.wordset)
        f = rand_poly(rng, n, QQ, max_deg=2)
        c = circuit_from_poly(f)
        bb = lambda assign: c.evaluate(assign)
        rec = recover_blackbox(phi_blackbox(bb, e, QQ), a, QQ)
        assign = MatrixAssignment.random(Alphabet.nvars(n), QQ, 2, rng)
        assert rec(assign) == bb(assign)


def oracle(poly):
    return complete_factorizations(poly)


def test_reduce_and_recover_two_factors():
    ab2 = Alphabet.nvars(2)
    x1 = NcPoly.variable(ab2, GF2, 0)
    x2 = NcPoly.variable(ab2, GF2, 1)
    f = x1 * x2 + x1
    e = Embedding.for_variables(2, "compact")
    factors = reduce_and_recover(circuit_from_poly(f), e, oracle)
    assert factors == [x1, x2 + NcPoly.one(ab2, GF2)]
    for g in factors:
        assert is_irreducible(g)


def test_reduce_and_recover_irreducible_input():
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, GF2, [((2, 0), GF2.one), ((3, 1), GF2.one),
                          ((3, 0), GF2.one), ((4, 1), GF2.one)])
    e = Embedding.for_variables(5, "compact")
    factors = reduce_and_recover(circuit_from_poly(f), e, oracle)
    assert len(factors) == 1
    assert factors[0] == f


def test_reduce_and_recover_square():
    ab1 = Alphabet.nvars(1)
    x1 = NcPoly.variable(ab1, GF2, 0)
    e = Embedding.for_variables(1, "compact")
    factors = reduce_and_recover(circuit_from_poly(x1 * x1), e, oracle)
    assert factors == [x1, x1]


def test_reduce_and_recover_paper_mode_small():
    """Uniform-length words inflate a degree-1 input to a degree-14
    bivariate image; the oracle still handles that within budget."""
    ab1 = Alphabet.nvars(1)
    x1 = NcPoly.variable(ab1, GF2, 0)
    f = x1 + NcPoly.one(ab1, GF2)
    e = Embedding.for_variables(1, "paper")
    factors = reduce_and_recover(circuit_from_poly(f), e, oracle)
    assert factors == [f]


def test_reduce_and_recover_product_law():
    rng = random.Random(65)
    for _ in range(5):
        n = rng.randint(1, 2)
        abn = Alphabet.nvars(n)
        g = rand_poly(rng, n, GF2, max_deg=1, ensure_nonzero=True)
        h = rand_poly(rng, n, GF2, max_deg=2, ensure_nonzero=True)
        f = g * h
        if f.degree < 1:
            continue
        e = Embedding.for_variables(n, "compact")
        factors = reduce_and_recover(circuit_from_poly(f), e, oracle)
        prod = NcPoly.one(abn, GF2)
        for part in factors:
            assert part.degree >= 1
            assert is_irreducible(part)
            prod = prod * part
        assert prod == f


def ref_demand(c, automaton):
    """The demand pass as it stood before its per-gate row dicts: sets of
    columns keyed by (gate, row), turned into need[gate] = set of rows."""
    moves = automaton.moves
    zero = c.field.zero
    cols = {}
    stack = [(c.output, automaton.q0)]
    while stack:
        key = stack[-1]
        if key in cols:
            stack.pop()
            continue
        g, i = key
        gate = c.gates[g]
        kind = gate[0]
        if kind == "var":
            move = moves[gate[1]].get(i)
            cols[key] = set() if move is None else {move[0]}
        elif kind == "const":
            cols[key] = {i} if gate[1] != zero else set()
        else:
            ka = (gate[1], i)
            if ka not in cols:
                stack.append(ka)
                continue
            kbs = [(gate[2], i)] if kind == "add" else [(gate[2], k) for k in cols[ka]]
            missing = [kb for kb in kbs if kb not in cols]
            if missing:
                stack.extend(missing)
                continue
            reached = set(cols[ka]) if kind == "add" else set()
            for kb in kbs:
                reached |= cols[kb]
            cols[key] = reached
        stack.pop()
    need = [set() for _ in c.gates]
    for g, i in cols:
        need[g].add(i)
    return need


def ref_pruned(gates, output):
    """(gates, output) with the gates the output does not reach dropped,
    remapped in order."""
    keep = set()
    stack = [output]
    while stack:
        k = stack.pop()
        if k not in keep:
            keep.add(k)
            if gates[k][0] in ("add", "mul"):
                stack.extend(gates[k][1:])
    remap = {old: new for new, old in enumerate(sorted(keep))}
    out = tuple((g[0], remap[g[1]], remap[g[2]]) if g[0] in ("add", "mul") else g
                for g in (gates[k] for k in sorted(keep)))
    return out, remap[output]


def ref_recover_circuit(c, automaton):
    """The recovery build as it stood before the per-gate row dicts, on
    `ref_demand`'s row sets, pruned by `ref_pruned`: (gates, output)."""
    field = c.field
    b = CircuitBuilder(Alphabet.nvars(automaton.n_vars), field)
    one_gate = b.const(field.one)
    need = ref_demand(c, automaton)
    var_rows = [None, None]

    def mul_gates(g1, g2):
        if g1 == one_gate:
            return g2
        if g2 == one_gate:
            return g1
        return b.mul(g1, g2)

    grids = []
    for g, rows in zip(c.gates, need):
        kind = g[0]
        if kind == "var":
            if var_rows[g[1]] is None:
                var_rows[g[1]] = {i: ((i, j), one_gate if out is None else b.var(out))
                                  for i, (j, out) in automaton.moves[g[1]].items()}
            entries = var_rows[g[1]]
            grid = dict(entries[i] for i in sorted(rows) if i in entries)
        elif kind == "const":
            grid = {}
            if g[1] != field.zero:
                cg = b.const(g[1])
                grid = {(i, i): cg for i in sorted(rows)}
        elif not rows:
            grid = {}
        elif kind == "add":
            a, bb_ = grids[g[1]], grids[g[2]]
            grid = {key: gate for key, gate in a.items() if key[0] in rows}
            for key, gate in bb_.items():
                if key[0] in rows:
                    grid[key] = b.add(grid[key], gate) if key in grid else gate
        else:
            a, bb_ = grids[g[1]], grids[g[2]]
            by_row = {}
            for (k, j), gate in bb_.items():
                by_row.setdefault(k, []).append((j, gate))
            grid = {}
            for (i, k), ga in a.items():
                if i not in rows:
                    continue
                for j, gb in by_row.get(k, ()):
                    prod = mul_gates(ga, gb)
                    key = (i, j)
                    grid[key] = b.add(grid[key], prod) if key in grid else prod
        grids.append(grid)
    out_grid = grids[c.output]
    parts = [out_grid[key] for key in ((automaton.q0, automaton.qf),
                                       (automaton.q0, automaton.q0))
             if key in out_grid]
    if not parts:
        out = b.const(field.zero)
    elif len(parts) == 1:
        out = parts[0]
    else:
        out = b.add(parts[0], parts[1])
    return ref_pruned(tuple(b.gates), out)


def sum_heavy(rng, wordset, nterms):
    """Bivariate circuit heavy in ADD and CONST gates: a sum of products of
    one to three factors, each factor a sum of embedding words (now and
    then mirrored) and constants (zero among them), shared between terms
    a third of the time; a constant weight stands left or right of some
    products, and a sum nothing reads is left behind."""
    small = (-2, -1, 0, 1, 2, 3)
    gates = []

    def gate(*g):
        gates.append(g)
        return len(gates) - 1

    def part():
        if rng.random() < 0.35:
            return gate("const", QQ.from_int(rng.choice(small)))
        word = rng.choice(wordset.words)
        if rng.random() < 0.2:
            word = tuple(1 - a for a in word)
        node = gate("var", word[0])
        for a in word[1:]:
            node = gate("mul", node, gate("var", a))
        return node

    factors = []
    acc = None
    for _ in range(nterms):
        term = None
        for _ in range(rng.randint(1, 3)):
            if factors and rng.random() < 0.3:
                factor = rng.choice(factors)
            else:
                factor = part()
                for _ in range(rng.randint(0, 2)):
                    factor = gate("add", factor, part())
                factors.append(factor)
            term = factor if term is None else gate("mul", term, factor)
        r = rng.random()
        if r < 0.3:
            term = gate("mul", gate("const", QQ.from_int(rng.choice(small))), term)
        elif r < 0.6:
            term = gate("mul", term, gate("const", QQ.from_int(rng.choice(small))))
        acc = term if acc is None else gate("add", acc, term)
    gate("add", part(), part())
    return Circuit(AB, QQ, gates, acc)


@pytest.mark.parametrize("mode", ["compact", "paper"])
def test_recover_circuit_matches_reference(mode):
    """The recovery makes the reference's gates, in its order, on seeded
    circuits heavy in ADD and CONST gates, raw sums and embedded
    formulas, at n = 1, 4, 16 and 64."""
    rng = random.Random(31 if mode == "paper" else 30)
    for n in (1, 4, 16, 64):
        e = Embedding.for_variables(n, mode)
        a = build_automaton(e.wordset)
        circuits = [sum_heavy(rng, e.wordset, nterms) for nterms in (2, 5, 12)]
        circuits.append(raw_sum(rng, e.wordset, 6))
        circuits.append(phi_circuit(random_formula(rng, n, 8), e))
        for c in circuits:
            back = recover_circuit(c, a)
            assert (back.gates, back.output) == ref_recover_circuit(c, a)
