"""Substitution automaton for pulling factors back through the embedding.

The automaton scans a bivariate word left to right, matching occurrences
of the embedding words v_i; completing a v_i emits the variable x_i.  A
word reaches the accept state with nonzero output exactly when it is a
concatenation of embedding words, so the tensor words of an image
monomial that involve a mirrored factor never land there (a mirrored
factor starts with y, which nothing matches).  The per-letter transition
matrices turn that scan into a matrix substitution: entry (q0, qf) of
g'(M_x, M_y) is the nonconstant part of the preimage g, and entry
(q0, q0) holds the constant term (q0 has no incoming transitions).
M_x and M_y are not stored: each row has at most one nonzero entry, and
the recovery routines read those entries straight from `delta`.

Only row q0 of g'(M_x, M_y) is read, so recovery follows the scan from
q0 and never touches the rest: `recover_circuit` first finds the rows of
each gate's matrix that row q0 of the output depends on, then builds
only those, at a cost of O(gates x rows reached) instead of
O(gates x |Q|); `recover_abp` writes edges only from the (node, state)
pairs the source reaches.
"""

from __future__ import annotations

from ncfactor.circuits import Abp, Circuit, CircuitBuilder, MatrixAssignment, circuit_from_poly
from ncfactor.errors import SoundnessError
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, X, Y

OUT_ZERO = 0
OUT_ONE = 1


class SubstAutomaton:
    """Deterministic automaton with per-transition outputs in X u {0, 1}.

    States: 0 = q0 (start, no incoming transitions), 1 = trie root,
    2..  = deeper trie states, then qf (accept) and qr (absorbing reject).
    Outputs are encoded as 0, 1, or ("var", i).
    """

    __slots__ = ("wordset", "n_states", "q0", "root", "qf", "qr", "delta")

    def __init__(self, wordset, n_trie_states, delta):
        self.wordset = wordset
        self.n_states = n_trie_states + 3
        self.q0 = 0
        self.root = 1
        self.qf = n_trie_states + 1
        self.qr = n_trie_states + 2
        self.delta = delta

    @property
    def n_vars(self):
        return self.wordset.n

    def run(self, word):
        """Scan a word from q0: (end state, scalar, emitted variable word).

        The scalar is 0 exactly when some transition output 0 on the way.
        """
        state = self.q0
        emitted = []
        dead = False
        for letter in word:
            state, out = self.delta[(state, letter)]
            if out == OUT_ZERO:
                dead = True
            elif out != OUT_ONE:
                emitted.append(out[1])
        if dead:
            return state, 0, ()
        return state, 1, tuple(emitted)


def build_automaton(wordset):
    """Trie-based construction over the words stripped of their first and
    last letters.

    For uniform-length word sets this is exactly the textbook automaton;
    with mixed lengths a state can be both the accept point of a shorter
    word and interior to a longer one.  Reading y there closes the
    shorter word (a balanced prefix of a Dyck continuation cannot be
    followed by y), reading x walks deeper, so determinism survives.
    """
    middles = [w[1:-1] for w in wordset.words]
    # trie over the middles; root = state 1, q0 = 0
    children = {}
    accept = {}
    next_state = 2
    for i, mid in enumerate(middles):
        node = 1
        for letter in mid:
            key = (node, letter)
            if key not in children:
                children[key] = next_state
                next_state += 1
            node = children[key]
        if node in accept:
            raise SoundnessError("words %d and %d share a middle" % (accept[node], i))
        accept[node] = i

    # states: q0 = 0, trie = 1..next_state-1, then qf, qr
    qf = next_state
    qr = next_state + 1

    delta = {}
    delta[(0, X)] = (1, OUT_ONE)
    delta[(0, Y)] = (qr, OUT_ZERO)
    for node in range(1, next_state):
        for letter in (X, Y):
            child = children.get((node, letter))
            if letter == Y and node in accept:
                if child is not None:
                    raise SoundnessError("a word continues with y past the end of "
                                         "word %d" % accept[node])
                delta[(node, letter)] = (qf, ("var", accept[node]))
            elif child is not None:
                delta[(node, letter)] = (child, OUT_ONE)
            else:
                delta[(node, letter)] = (qr, OUT_ZERO)
    delta[(qf, X)] = (1, OUT_ONE)
    delta[(qf, Y)] = (qr, OUT_ZERO)
    delta[(qr, X)] = (qr, OUT_ZERO)
    delta[(qr, Y)] = (qr, OUT_ZERO)

    return SubstAutomaton(wordset, next_state - 1, delta)


def _moves(automaton, letter):
    """Nonzero entries (q, q', out) of M_letter in `delta` order, which is
    row-major: at most one per row, 0 entries left out."""
    return [(q, nxt, out) for (q, a), (nxt, out) in automaton.delta.items()
            if a == letter and out != OUT_ZERO]


def _demand(c, automaton, moves):
    """Demand pass: the rows of each gate's grid that row q0 of the output
    reads, as need[gate] = set of rows.

    Row i of a VAR grid reaches one `delta` successor, row i of a CONST
    grid its own column; ADD reads both operands at row i; MUL reads its
    left operand at row i and its right operand at every column k that
    the left's row i reaches.  Each (gate, row) is resolved once, on an
    explicit stack, so shared gates are not re-walked and deep circuits
    do not recurse.  cols[(gate, row)] holds the columns the row reaches.
    """
    succ = tuple({i: j for i, j, _out in m} for m in moves)
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
            j = succ[gate[1]].get(i)
            cols[key] = set() if j is None else {j}
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


def recover_circuit(c, automaton):
    """Symbolic matrix evaluation of a bivariate circuit at (M_x, M_y),
    restricted to the rows that the output reads.

    Each gate becomes a sparse grid of gates over x_1..x_n indexed by
    state pairs; the output is entry (q0, qf) plus the constant-carrying
    entry (q0, q0), so only row q0 of the output grid is read.  A demand
    pass (`_demand`) finds the rows of every gate's grid that row needs;
    the build pass then walks the gates in topological order and fills
    only those rows.  Cost: O(gates x rows reached) grid rows instead of
    O(gates x |Q|).

    The build makes a subsequence of the gates that a full |Q|-row build
    would make, in the same order: rows are filled in the operands' grid
    order, the first VAR gate of a letter creates all of that letter's
    output VAR gates in `delta` order, and every nonzero CONST gate
    creates its constant.  Structurally zero entries are never
    materialized, and the result is pruned to gates reachable from the
    output.
    """
    field = c.field
    out_alphabet = Alphabet.nvars(automaton.n_vars)
    b = CircuitBuilder(out_alphabet, field)
    one_gate = b.const(field.one)
    moves = (_moves(automaton, X), _moves(automaton, Y))
    need = _demand(c, automaton, moves)
    var_rows = [None, None]  # per letter: row -> ((row, col), gate)

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
                var_rows[g[1]] = {i: ((i, j), one_gate if out == OUT_ONE else b.var(out[1]))
                                  for i, j, out in moves[g[1]]}
            entries = var_rows[g[1]]
            grid = dict(entries[i] for i in sorted(rows) if i in entries)
        elif kind == "const":
            grid = {}
            if g[1] != field.zero:
                cg = b.const(g[1])
                grid = {(i, i): cg for i in sorted(rows)}
        elif not rows:  # an ADD or MUL gate that the output never reads
            grid = {}
        elif kind == "add":
            a, bb_ = grids[g[1]], grids[g[2]]
            grid = {key: gate for key, gate in a.items() if key[0] in rows}
            for key, gate in bb_.items():
                if key[0] in rows:
                    grid[key] = b.add(grid[key], gate) if key in grid else gate
        else:  # mul: sparse grid product over the needed rows of the left
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
    return b.build(out).pruned()


def recover_abp(p, automaton):
    """Block construction: node u becomes (u, q), numbered u*|Q| + q; one
    extra layer collects (sink, qf) and (sink, q0) with unit edges.  The
    edge from (u, q1) to (v, q2) carries entry (q1, q2) of
    c0*I + cx*M_x + cy*M_y, so q2 ranges over q1, delta(q1, x), delta(q1, y).
    Only pairs (u, q1) that the source (0, q0) reaches get edges: a
    layer's live states are read off the nonzero edges written into it.
    """
    nq = automaton.n_states
    field = p.field
    out_alphabet = Alphabet.nvars(automaton.n_vars)
    q0, qf = automaton.q0, automaton.qf
    rows = {}
    for letter in (X, Y):
        for q1, q2, out in _moves(automaton, letter):
            word = () if out == OUT_ONE else (out[1],)
            rows.setdefault(q1, []).append((q2, letter, word))

    sizes = [1]
    sizes.extend(s * nq for s in p.layer_sizes[1:])
    sizes.append(1)
    edges = [dict() for _ in range(len(p.layer_sizes))]

    # live[u]: the states the scan can be in at node u of the current layer
    live = {0: {q0}}
    for k, block in enumerate(p.edges):
        reached = {}
        for (u, v), label in block.items():
            const = ((), label.coeff(()))
            coeffs = (label.coeff((X,)), label.coeff((Y,)))
            for q1 in live.get(u, ()):
                entries = {q1: [const]}
                for q2, letter, word in rows.get(q1, ()):
                    entries.setdefault(q2, []).append((word, coeffs[letter]))
                for q2, terms in entries.items():
                    lbl = NcPoly(out_alphabet, field, terms)
                    if lbl:
                        # (u, q1, v, q2) is unique, so each key is written once
                        edges[k][(u * nq + q1, v * nq + q2)] = lbl
                        reached.setdefault(v, set()).add(q2)
        live = reached
    one = NcPoly.one(out_alphabet, field)
    for q in (qf, q0):
        if q in live.get(0, ()):  # the sink is node 0, so (sink, q) is node q
            edges[-1][(q, 0)] = one
    return Abp(out_alphabet, field, sizes, edges)


def recover_blackbox(bb, automaton, field):
    """Given a black-box for an embedded polynomial, return one for its
    preimage: blow each input T_i up to (|Q|*N) x (|Q|*N) block matrices
    patterned on M_x / M_y and read off blocks (q0,qf) + (q0,q0)."""
    nq = automaton.n_states
    q0, qf = automaton.q0, automaton.qf
    bivariate = Alphabet.bivariate()
    moves = (_moves(automaton, X), _moves(automaton, Y))

    def big_matrix(letter, assignment):
        n = assignment.dim
        rows = [[field.zero] * (nq * n) for _ in range(nq * n)]
        ident = Matrix.identity(field, n)
        for i, j, out in moves[letter]:
            block = ident if out == OUT_ONE else assignment.mats[out[1]]
            for r in range(n):
                rows[i * n + r][j * n:(j + 1) * n] = block[r]
        return Matrix(field, rows)

    def recovered(assignment):
        n = assignment.dim
        big = MatrixAssignment(bivariate, field,
                               (big_matrix(X, assignment),
                                big_matrix(Y, assignment)))
        value = bb(big)
        out = [[field.zero] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                out[r][c] = (value[q0 * n + r][qf * n + c]
                             + value[q0 * n + r][q0 * n + c])
        return Matrix(field, out)

    return recovered


def reduce_and_recover(c, embedding, oracle):
    """The full white-box pipeline: embed the circuit, hand the expanded
    bivariate image to the factorization oracle, and pull each factor of
    the first factorization back through the automaton.

    Returns circuits over x_1..x_n whose expanded product is the input
    polynomial; the factors inherit irreducibility from the bivariate
    side.
    """
    from ncfactor.embedding import phi_circuit

    embedded = phi_circuit(c, embedding)
    image = embedded.expand()
    tree = oracle(image)
    if not tree.factorizations:
        raise ValueError("oracle returned no factorization")
    scalar, factors = tree.factorizations[0]
    automaton = build_automaton(embedding.wordset)
    out = []
    for idx, factor in enumerate(factors):
        poly = factor if idx or scalar == c.field.one else factor.scale(scalar)
        out.append(recover_circuit(circuit_from_poly(poly), automaton))
    if not factors:
        out.append(circuit_from_poly(NcPoly.constant(
            Alphabet.nvars(embedding.n), c.field, scalar)))
    return out
