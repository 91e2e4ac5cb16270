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
Each row of M_x and M_y has at most one nonzero entry, so the automaton
is stored as those entries alone, one move table per letter, and the
recovery routines read the tables directly.

Only row q0 of g'(M_x, M_y) is read, so recovery follows the scan from
q0 and never touches the rest: `recover_poly` scans each word of a
dense polynomial once; `recover_circuit` first finds the rows of
each gate's matrix that row q0 of the output depends on, then builds
only those, at a cost of O(gates x rows reached) instead of
O(gates x |Q|); `recover_abp` writes edges only from the (node, state)
pairs the source reaches.
"""

from __future__ import annotations

from ncfactor.circuits import Abp, CircuitBuilder, MatrixAssignment
from ncfactor.errors import SoundnessError
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, X, Y

class SubstAutomaton:
    """Deterministic automaton whose transitions output a variable or nothing.

    States: 0 = q0 (start, no incoming transitions), 1 = trie root,
    2..  = deeper trie states, then qf (accept) and qr (reject).
    moves = (mx, my): moves[letter] maps a state q to (q', out), the one
    nonzero entry (q, q') of M_letter, in ascending q; out is the index of
    the variable emitted, or None.  A state missing from moves[letter]
    has a zero row there: the scan dies, and the word reads as zero.
    """

    __slots__ = ("n_vars", "n_states", "q0", "root", "qf", "qr", "moves")

    def __init__(self, n_vars, qf, moves):
        self.n_vars = n_vars
        self.n_states = qf + 2
        self.q0 = 0
        self.root = 1
        self.qf = qf
        self.qr = qf + 1
        self.moves = moves


def build_automaton(wordset):
    """Trie-based construction over the words stripped of their first and
    last letters.

    For uniform-length word sets this is exactly the textbook automaton;
    with mixed lengths a state can be both the accept point of a shorter
    word and interior to a longer one.  Reading y there closes the
    shorter word (a balanced prefix of a Dyck continuation cannot be
    followed by y), reading x walks deeper, so determinism survives.
    """
    # the trie's edges go straight into the move tables; root = state 1
    mx, my = moves = ({}, {})
    accept = {}
    next_state = 2
    for i, word in enumerate(wordset):
        node = 1
        for letter in word[1:-1]:
            move = moves[letter].get(node)
            if move is None:
                move = moves[letter][node] = (next_state, None)
                next_state += 1
            node = move[0]
        if node in accept:
            raise SoundnessError("words %d and %d share a middle" % (accept[node], i))
        accept[node] = i

    qf = next_state
    for node in sorted(accept):
        if node in my:
            raise SoundnessError("a word continues with y past the end of "
                                 "word %d" % accept[node])
        my[node] = (qf, accept[node])
    mx[0] = mx[qf] = (1, None)
    return SubstAutomaton(wordset.n, qf, (dict(sorted(mx.items())), dict(sorted(my.items()))))


def _demand(c, automaton):
    """Demand pass: the rows of each gate's grid that row q0 of the output
    reads, as cols[gate] = {row: columns the row reaches}, the columns a
    tuple.

    Row i of a VAR grid reaches the target of row i's move in the
    letter's move table (nothing when it has none), row i of a CONST
    grid its own column; ADD reads both operands at row i; MUL reads its
    left operand at row i and its right operand at every column k that
    the left's row i reaches, and when that is one column it shares the
    right operand's entry.  Each (gate, row) is resolved once, on an
    explicit stack, so shared gates are not re-walked and deep circuits
    do not recurse.
    """
    moves = automaton.moves
    zero = c.field.zero
    gates = c.gates
    cols = [{} for _ in gates]
    stack = [(c.output, automaton.q0)]
    while stack:
        g, i = stack[-1]
        row = cols[g]
        if i in row:
            stack.pop()
            continue
        gate = gates[g]
        kind = gate[0]
        if kind == "var":
            move = moves[gate[1]].get(i)
            row[i] = () if move is None else (move[0],)
        elif kind == "const":
            row[i] = (i,) if gate[1] != zero else ()
        else:
            left = cols[gate[1]].get(i)
            if left is None:
                stack.append((gate[1], i))
                continue
            right = cols[gate[2]]
            if kind == "add":
                other = right.get(i)
                if other is None:
                    stack.append((gate[2], i))
                    continue
                if not other or other == left:
                    row[i] = left
                elif not left:
                    row[i] = other
                else:
                    row[i] = tuple(set(left).union(other))
            elif len(left) == 1:
                reached = right.get(left[0])
                if reached is None:
                    stack.append((gate[2], left[0]))
                    continue
                row[i] = reached
            else:
                missing = [(gate[2], k) for k in left if k not in right]
                if missing:
                    stack.extend(missing)
                    continue
                row[i] = tuple(set().union(*(right[k] for k in left)))
        stack.pop()
    return cols


def _check_bivariate(obj):
    """A ValueError unless obj is over x, y: the automaton reads only
    those two letters, so any other alphabet has no preimage."""
    if not obj.alphabet.is_bivariate:
        raise ValueError("recovery expects an input over xy, not %s" % obj.alphabet.spec())


def recover_poly(g, automaton):
    """Entry (q0, qf) + (q0, q0) of an xy polynomial g at (M_x, M_y).

    Each word of g is scanned once from q0 over the move tables.  A word
    that ends at qf is a concatenation of embedding words and keeps its
    coefficient on the variables it emitted; the empty word, the only
    one that ends at q0, keeps the constant term; every other word dies
    or ends elsewhere and reads as zero.
    """
    _check_bivariate(g)
    moves = automaton.moves
    ends = (automaton.qf, automaton.q0)
    terms = []
    for word, coeff in g.terms.items():
        state = automaton.q0
        emitted = []
        for letter in word:
            move = moves[letter].get(state)
            if move is None:
                break
            state, out = move
            if out is not None:
                emitted.append(out)
        else:
            if state in ends:
                terms.append((emitted, coeff))
    return NcPoly(Alphabet.nvars(automaton.n_vars), g.field, terms)


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
    output VAR gates in ascending source state, and every nonzero CONST gate
    creates its constant.  Structurally zero entries are never
    materialized, and the result is pruned to gates reachable from the
    output.
    """
    _check_bivariate(c)
    field = c.field
    out_alphabet = Alphabet.nvars(automaton.n_vars)
    b = CircuitBuilder(out_alphabet, field)
    one_gate = b.const(field.one)
    need = _demand(c, automaton)  # per gate: the rows to build, as dict keys
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
                var_rows[g[1]] = {i: ((i, j), one_gate if out is None else b.var(out))
                                  for i, (j, out) in automaton.moves[g[1]].items()}
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
    c0*I + cx*M_x + cy*M_y, so q2 ranges over q1 and the targets of q1's
    moves on x and y.  Only pairs (u, q1) that the source (0, q0) reaches
    get edges: a layer's live states are read off the nonzero edges
    written into it.
    """
    _check_bivariate(p)
    nq = automaton.n_states
    field = p.field
    out_alphabet = Alphabet.nvars(automaton.n_vars)
    q0, qf = automaton.q0, automaton.qf

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
                for letter in (X, Y):
                    move = automaton.moves[letter].get(q1)
                    if move is not None:
                        q2, out = move
                        word = () if out is None else (out,)
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

    def big_matrix(letter, assignment, ident):
        n = assignment.dim
        return Matrix.from_blocks(field, nq * n, nq * n, [
            (i * n, j * n, ident if out is None else assignment.mats[out])
            for i, (j, out) in automaton.moves[letter].items()])

    def recovered(assignment):
        n = assignment.dim
        ident = Matrix.identity(field, n)
        big = MatrixAssignment(bivariate, field,
                               (big_matrix(X, assignment, ident),
                                big_matrix(Y, assignment, ident)))
        value = bb(big)
        top = range(q0 * n, (q0 + 1) * n)
        return (value.submatrix(top, range(qf * n, (qf + 1) * n))
                + value.submatrix(top, range(q0 * n, (q0 + 1) * n)))

    return recovered


def reduce_and_recover(c, embedding, oracle):
    """The full white-box pipeline: embed the circuit or ABP (by
    `phi_circuit` or `phi_abp`), hand the expanded bivariate image to the
    factorization oracle, and pull each factor of the first
    factorization back through the automaton by `recover_poly`.

    Returns the factors as polynomials over c's own alphabet whose
    product is the input polynomial.  They inherit irreducibility from
    the bivariate side.  The answer is in one normal form whatever the
    word set: every factor is monic in c's own monomial order, and the
    first one carries the oracle's scalar times the leading coefficients
    divided out (a factor monic in the xy order need not be monic in
    c's order).  It is checked end to end by `_check_recovered`.
    """
    from ncfactor.embedding import phi_abp, phi_circuit

    if embedding.n != c.alphabet.size:
        raise ValueError("the embedding is for %d variables, the input has %d"
                         % (embedding.n, c.alphabet.size))
    embedded = (phi_abp if isinstance(c, Abp) else phi_circuit)(c, embedding)
    tree = oracle(embedded.expand())
    if not tree.factorizations:
        raise ValueError("oracle returned no factorization")
    scalar, factors = tree.factorizations[0]
    automaton = build_automaton(embedding.wordset)
    recovered = [NcPoly(c.alphabet, c.field, recover_poly(factor, automaton).terms)
                 for factor in factors]
    return _check_recovered(c, scalar, recovered, factors)


def _check_recovered(c, scalar, recovered, factors):
    """The polynomials `recovered` from the bivariate `factors`, in
    normal form: each made monic, scalar times their leading
    coefficients put on the first.  SoundnessError when a nonconstant
    factor came back constant, or when the answer does not multiply back
    to c.  Runs under -O too."""
    if any(g.degree < 1 <= factor.degree for g, factor in zip(recovered, factors)):
        raise SoundnessError("a nonconstant bivariate factor was recovered as a constant")
    head = NcPoly.constant(c.alphabet, c.field, scalar)
    out = []
    for g in recovered:
        lead, g = g.monic()
        head = head.scale(lead)
        out.append(g)
    out = [head * out[0]] + out[1:] if out else [head]
    product = out[0]
    for g in out[1:]:
        product = product * g
    if product != c.expand():
        raise SoundnessError("the recovered factors do not multiply back to the input")
    return out
