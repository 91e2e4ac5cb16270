"""Arithmetic circuit and ABP representations of noncommutative polynomials.

Circuits are gate lists in topological order (VAR, CONST, ADD, MUL with
operand order significant); ABPs are layered graphs with affine edge
labels, computing the sum over source-to-sink paths of the label
products in path order.  Both evaluate exactly at square-matrix
substitutions and expand to sparse polynomials for desk-scale checks.
"""

from __future__ import annotations

import random

from ncfactor import textio
from ncfactor.errors import BudgetExceededError, FormatError
from ncfactor.fields import RationalField, field_spec, parse_field
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly

EXPAND_BUDGET = 10 ** 6
EQUAL_WHP_TRIALS = 10


class MatrixAssignment:
    """One N x N matrix per alphabet variable, all over the same field."""

    __slots__ = ("alphabet", "field", "dim", "mats")

    def __init__(self, alphabet, field, mats):
        mats = tuple(mats)
        if len(mats) != alphabet.size:
            raise ValueError("need one matrix per variable")
        dim = mats[0].nrows
        for m in mats:
            if not m.is_square or m.nrows != dim or m.field != field:
                raise ValueError("assignment matrices must be square, equal size, same field")
        self.alphabet = alphabet
        self.field = field
        self.dim = dim
        self.mats = mats

    @classmethod
    def random(cls, alphabet, field, dim, rng):
        """Seeded sample: entries from {-3..3} over Q, uniform over F_p;
        refused when one product would pass EXPAND_BUDGET multiplications
        or the matrices EXPAND_BUDGET entries."""
        if dim ** 3 > EXPAND_BUDGET:
            raise BudgetExceededError(
                "a %d x %d matrix product needs %d scalar multiplications, limit %d"
                % (dim, dim, dim ** 3, EXPAND_BUDGET))
        if alphabet.size * dim * dim > EXPAND_BUDGET:
            raise BudgetExceededError(
                "%d matrices of size %d x %d hold %d entries, limit %d"
                % (alphabet.size, dim, dim, alphabet.size * dim * dim, EXPAND_BUDGET))
        if isinstance(field, RationalField):
            draw = lambda: field.from_int(rng.randint(-3, 3))
        else:
            draw = lambda: field.from_int(rng.randrange(field.p))
        mats = [Matrix(field, [[draw() for _ in range(dim)] for _ in range(dim)])
                for _ in range(alphabet.size)]
        return cls(alphabet, field, mats)

    def __getitem__(self, var):
        return self.mats[var]


def eval_word(word, assignment):
    """Product of assignment matrices along a word (identity for the empty word)."""
    acc = Matrix.identity(assignment.field, assignment.dim)
    for c in word:
        acc = acc * assignment.mats[c]
    return acc


def eval_affine(label, assignment):
    """Evaluate a degree<=1 polynomial at a matrix assignment."""
    n = assignment.dim
    field = assignment.field
    acc = Matrix.zeros(field, n, n)
    for word, coeff in label.terms.items():
        if not word:
            acc = acc + Matrix.identity(field, n).scale(coeff)
        else:
            acc = acc + assignment.mats[word[0]].scale(coeff)
    return acc


def _budgeted_product(a, b, budget):
    """a * b, refused before it runs when it would touch more than
    `budget` pairs of terms, so one product cannot exhaust memory."""
    touched = len(a.terms) * len(b.terms)
    if touched > budget:
        raise BudgetExceededError("expansion product touches %d terms, budget %d"
                                  % (touched, budget))
    return a * b


class Circuit:
    """DAG of gates; gate k may reference only gates 0..k-1."""

    __slots__ = ("alphabet", "field", "gates", "output")

    def __init__(self, alphabet, field, gates, output):
        gates = tuple(tuple(g) for g in gates)
        for k, g in enumerate(gates):
            kind = g[0]
            if kind == "var":
                if not 0 <= g[1] < alphabet.size:
                    raise ValueError("gate %d: variable out of range" % k)
            elif kind == "const":
                pass
            elif kind in ("add", "mul"):
                if not (0 <= g[1] < k and 0 <= g[2] < k):
                    raise ValueError("gate %d: forward reference" % k)
            else:
                raise ValueError("unknown gate kind %r" % (kind,))
        if not 0 <= output < len(gates):
            raise ValueError("output gate out of range")
        self.alphabet = alphabet
        self.field = field
        self.gates = gates
        self.output = output

    @property
    def size(self):
        return len(self.gates)

    def variables(self):
        return sorted({g[1] for g in self.gates if g[0] == "var"})

    def evaluate(self, assignment):
        """Gate-by-gate evaluation; CONST c becomes c*I."""
        if assignment.field != self.field:
            raise ValueError("field mismatch")
        if assignment.alphabet.size < self.alphabet.size:
            raise ValueError("assignment does not cover the circuit alphabet")
        n = assignment.dim
        vals = []
        for g in self.gates:
            kind = g[0]
            if kind == "var":
                vals.append(assignment.mats[g[1]])
            elif kind == "const":
                vals.append(Matrix.identity(self.field, n).scale(g[1]))
            elif kind == "add":
                vals.append(vals[g[1]] + vals[g[2]])
            else:
                vals.append(vals[g[1]] * vals[g[2]])
        return vals[self.output]

    def expand(self, degree_bound=None, budget=EXPAND_BUDGET):
        """Exact dense polynomial by bottom-up propagation (a test oracle,
        not a production path: every gate's support is budget-capped, and
        a product is refused before it runs when the pairs of terms it
        would touch pass the budget)."""
        vals = []
        for g in self.gates:
            kind = g[0]
            if kind == "var":
                vals.append(NcPoly.variable(self.alphabet, self.field, g[1]))
            elif kind == "const":
                vals.append(NcPoly.constant(self.alphabet, self.field, g[1]))
            elif kind == "add":
                vals.append(vals[g[1]] + vals[g[2]])
            else:
                vals.append(_budgeted_product(vals[g[1]], vals[g[2]], budget))
            if len(vals[-1].terms) > budget:
                raise BudgetExceededError("expansion support exceeds %d terms" % budget)
        out = vals[self.output]
        if degree_bound is not None and out.degree > degree_bound:
            raise ValueError("expansion exceeds the declared degree bound")
        return out

    def substitute(self, mapping):
        """Replace each VAR gate with the mapped subcircuit (spliced once);
        the result computes the composed polynomial."""
        used = set(self.variables())
        missing = used - set(mapping)
        if missing:
            raise ValueError("substitution map missing variables %s" % sorted(missing))
        if mapping:
            some = next(iter(mapping.values()))
            alphabet, field = some.alphabet, some.field
            for sub in mapping.values():
                if sub.alphabet != alphabet or sub.field != field:
                    raise ValueError("substitution circuits disagree on alphabet/field")
            if field != self.field:
                raise ValueError("substitution field mismatch")
        else:
            alphabet = self.alphabet
        gates = []
        sub_out = {}
        for v in sorted(mapping):
            base = len(gates)
            sub = mapping[v]
            for g in sub.gates:
                if g[0] in ("add", "mul"):
                    gates.append((g[0], g[1] + base, g[2] + base))
                else:
                    gates.append(g)
            sub_out[v] = base + sub.output
        remap = {}
        for k, g in enumerate(self.gates):
            kind = g[0]
            if kind == "var":
                remap[k] = sub_out[g[1]]
            elif kind == "const":
                remap[k] = len(gates)
                gates.append(g)
            else:
                remap[k] = len(gates)
                gates.append((kind, remap[g[1]], remap[g[2]]))
        # a splice of valid circuits is valid: it is built without re-checking
        return _circuit(alphabet, self.field, tuple(gates), remap[self.output]).pruned()

    def pruned(self):
        """Drop gates unreachable from the output, preserving order; self
        when the output reaches every gate (a Circuit is immutable).  The
        remapped copy of a valid circuit is valid, so it is not re-checked."""
        gates = self.gates
        keep = set()
        stack = [self.output]
        while stack:
            k = stack.pop()
            if k in keep:
                continue
            keep.add(k)
            g = gates[k]
            if g[0] in ("add", "mul"):
                stack.append(g[1])
                stack.append(g[2])
        if len(keep) == len(gates):
            return self
        order = sorted(keep)
        remap = {old: new for new, old in enumerate(order)}
        out = []
        for old in order:
            g = gates[old]
            if g[0] in ("add", "mul"):
                out.append((g[0], remap[g[1]], remap[g[2]]))
            else:
                out.append(g)
        return _circuit(self.alphabet, self.field, tuple(out), remap[self.output])

    # -- serialization -------------------------------------------------

    def to_text(self):
        lines = ["ncc field=%s alphabet=%s" % (field_spec(self.field), self.alphabet.spec())]
        for k, g in enumerate(self.gates):
            kind = g[0]
            if kind == "var":
                lines.append("g%d = VAR %s" % (k, self.alphabet.word_to_str((g[1],))))
            elif kind == "const":
                lines.append("g%d = CONST %s" % (k, self.field.format(g[1])))
            else:
                lines.append("g%d = %s g%d g%d" % (k, kind.upper(), g[1], g[2]))
        lines.append("output g%d" % self.output)
        return "\n".join(lines) + "\n"

    KIND = "ncc"

    @classmethod
    def from_text(cls, text):
        return textio.read(text, cls)

    @classmethod
    def _from_lines(cls, head, lines):
        """Gate lines `gK = OP ...` and an `output gK` line, each split once.
        A gate's target is its first token when " = " follows it, and
        otherwise the text before the first " = " (a line without one, a
        tab-separated line among them, is malformed).  An operand spelled
        as an earlier target is looked up; any other is read as g<int>.
        Numbering, ops, arity and reference syntax are checked here;
        forward references and the output's range by `Circuit.__init__`."""
        field = parse_field(head["field"])
        alphabet = Alphabet.parse_spec(head["alphabet"])
        gates = []
        index = {}  # target token -> gate number
        output = None
        for ln in lines:
            parts = ln.split()
            target = parts[0]
            if ln[len(target):len(target) + 3] != " = ":
                if ln.startswith("output "):
                    ref = parts[1]
                    if ref[0] != "g":
                        raise FormatError("bad gate reference %r" % ref)
                    output = int(ref[1:])
                    continue
                target, rhs = ln.split(" = ", 1)
                parts = [target, "="] + rhs.split()
            k = len(gates)
            if target[0] != "g":
                raise FormatError("bad gate reference %r" % target)
            if int(target[1:]) != k:
                raise FormatError("gates must be numbered consecutively: %r" % ln)
            index[target] = k
            op = parts[2]
            if op == "MUL" or op == "ADD":
                a, b = index.get(parts[3]), index.get(parts[4])
                if a is None or b is None:
                    a, b = parts[3], parts[4]
                    if a[0] != "g" or b[0] != "g":
                        raise FormatError("bad gate reference in %r" % ln)
                    a, b = int(a[1:]), int(b[1:])
                gates.append(("mul" if op == "MUL" else "add", a, b))
            elif op == "VAR":
                gates.append(("var", alphabet.index(parts[3])))
            elif op == "CONST":
                gates.append(("const", field.parse(parts[3])))
            else:
                raise FormatError("unknown gate op %r" % op)
        if output is None:
            raise FormatError("missing output line")
        return cls(alphabet, field, gates, output)


def _circuit(alphabet, field, gates, output):
    """The Circuit of a tuple of gate tuples already known to be valid,
    built without the checks of `Circuit.__init__`."""
    c = object.__new__(Circuit)
    c.alphabet, c.field, c.gates, c.output = alphabet, field, gates, output
    return c


class CircuitBuilder:
    """Incremental construction with shared VAR/CONST gates."""

    def __init__(self, alphabet, field):
        self.alphabet = alphabet
        self.field = field
        self.gates = []
        self._cache = {}

    def var(self, i):
        key = ("var", i)
        if key not in self._cache:
            self._cache[key] = len(self.gates)
            self.gates.append(key)
        return self._cache[key]

    def const(self, c):
        key = ("const", c)
        if key not in self._cache:
            self._cache[key] = len(self.gates)
            self.gates.append(key)
        return self._cache[key]

    def add(self, i, j):
        self.gates.append(("add", i, j))
        return len(self.gates) - 1

    def mul(self, i, j):
        self.gates.append(("mul", i, j))
        return len(self.gates) - 1

    def word(self, word):
        """Balanced product tree over the letters; empty word = CONST 1."""
        if not word:
            return self.const(self.field.one)
        nodes = [self.var(c) for c in word]
        while len(nodes) > 1:
            nxt = []
            for i in range(0, len(nodes) - 1, 2):
                nxt.append(self.mul(nodes[i], nodes[i + 1]))
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return nodes[0]

    def build(self, output):
        return Circuit(self.alphabet, self.field, self.gates, output)


def circuit_from_poly(poly):
    """A circuit computing the given sparse polynomial directly."""
    b = CircuitBuilder(poly.alphabet, poly.field)
    acc = None
    for word in poly.support():
        coeff = poly.terms[word]
        node = b.word(word)
        if coeff != poly.field.one:
            node = b.mul(b.const(coeff), node)
        acc = node if acc is None else b.add(acc, node)
    if acc is None:
        acc = b.const(poly.field.zero)
    return b.build(acc)


class Abp:
    """Layered branching program with affine (degree<=1 NcPoly) edge labels."""

    __slots__ = ("alphabet", "field", "layer_sizes", "edges")

    def __init__(self, alphabet, field, layer_sizes, edges):
        layer_sizes = tuple(layer_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("an ABP needs at least two layers")
        if layer_sizes[0] != 1 or layer_sizes[-1] != 1:
            raise ValueError("source and sink layers must have one node")
        if any(s < 1 for s in layer_sizes):
            raise ValueError("empty layer")
        edges = tuple(dict(e) for e in edges)
        if len(edges) != len(layer_sizes) - 1:
            raise ValueError("need one edge block per layer gap")
        for k, block in enumerate(edges):
            for (u, v), label in block.items():
                if not (0 <= u < layer_sizes[k] and 0 <= v < layer_sizes[k + 1]):
                    raise ValueError("edge endpoint out of range in gap %d" % k)
                if not isinstance(label, NcPoly) or label.alphabet != alphabet \
                        or label.field != field or (label.terms and label.degree > 1):
                    raise ValueError("edge labels must be affine polynomials")
        self.alphabet = alphabet
        self.field = field
        self.layer_sizes = layer_sizes
        self.edges = edges

    @property
    def size(self):
        return sum(self.layer_sizes) + sum(len(b) for b in self.edges)

    @property
    def n_layers(self):
        return len(self.layer_sizes)

    def variables(self):
        out = set()
        for block in self.edges:
            for label in block.values():
                for word in label.terms:
                    if word:
                        out.add(word[0])
        return sorted(out)

    def evaluate(self, assignment):
        """Layer-by-layer transfer: node values are N x N matrices."""
        if assignment.field != self.field:
            raise ValueError("field mismatch")
        n = assignment.dim
        vals = [Matrix.identity(self.field, n)]
        for k, block in enumerate(self.edges):
            nxt = [None] * self.layer_sizes[k + 1]
            for (u, v), label in block.items():
                if vals[u] is None:
                    continue
                term = vals[u] * eval_affine(label, assignment)
                nxt[v] = term if nxt[v] is None else nxt[v] + term
            vals = nxt
        out = vals[0]
        return Matrix.zeros(self.field, n, n) if out is None else out

    def expand(self, degree_bound=None, budget=EXPAND_BUDGET):
        vals = [NcPoly.one(self.alphabet, self.field)]
        for k, block in enumerate(self.edges):
            nxt = [NcPoly.zero(self.alphabet, self.field)
                   for _ in range(self.layer_sizes[k + 1])]
            for (u, v), label in block.items():
                nxt[v] = nxt[v] + _budgeted_product(vals[u], label, budget)
                if len(nxt[v].terms) > budget:
                    raise BudgetExceededError("expansion support exceeds %d terms" % budget)
            vals = nxt
        out = vals[0]
        if degree_bound is not None and out.degree > degree_bound:
            raise ValueError("expansion exceeds the declared degree bound")
        return out

    # -- serialization -------------------------------------------------

    def to_text(self):
        lines = ["ncabp field=%s alphabet=%s layers=%d"
                 % (field_spec(self.field), self.alphabet.spec(), self.n_layers)]
        for k, block in enumerate(self.edges):
            lines.append("layer %d" % k)
            for (u, v) in sorted(block):
                lines.append("edge %d %d %s" % (u, v, affine_to_str(block[(u, v)])))
        return "\n".join(lines) + "\n"

    KIND = "ncabp"

    @classmethod
    def from_text(cls, text):
        return textio.read(text, cls)

    @classmethod
    def _from_lines(cls, head, lines):
        field = parse_field(head["field"])
        alphabet = Alphabet.parse_spec(head["alphabet"])
        n_layers = int(head["layers"])
        if n_layers - 1 > len(lines):
            raise FormatError("%d layers need a layer line per gap, got %d body lines"
                              % (n_layers, len(lines)))
        edges = [dict() for _ in range(n_layers - 1)]
        labels = {}  # label text -> its polynomial, shared by the edges it labels
        current = None
        for ln in lines:
            if ln.startswith("layer "):
                current = int(ln.split()[1])
                if not 0 <= current < n_layers - 1:
                    raise FormatError("layer index out of range")
            elif ln.startswith("edge "):
                if current is None:
                    raise FormatError("edge before any layer line")
                parts = ln.split(None, 3)
                u, v = int(parts[1]), int(parts[2])
                if max(u, v) >= EXPAND_BUDGET:
                    raise BudgetExceededError("edge %d %d: a layer of more than %d nodes"
                                              % (u, v, EXPAND_BUDGET))
                label = labels.get(parts[3])
                if label is None:
                    label = labels[parts[3]] = affine_from_str(parts[3], alphabet, field)
                edges[current][(u, v)] = label
            else:
                raise FormatError("bad abp line %r" % ln)
        sizes = [1] * n_layers
        for k, block in enumerate(edges):
            for (u, v) in block:
                sizes[k] = max(sizes[k], u + 1)
                sizes[k + 1] = max(sizes[k + 1], v + 1)
        sizes[0] = 1
        sizes[-1] = 1
        return cls(alphabet, field, sizes, edges)


def affine_to_str(label):
    """Canonical affine syntax: c0 + c1*x + c2*y with zero terms omitted."""
    fmt, name = label.field.format, label.alphabet.word_to_str
    parts = ["%s*%s" % (fmt(c), name(w)) if w else fmt(c)
             for w, c in sorted(label.terms.items())]
    return " + ".join(parts) if parts else "0"


def affine_from_str(text, alphabet, field):
    text = text.strip()
    if text == "0":
        return NcPoly.zero(alphabet, field)
    terms = []
    for tok in text.split(" + "):
        if "*" in tok:
            coeff, name = tok.split("*", 1)
            terms.append(((alphabet.index(name),), field.parse(coeff)))
        else:
            terms.append(((), field.parse(tok)))
    return NcPoly(alphabet, field, terms)


def equal_whp(c1, c2, degree_bound, seed, trials=EQUAL_WHP_TRIALS):
    """Randomized equality of two circuits/ABPs by matrix substitution.

    Dimension floor(d/2)+1 guarantees a nonzero polynomial of degree <= d
    cannot vanish identically on matrices of that size, so the verdict
    has one-sided error: 'unequal' is always correct.
    """
    if c1.alphabet != c2.alphabet or c1.field != c2.field:
        raise ValueError("operands over different alphabets/fields")
    rng = random.Random(seed)
    dim = degree_bound // 2 + 1
    for _ in range(trials):
        assignment = MatrixAssignment.random(c1.alphabet, c1.field, dim, rng)
        if c1.evaluate(assignment) != c2.evaluate(assignment):
            return False
    return True
