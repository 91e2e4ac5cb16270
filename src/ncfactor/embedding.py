"""The factorization-preserving embedding of n-variate polynomials into
two variables, plus its dense inverse and the naive substitution it improves on.

Variable x_i maps to v_i + bar(v_i) for an ordered set of distinct
minimally balanced words v_i; the map extends to words by multiplication
and to polynomials by linearity.  Because minimally balanced words are
prefix-free, words built from them parse uniquely; the dense inverse
reads that parse off the substitution automaton (`recover_poly`).
"""

from __future__ import annotations

from ncfactor.automaton import build_automaton, recover_poly
from ncfactor.circuits import Abp, CircuitBuilder, MatrixAssignment
from ncfactor.ncpoly import Alphabet, NcPoly, bar, imbalance
from ncfactor.words import enumerate_words, is_minimally_balanced


class Embedding:
    """Embedding data: the word set and per-variable image polynomials."""

    __slots__ = ("wordset", "source_alphabet", "target_alphabet", "_image_cache")

    def __init__(self, wordset):
        self.wordset = wordset
        self.source_alphabet = Alphabet.nvars(wordset.n)
        self.target_alphabet = Alphabet.bivariate()
        self._image_cache = {}

    @classmethod
    def for_variables(cls, n, mode="compact"):
        return cls(enumerate_words(n, mode))

    @property
    def n(self):
        return self.wordset.n

    def word(self, i):
        return self.wordset.words[i]

    def image_poly(self, field, i):
        """v_i + bar(v_i) as a bivariate polynomial."""
        key = (field, i)
        if key not in self._image_cache:
            w = self.word(i)
            self._image_cache[key] = NcPoly(self.target_alphabet, field,
                                            [(w, field.one), (bar(w), field.one)])
        return self._image_cache[key]

    def formula(self, field, i):
        """Bivariate circuit computing v_i + bar(v_i): two balanced product
        trees over the letters joined by one addition."""
        b = CircuitBuilder(self.target_alphabet, field)
        w = self.word(i)
        return b.build(b.add(b.word(w), b.word(bar(w))))


def phi_poly(f, embedding):
    """Image of a sparse polynomial under the embedding."""
    if f.alphabet.size > embedding.n:
        raise ValueError("polynomial uses more variables than the embedding provides")
    field = f.field
    terms = []
    for word, coeff in f.terms.items():
        img = NcPoly.constant(embedding.target_alphabet, field, coeff)
        for letter in word:
            img = img * embedding.image_poly(field, letter)
        terms.extend(img.terms.items())
    return NcPoly(embedding.target_alphabet, field, terms)


def phi_circuit(c, embedding):
    """Substitute the v_i + bar(v_i) formulas into a circuit."""
    for v in c.variables():
        if v >= embedding.n:
            raise ValueError("circuit variable x%d outside the embedding" % (v + 1))
    mapping = {v: embedding.formula(c.field, v) for v in c.variables()}
    if not mapping:
        # constant circuit: retarget the alphabet only
        return c.__class__(embedding.target_alphabet, c.field, c.gates, c.output)
    return c.substitute(mapping)


def phi_abp(p, embedding):
    """ABP version: every edge becomes a bundle of chains, one per word
    (v_i and bar(v_i) for each variable on the edge, plus a constant
    chain), padded with unit edges to the uniform depth."""
    for v in p.variables():
        if v >= embedding.n:
            raise ValueError("ABP variable x%d outside the embedding" % (v + 1))
    field = p.field
    target = embedding.target_alphabet
    depth = embedding.wordset.max_length()

    new_sizes = []
    new_edges = []
    for k, block in enumerate(p.edges):
        new_sizes.append(p.layer_sizes[k])
        inter = [0] * (depth - 1)
        gaps = [dict() for _ in range(depth)]
        for (u, v), label in sorted(block.items()):
            chains = []
            for w, c in sorted(label.terms.items()):
                word = embedding.word(w[0]) if w else ()
                chains.append((c, word))
                if w:
                    chains.append((c, bar(word)))
            for coeff, word in chains:
                letters = list(word) + [None] * (depth - len(word))
                prev = u
                for step, letter in enumerate(letters):
                    if letter is None:
                        lbl = NcPoly.constant(target, field, field.one)
                    else:
                        lbl = NcPoly.variable(target, field, letter)
                    if step == 0:
                        lbl = lbl.scale(coeff)
                    if step < depth - 1:
                        nxt = inter[step]
                        inter[step] += 1
                    else:
                        nxt = v
                    # each chain has fresh intermediate nodes (depth >= 2),
                    # so no two chains share an edge
                    gaps[step][(prev, nxt)] = lbl
                    prev = nxt
        new_edges.extend(gaps)
        new_sizes.extend(max(s, 1) for s in inter)
    new_sizes.append(p.layer_sizes[-1])
    return Abp(target, field, new_sizes, new_edges)


def phi_blackbox(bb, embedding, field):
    """Wrap a black-box for f into one for its embedded image: on matrices
    (T_x, T_y) call the inner box at x_i -> v_i(T) + bar(v_i)(T).

    Within one call every prefix of the words v_i and bar(v_i) is
    multiplied out once, left to right from its first letter's matrix,
    and shared by the words that start with it."""

    def embedded(assignment):
        letters = assignment.mats
        prefixes = {}

        def product(word):
            acc = letters[word[0]]
            for k in range(2, len(word) + 1):
                head = word[:k]
                nxt = prefixes.get(head)
                if nxt is None:
                    nxt = prefixes[head] = acc * letters[word[k - 1]]
                acc = nxt
            return acc

        mats = []
        for i in range(embedding.n):
            w = embedding.word(i)
            mats.append(product(w) + product(bar(w)))
        inner = MatrixAssignment(embedding.source_alphabet, field, mats)
        return bb(inner)

    return embedded


def phi_inverse_poly(g, embedding):
    """Dense inverse: the preimage f with phi(f) = g, or None.

    The candidate is what `recover_poly` reads off g through the
    automaton; a final exact comparison rejects anything outside the
    image.
    """
    f = recover_poly(g, build_automaton(embedding.wordset))
    return f if phi_poly(f, embedding) == g else None


def naive_substitution(f):
    """The PIT substitution x_i -> x y^i (injective but not
    factorization-preserving)."""
    terms = []
    for word, coeff in f.terms.items():
        image = []
        for letter in word:
            image.append(0)
            image.extend([1] * (letter + 1))
        terms.append((image, coeff))
    return NcPoly(Alphabet.bivariate(), f.field, terms)


def _segments(word):
    """Cut a balanced word at the zeros of its running imbalance."""
    out = []
    run = 0
    start = 0
    for pos, c in enumerate(word):
        run += 1 if c == 0 else -1
        if run == 0:
            out.append(word[start:pos + 1])
            start = pos + 1
    return out


def decompose_balanced(f):
    """Split f (all monomials balanced) as g + h with g in the subalgebra
    generated by the u + bar(u), and h zero or led by a monomial with
    some bar(u) inside.

    Repeatedly: while the leading monomial parses as u_{j1}...u_{jl}
    with every segment minimally balanced, subtract its coefficient
    times prod(u_{jk} + bar(u_{jk})).  The leading monomial strictly
    decreases, so this terminates.
    """
    for word in f.terms:
        if imbalance(word) != 0:
            raise ValueError("decompose_balanced needs all monomials balanced")
    field = f.field
    g = NcPoly.zero(f.alphabet, field)
    rem = f
    while not rem.is_zero():
        m = rem.leading_monomial()
        parts = _segments(m)
        if not all(is_minimally_balanced(s) for s in parts):
            break
        coeff = rem.terms[m]
        prod = NcPoly.constant(f.alphabet, field, coeff)
        for s in parts:
            prod = prod * NcPoly(f.alphabet, field,
                                 [(s, field.one), (bar(s), field.one)])
        g = g + prod
        rem = rem - prod
    return g, rem
