"""Sparse polynomials over a free noncommutative algebra.

A word is a tuple of letter indices into a declared alphabet; a
polynomial is a map from words to nonzero field coefficients.  The
monomial order compares degree first, then the leftmost differing
position, where a lower letter index wins.  On the bivariate alphabet
{x, y} (x = 0, y = 1) this is exactly: longer words are larger, and at
equal degree x beats y — so the order is multiplicative on both sides
and leading monomials multiply: lm(f*g) = lm(f)lm(g).

Terms are merged in one place, the `NcPoly` constructor: it sums the
coefficients of equal words and drops zero sums, so `+`, `-`, `*` and
every caller that builds a polynomial hand it a raw stream of
(word, coeff) pairs.

Exact division has one core, `_divide_terms`, on {word: coeff} dicts
(ints mod p over F_p, Fractions over Q).  `left_divide` and
`right_divide` reach it through the thin `NcPoly` wrapper `_divide`,
and the F_p factor oracle calls it directly on its int cofactors.  The
core keeps the remainder as one mutable dict, subtracts each quotient
term times g in place, and finds the remainder's leading word in a heap
instead of scanning the whole remainder at every step.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain

from ncfactor import textio
from ncfactor.errors import FormatError
from ncfactor.fields import PrimeField, field_spec, parse_field

NEG_INF = float("-inf")

X = 0
Y = 1


class Alphabet:
    """The letters x, y (bivariate) or x1..x<n>; words index into it.

    A name is spelled from its letter index when it is written and read
    back by its digits, so x1..x<n> holds n, not n names.
    """

    __slots__ = ("size", "is_bivariate")

    def __init__(self, size, is_bivariate):
        if size < 1:
            raise ValueError("empty alphabet")
        self.size = size
        self.is_bivariate = is_bivariate

    @classmethod
    def bivariate(cls):
        return cls(2, True)

    @classmethod
    def nvars(cls, n):
        return cls(n, False)

    def spec(self):
        if self.is_bivariate:
            return "xy"
        return "x1..x%d" % self.size

    @classmethod
    def parse_spec(cls, text):
        if text == "xy":
            return cls.bivariate()
        if text.startswith("x1..x"):
            return cls.nvars(int(text[5:]))
        raise FormatError("bad alphabet spec %r" % text)

    def index(self, name):
        """The letter of a name spelled as `word_to_str` spells it: x or y,
        or x<i> with ASCII digits and no leading zero, 1 <= i <= n.  Any
        other spelling raises KeyError."""
        if self.is_bivariate:
            return _XY_INDEX[name]
        digits = name[1:]
        if name[:1] == "x" and digits.isascii() and digits.isdigit() and digits[0] != "0":
            i = int(digits)
            if i <= self.size:
                return i - 1
        raise KeyError(name)

    def word_to_str(self, word):
        if not word:
            return "1"
        if self.is_bivariate:
            return "".join("xy"[c] for c in word)
        return ".".join("x%d" % (c + 1) for c in word)

    def word_from_str(self, text):
        if text == "1":
            return ()
        tokens = text if self.is_bivariate else text.split(".")
        return tuple(self.index(tok) for tok in tokens)

    def __eq__(self, other):
        return (isinstance(other, Alphabet) and self.size == other.size
                and self.is_bivariate == other.is_bivariate)

    def __hash__(self):
        return hash((self.size, self.is_bivariate))

    def __repr__(self):
        return "Alphabet(%s)" % self.spec()


_XY_INDEX = {"x": X, "y": Y}


def word_key(word):
    """Sort key realizing the monomial order (larger key = larger word)."""
    return (len(word), tuple(-c for c in word))


def _order_key(word):
    """The monomial order reversed, and cheap: the least key is the
    largest word (longer first, then the lower letter at the leftmost
    difference), the same order `word_key` realizes."""
    return (-len(word), word)


def imbalance(word):
    """#x minus #y of a bivariate word."""
    return sum(1 if c == X else -1 for c in word)


def bar(word):
    """Swap x and y letterwise (an involution on bivariate words)."""
    return tuple(1 - c for c in word)


class NcPoly:
    """Sparse free noncommutative polynomial with exact coefficients."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet, field, terms=()):
        self.alphabet = alphabet
        self.field = field
        # A word that cancels is popped, and re-appended if it comes back.
        zero = field.zero
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            if coeff == zero:
                continue
            word = tuple(word)
            acc = data.get(word)
            if acc is None:
                data[word] = coeff
                continue
            coeff = acc + coeff
            if coeff == zero:
                del data[word]
            else:
                data[word] = coeff
        self.terms = data

    @classmethod
    def zero(cls, alphabet, field):
        return cls(alphabet, field)

    @classmethod
    def one(cls, alphabet, field):
        return cls(alphabet, field, [((), field.one)])

    @classmethod
    def variable(cls, alphabet, field, index):
        if not 0 <= index < alphabet.size:
            raise ValueError("variable index %d out of range" % index)
        return cls(alphabet, field, [((index,), field.one)])

    @classmethod
    def constant(cls, alphabet, field, c):
        return cls(alphabet, field, [((), c)])

    @classmethod
    def monomial(cls, alphabet, field, word, coeff=None):
        return cls(alphabet, field, [(tuple(word), field.one if coeff is None else coeff)])

    def _compatible(self, other):
        if self.alphabet != other.alphabet or self.field != other.field:
            raise ValueError("alphabet/field mismatch")

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(len(w) for w in self.terms)

    def coeff(self, word):
        return self.terms.get(tuple(word), self.field.zero)

    def support(self):
        """Words with nonzero coefficient, largest first."""
        return sorted(self.terms, key=_order_key)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("leading monomial of the zero polynomial")
        return min(self.terms, key=_order_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._compatible(other)
        return NcPoly(self.alphabet, self.field,
                      chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return NcPoly(self.alphabet, self.field,
                      {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        self._compatible(other)
        return NcPoly(self.alphabet, self.field,
                      chain(self.terms.items(), ((w, -c) for w, c in other.terms.items())))

    def __mul__(self, other):
        """Convolution product: words concatenate, coefficients multiply."""
        self._compatible(other)
        return NcPoly(self.alphabet, self.field,
                      [(w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
                       for w2, c2 in other.terms.items()])

    def scale(self, c):
        if c == self.field.zero:
            return NcPoly.zero(self.alphabet, self.field)
        return NcPoly(self.alphabet, self.field,
                      {w: c * v for w, v in self.terms.items()})

    def monic(self):
        """(leading coefficient, self / leading coefficient)."""
        lc = self.leading_coeff()
        return lc, self.scale(self.field.one / lc)

    def __repr__(self):
        if not self.terms:
            return "NcPoly(0)"
        parts = ["%s %s" % (c, self.alphabet.word_to_str(w))
                 for w, c in sorted(self.terms.items(), key=lambda t: _order_key(t[0]))]
        return "NcPoly(%s)" % " + ".join(parts)

    # -- serialization -------------------------------------------------

    def to_text(self):
        """Canonical text form: header, then one term per line, largest first."""
        lines = ["ncpoly field=%s alphabet=%s" % (field_spec(self.field),
                                                  self.alphabet.spec())]
        for w in self.support():
            lines.append("%s %s" % (self.field.format(self.terms[w]),
                                    self.alphabet.word_to_str(w)))
        return "\n".join(lines) + "\n"

    KIND = "ncpoly"

    @classmethod
    def from_text(cls, text):
        return textio.read(text, cls)

    @classmethod
    def _from_lines(cls, head, lines):
        field = parse_field(head["field"])
        alphabet = Alphabet.parse_spec(head["alphabet"])
        terms = []
        for ln in lines:
            coeff, word = ln.split()
            terms.append((alphabet.word_from_str(word), field.parse(coeff)))
        return cls(alphabet, field, terms)


def _divide_terms(fterms, gterms, left, p):
    """The division core, on {word: coeff} dicts: the quotient q with
    f = g*q (left) or f = q*g (not left), or None when g does not divide
    f on that side.  Coefficients are ints mod p, or exact Fractions when
    p is 0; gterms must be nonzero, and neither input is changed.

    The remainder is one mutable dict, and a heap holds its words under
    `_order_key`, so its leading word is the heap's least live entry; a
    word that cancels leaves a stale entry, skipped when popped.  Each
    step takes the leading word m, which must be lm(g)+s (left) or
    s+lm(g) (right); the quotient term c*s is fixed by the leading
    coefficients, and c*s times the rest of g is subtracted in place.
    Every word it touches is below m, because the order is
    multiplicative, so the leading word strictly drops, the quotient is
    unique and the loop ends.
    """
    glm = min(gterms, key=_order_key)
    k = len(glm)
    if p:
        inv = pow(gterms[glm], -1, p)
        rest = [(w, -c % p, -len(w)) for w, c in gterms.items() if w != glm]
    else:
        inv = 1 / gterms[glm]
        rest = [(w, -c, -len(w)) for w, c in gterms.items() if w != glm]
    rem = dict(fterms)
    heap = [(-len(w), w) for w in rem]
    heapify(heap)
    quot = {}
    while heap:
        neg_len, m = heappop(heap)
        c = rem.pop(m, None)
        if c is None:
            continue
        # s has len(m) - k letters; a word shorter than lm(g) cannot match
        ls = -neg_len - k
        if ls < 0:
            return None
        if left:
            matched, s = m[:k], m[k:]
        else:
            s, matched = m[:ls], m[ls:]
        if matched != glm:
            return None
        c = c * inv % p if p else c * inv
        quot[s] = c
        for w, neg, neg_w in rest:
            word = w + s if left else s + w
            old = rem.get(word)
            if old is None:
                rem[word] = neg * c % p if p else neg * c
                heappush(heap, (neg_w - ls, word))
                continue
            val = (old + neg * c) % p if p else old + neg * c
            if val:
                rem[word] = val
            else:
                del rem[word]
    return quot


def _divide(f, g, side):
    """`_divide_terms` on polynomials: q with f = g*q (side "left") or
    f = q*g (side "right"), or None.  Over F_p the core runs on plain
    ints mod p and the quotient comes back as field elements; over Q it
    runs on the Fractions themselves."""
    f._compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("%s division by the zero polynomial" % side)
    field = f.field
    left = side == "left"
    if not isinstance(field, PrimeField):
        quot = _divide_terms(f.terms, g.terms, left, 0)
        return None if quot is None else NcPoly(f.alphabet, field, quot)
    quot = _divide_terms({w: c.value for w, c in f.terms.items()},
                         {w: c.value for w, c in g.terms.items()}, left, field.p)
    if quot is None:
        return None
    return NcPoly(f.alphabet, field, {s: field.from_int(c) for s, c in quot.items()})


def left_divide(f, g):
    """Exact left quotient: h with f = g*h, or None when no such h exists.

    The leading word of the remainder must start with lm(g) at every
    step; the quotient is unique because the free algebra is a domain
    and the order is multiplicative.
    """
    return _divide(f, g, "left")


def right_divide(f, g):
    """Exact right quotient: h with f = h*g, or None when no such h exists.

    The mirror of `left_divide`: the leading word of the remainder must
    end with lm(g), and suffixes are matched directly.
    """
    return _divide(f, g, "right")
