"""Minimally balanced bivariate words: recognition, enumeration, counting.

A nonempty word over {x, y} is minimally balanced when its imbalance is
zero and every proper nonempty prefix has strictly positive imbalance;
equivalently it is x*d*y for a Dyck word d.  Such words form a
prefix-free set, which is what makes parsing concatenations of them
unambiguous.
"""

from __future__ import annotations

from itertools import chain, count, islice
from math import comb

from ncfactor.errors import BudgetExceededError, SoundnessError
from ncfactor.ncpoly import X, Y

# The largest word set `enumerate_words` builds.  Every embedding, and so
# every `words`, `embed` and `recover` call, enumerates its word set first;
# a larger request is refused before any word is built.  The benchmark's
# largest op asks for 600 words; at this limit a paper-mode `recover` of a
# small circuit takes about 2 s and 250 MB peak RSS (`recover
# tests/golden/embed_circuit_paper.txt --nvars 100000 --mode paper`, in its
# own process, Python 3.11 on a 2-CPU Xeon host: 1.6-1.8 s, 246 MB).
WORDS_MAX = 10 ** 5


def catalan(k):
    """The exact k-th Catalan number."""
    if k < 0:
        raise ValueError("catalan of negative index")
    return comb(2 * k, k) // (k + 1)


def is_minimally_balanced(word):
    if not word:
        return False
    run = 0
    for c in word[:-1]:
        run += 1 if c == X else -1
        if run <= 0:
            return False
    run += 1 if word[-1] == X else -1
    return run == 0


def dyck_words(half_length):
    """All Dyck words of length 2*half_length, ascending in the word order.

    y sorts below x, so the first word is (xy)^half_length, the least
    that never has more y than x in a prefix.  The successor of a word
    turns its rightmost y that some later x follows into x, and fills
    the rest with the least completion: y down to height 0, then xy
    pairs.  One list is rewritten in place.
    """
    word = [X, Y] * half_length
    n = len(word)
    while True:
        yield tuple(word)
        xs_after = 0
        i = n - 1
        while i >= 0 and (word[i] == X or not xs_after):
            xs_after += word[i] == X
            i -= 1
        if i < 0:
            return
        # word[:i] holds half_length - xs_after letters x; word[i] becomes one
        height = 2 * (half_length - xs_after + 1) - (i + 1)
        word[i:] = [X] + [Y] * height + [X, Y] * (xs_after - 1)


def _family(length, k):
    """The words x^k * d * y^k of the given length (d Dyck), ascending."""
    if length < 2 * k or length % 2:
        return
    head, tail = (X,) * k, (Y,) * k
    for d in dyck_words(length // 2 - k):
        yield head + d + tail


def minimally_balanced_words(length):
    """All minimally balanced words of the given even length, ascending."""
    yield from _family(length, 1)


def minimally_balanced_up_to(max_length):
    """All minimally balanced words of length <= max_length, shortest first
    and ascending within a length — the canonical indexing u_1, u_2, ...
    """
    return [w for length in range(2, max_length + 1, 2) for w in _family(length, 1)]


def paper_family_words(length):
    """Words xx*d*yy of the given length (d Dyck), ascending; these are the
    uniform-length minimally balanced words the recovery automaton uses."""
    yield from _family(length, 2)


class WordSet:
    """An ordered list of n distinct minimally balanced words, kept as
    given: `enumerate_words` builds them so, and `build_automaton`
    refuses a set in which two words share a middle or one word goes on
    with y where another ends."""

    __slots__ = ("n", "words", "mode")

    def __init__(self, words, mode):
        words = tuple(words)
        if not words:
            raise ValueError("empty word set")
        self.n = len(words)
        self.words = words
        self.mode = mode

    def max_length(self):
        return max(len(w) for w in self.words)

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, WordSet) and self.words == other.words

    def __repr__(self):
        return "WordSet(n=%d, mode=%s)" % (self.n, self.mode)


def enumerate_words(n, mode="compact"):
    """The word set defining the embedding of n variables.

    compact: the n shortest minimally balanced words, shortest first and
    ascending within a length.  paper: the first n words xx*d*yy of the
    single length 2*l with l = max(ceil(log2(4n)), 7), ascending.  More
    than WORDS_MAX words raise BudgetExceededError.
    """
    if n < 1:
        raise ValueError("need at least one word")
    if n > WORDS_MAX:
        raise BudgetExceededError("word set of %d words, limit %d" % (n, WORDS_MAX))
    if mode == "compact":
        family = chain.from_iterable(_family(length, 1) for length in count(2, 2))
        return WordSet(islice(family, n), "compact")
    if mode == "paper":
        ell = max((4 * n - 1).bit_length(), 7)
        if n > catalan(ell - 2):
            raise SoundnessError("length %d leaves too few words for n=%d" % (2 * ell, n))
        return WordSet(islice(_family(2 * ell, 2), n), "paper")
    raise ValueError("mode must be 'paper' or 'compact', got %r" % mode)
