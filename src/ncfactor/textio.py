"""The grammar shared by the five text formats.

Every file is line-based: lines are stripped and blank lines skipped.
The first line is a header `<kind> key=value ...` whose kind names the
format (ncpoly, ncc, ncabp, linmat or cert).  A reader is a class with a
`KIND` attribute and a `_from_lines(head, lines)` classmethod that turns
the header dict and the body lines into an object; `read` runs it and
reports anything it raises on malformed text as a FormatError, so a bad
file never surfaces as a traceback or as a domain error.

Linear matrices and certificates share one matrix-block layout: d lines
of d space-separated rationals.
"""

from __future__ import annotations

from fractions import Fraction

from ncfactor.errors import FormatError
from ncfactor.fields import QQ
from ncfactor.matrix import Matrix

# What turning text into an object raises when the text is malformed.
MALFORMED = (IndexError, KeyError, ValueError, ZeroDivisionError)


def read(text, *readers):
    """Parse text with the reader whose KIND matches its header."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    kind = lines[0].split(None, 1)[0] if lines else ""
    for reader in readers:
        if reader.KIND == kind:
            break
    else:
        raise FormatError("expected a %s header, got %r"
                          % (" or ".join(r.KIND for r in readers), kind))
    try:
        head = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
        return reader._from_lines(head, lines[1:])
    except FormatError:
        raise
    except MALFORMED as exc:
        raise FormatError("malformed %s input: %s: %s"
                          % (kind, type(exc).__name__, exc)) from exc


def _rational(token):
    """The rational a token spells, as `Fraction(token)` reads it; a plain
    integer, the common entry, stays an int and skips Fraction's parser."""
    digits = token[1:] if token[:1] in "+-" else token
    return int(token) if digits.isdecimal() else Fraction(token)


def read_matrix(lines, pos, d):
    """The d x d rational matrix written in lines[pos:pos + d]."""
    rows = [[_rational(x) for x in lines[pos + i].split()] for i in range(d)]
    if any(len(row) != d for row in rows):
        raise FormatError("expected %d entries per matrix row" % d)
    return Matrix(QQ, rows)


def matrix_lines(m):
    """The rows of m in the matrix-block layout, written from its int rows
    over its denominator."""
    den = m.den
    if den == 1:
        return [" ".join(map(str, r)) for r in m.nums]
    return [" ".join(str(Fraction(x, den)) for x in r) for r in m.nums]
