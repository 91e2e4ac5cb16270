"""The grammar shared by the five text formats.

Every file is line-based: lines are stripped and blank lines skipped.
The first line is a header `<kind> key=value ...` whose kind names the
format (ncpoly, ncc, ncabp, linmat or cert).  A reader is a class with a
`KIND` attribute and a `_from_lines(head, lines)` classmethod that turns
the header dict and the body lines into an object; `read` runs it and
reports anything it raises on malformed text as a FormatError, so a bad
file never surfaces as a traceback or as a domain error.

Linear matrices and certificates share one matrix-block layout: d lines
of d space-separated rationals, read into and written from a `Matrix`'s
int rows over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ncfactor.errors import FormatError
from ncfactor.fields import QQ
from ncfactor.matrix import Matrix

# What turning text into an object raises when the text is malformed.
MALFORMED = (IndexError, KeyError, ValueError, ZeroDivisionError)


def read(text, *readers):
    """Parse text with the reader whose KIND matches its header."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
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


def _ratios(tokens):
    """(nums, dens), dens > 0, with nums[i] / dens[i] the rational that
    `Fraction(tokens[i])` reads.  Integers and `a/b` with decimal
    digits, the common entries, are read with `int`, which accepts them
    as Fraction does; when a token is of any other form (or a
    denominator is 0), every token goes through `Fraction`, so the
    accepted syntax and the errors are Fraction's."""
    parts = [t.partition("/") for t in tokens]
    if all(b.isdecimal() for _a, slash, b in parts if slash):
        try:
            nums = [int(a) for a, _s, _b in parts]
        except ValueError:
            pass
        else:
            dens = [int(b) if slash else 1 for _a, slash, b in parts]
            if 0 not in dens:
                return nums, dens
    values = [Fraction(t) for t in tokens]
    return [v.numerator for v in values], [v.denominator for v in values]


def read_matrix(lines, pos, d):
    """The d x d rational matrix written in lines[pos:pos + d], read into
    int rows over one denominator."""
    rows = [lines[pos + i].split() for i in range(d)]
    if list(map(len, rows)) != [d] * d:
        raise FormatError("expected %d entries per matrix row" % d)
    nums, dens = _ratios([t for row in rows for t in row])
    den = lcm(*dens)
    if den != 1:
        nums = [a * (den // b) for a, b in zip(nums, dens)]
    return Matrix.from_nums(QQ, [nums[i:i + d] for i in range(0, d * d, d)], den)


def matrix_lines(m):
    """The rows of m in the matrix-block layout, written from its int rows
    over its denominator: each entry as `str` of its Fraction prints it."""
    den = m.den
    if den == 1:
        return [" ".join(map(str, r)) for r in m.nums]
    return [" ".join(_entry(x, den) for x in r) for r in m.nums]


def _entry(x, den):
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)
