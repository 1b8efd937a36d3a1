"""Lines read in Z[x][s] / (s^2 - q(x)): one adjoined formal square root.

A value a + b*s is the plain pair (a, b) of ``UniPoly`` on the modulus's
letter.  In polygram only ``verify._specialize`` reads one, over
q = x^2 +/- 1: a got side, each line of c * s^e * x^b with s^2 rising as x^2
falls, enters through ``collect_line``, Horner in q, so no power of q is
ever formed.
"""

from __future__ import annotations

from operator import add, sub

from .unipoly import UniPoly, _trimmed

__all__ = ["collect_line"]


def collect_line(modulus: UniPoly, coeffs, e: int, top: int,
                 scale: int = 1) -> tuple[UniPoly, UniPoly]:
    """(a, b) with a + b*s = sum coeffs[k] * s^(e+2k) * (scale*x)^(top-2k), s^2 = modulus.

    The modulus must be x^2 +/- 1 = y +/- 1.  Homogeneous Horner in q over
    y = x^2: each step is one pass of additions, no power of q is formed,
    and scale, a power of two, enters as a shift.  A term with a negative
    power of s or x is refused: the caller divides out only the powers its
    terms carry, so a refusal is a broken invariant."""
    op = {(1, 0, 1): add, (-1, 0, 1): sub}.get(modulus.coeffs)
    bits, low = scale.bit_length() - 1, top - 2 * len(coeffs) + 2
    if op is None or scale < 1 or scale & scale - 1 or coeffs and (e < 0 or low < 0):
        raise ArithmeticError(f"collect_line got q = {modulus}, scale {scale}, s^{e}, x^{low}")
    zero = UniPoly._raw(modulus.var, ())
    if not coeffs:
        return zero, zero
    d = [0] * (e // 2) + [c << bits * (top - 2 * k) for k, c in enumerate(coeffs)]
    acc = [d.pop()]
    for c in reversed(d):
        # acc * (y +/- 1) + c * y^len(acc): the top slot is acc[-1] + c
        acc = [*map(op, [0, *acc], acc), acc[-1] + c]
    out = [0] * (low + 2 * len(acc) - 1)  # x^low acc(x^2)
    out[low::2] = acc
    line = _trimmed(modulus.var, out)
    return (zero, line) if e % 2 else (line, zero)  # the s part when e is odd
