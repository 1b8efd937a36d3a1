"""Machine yardstick: a fixed pure-Python job that imports no polygram code.

It does the kind of work polygram's kernels do, in plain Python: grammar
derivative steps on sparse polynomials stored as dicts of exponent tuples,
once through a small class with word-sized coefficients and once in bare
dicts with coefficients that grow to over a thousand digits.  The share of
each is set so that, on a shared host whose speed drifts, this job slows
down by about as much as the workloads do.  Prints one checksum line so the
caller can confirm it ran to the end.
"""

PRIME = 2147483647
CLASS_STEPS = 45
CLASS_ROUNDS = 12
BIGINT_STEPS = 650


class Poly:
    """Three-letter polynomial with coefficients reduced mod PRIME."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: v % PRIME for k, v in terms.items() if v % PRIME}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = out.get(k, 0) + x * y
        return Poly(out)

    def partial(self, i):
        out = {}
        for k, v in self.terms.items():
            if k[i]:
                lowered = list(k)
                lowered[i] -= 1
                out[tuple(lowered)] = v * k[i]
        return Poly(out)


def class_derive(rules, p):
    out = Poly({})
    for i, rule in enumerate(rules):
        out = out + rule * p.partial(i)
    return out


def bigint_derive(poly):
    """One step of the derivation with rules f -> f*g, g -> 4*f^2."""
    out = {}
    for (a, b), coeff in poly.items():
        if a:
            key = (a, b + 1)
            out[key] = out.get(key, 0) + a * coeff
        if b:
            key = (a + 2, b - 1)
            out[key] = out.get(key, 0) + 4 * b * coeff
    return out


def main():
    checksum = 0
    rules = (Poly({(1, 0, 2): 1}), Poly({(0, 2, 1): 1}), Poly({(0, 3, 0): 4}))
    for r in range(CLASS_ROUNDS):
        p = Poly({(2, 2, 0): 1 + r})
        for _ in range(CLASS_STEPS):
            p = class_derive(rules, p)
            checksum = (checksum * 31 + len(p.terms) + sum(p.terms.values())) % 1000000007
    poly = {(1, 0): 1}
    for _ in range(BIGINT_STEPS):
        poly = bigint_derive(poly)
        checksum = (checksum * 31 + len(poly) + sum(poly.values())) % 1000000007
    print(checksum)


if __name__ == "__main__":
    main()
