"""Job lists of the four workloads and the seeded grammar generator.

A job is one ``python -m polygram`` invocation.  Its ``kind`` says how the
correctness gate reads it: ``verify`` jobs are read row by row, ``derive``
jobs are recomputed here by an independent dict-based derivation, and every
other job is compared by the sha256 of its stdout.  Only ``cli-mix`` takes
the seed, through its random-grammar ``derive`` jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# The generator keeps raising n while the iterate stays below these sizes,
# so each derive job costs about the same whatever the seed.
DERIVE_JOBS = 4
DERIVE_N_CAP = 12
DERIVE_TERMS_CAP = 120
DERIVE_LETTERS = "uvwxyz"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str  # "verify", "derive" or "digest"
    # For derive jobs: (letters, rules, op, start, n) in the generator's form.
    spec: tuple | None = field(default=None, compare=False)

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def _verify(target: str, n_max: int | None = None, fmt: str = "text") -> Job:
    argv = ["verify", "--target", target]
    if n_max is not None:
        argv += ["--n-max", str(n_max)]
    if fmt != "text":
        argv += ["--format", fmt]
    return Job(tuple(argv), "verify")


def _digest(*argv: str) -> Job:
    return Job(tuple(argv), "digest")


SETUP_JOB = Job(("derive", "--grammar", "u->u", "--start", "u", "--n", "0"), "digest")

# Each workload is a fixed sequence of job groups of roughly a second or
# more each; the benchmark runs the reference job between groups.
VERIFY_ALL = ((_verify("all"),), (_verify("all", fmt="json"),))

GRAMMAR_STRESS = (
    (_verify("thm32", 400),),
    (_verify("thm44", 200), _verify("thm11", 200)),
    (_verify("prop12", 100), _verify("prop41", 200), _verify("thm43", 400)),
)

RING_STRESS = (
    (_verify("thm42", 100),), (_verify("cor33", 60),), (_verify("thm31", 60),),
    (_verify("egf", 60),),
)

CLI_MIX_FIXED = (
    (*(_digest("gamma", "--family", f, "--n", "300")
       for f in ("coxeter-a", "coxeter-b", "assoc-a", "assoc-b")),
     _digest("table", "--name", "gamma-a", "--rows", "250")),
    (_digest("table", "--name", "eulerian-b", "--rows", "150", "--format", "bfile"),
     _digest("table", "--name", "A055151", "--rows", "250", "--format", "json"),
     _digest("classical", "--which", "P", "--n", "200"),
     _digest("classical", "--which", "Q", "--n", "200"),
     _digest("classical", "--which", "T", "--n", "300")),
    (_digest("classical", "--which", "U", "--n", "300"),
     _digest("classical", "--which", "L", "--n", "100"),
     _digest("classical", "--which", "N", "--n", "100"),
     _digest("oracle", "--which", "descents-a", "--n", "8"),
     _digest("oracle", "--which", "descents-b", "--n", "6")),
    (_digest("oracle", "--which", "motzkin-up", "--n", "14"),
     _digest("oracle", "--which", "left-h", "--n", "14"),
     _verify("thm21", 120), _verify("thm22", 120)),
)

WORKLOADS = ("verify-all", "grammar-stress", "ring-stress", "cli-mix")

# Inputs that sit past the program's documented limits.  They are run
# untimed and classified; none asks for unbounded size.
PROBES = (
    ("classical", "--which", "T", "--n", "600"),
    ("gamma", "--family", "coxeter-b", "--n", "600"),
    ("derive", "--grammar", "u -> u*v; v -> u", "--start", "(" * 1000 + "u" + ")" * 1000,
     "--n", "1"),
    ("verify", "--target", "thm32", "--n-max", "0"),
    ("verify", "--target", "all", "--n-max", "0"),
)


def groups_for(workload: str, seed: int) -> tuple[tuple[Job, ...], ...]:
    """The workload's job groups, in the order a pass runs them."""
    if workload == "verify-all":
        return VERIFY_ALL
    if workload == "grammar-stress":
        return GRAMMAR_STRESS
    if workload == "ring-stress":
        return RING_STRESS
    if workload == "cli-mix":
        *head, last = CLI_MIX_FIXED
        return (*head, last + derive_jobs(seed))
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# seeded random grammars, with an independent derivation to check against


def derive_step(letters, rules, poly):
    """D(poly) for the grammar ``rules``; polynomials are {exps: coeff} dicts."""
    out: dict[tuple[int, ...], int] = {}
    for i, name in enumerate(letters):
        rule = rules[name]
        for exps, coeff in poly.items():
            e = exps[i]
            if not e:
                continue
            for rexps, rcoeff in rule.items():
                key = tuple(a + b - (j == i) for j, (a, b) in enumerate(zip(exps, rexps)))
                out[key] = out.get(key, 0) + e * coeff * rcoeff
    return {k: v for k, v in out.items() if v}


def _times_letter(poly, i):
    return {tuple(e + (j == i) for j, e in enumerate(exps)): c for exps, c in poly.items()}


def apply_op(letters, rules, op, poly):
    kind, _, weight = op.partition(":")
    if kind == "D":
        return derive_step(letters, rules, poly)
    i = letters.index(weight)
    if kind == "preD":
        return derive_step(letters, rules, _times_letter(poly, i))
    return _times_letter(derive_step(letters, rules, poly), i)


def derive_reference(spec) -> dict[tuple[int, ...], int]:
    letters, rules, op, start, n = spec
    poly = dict(start)
    for _ in range(n):
        poly = apply_op(letters, rules, op, poly)
    return poly


def _monomial_text(letters, exps, coeff) -> str:
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(letters, exps) if e]
    if coeff != 1 or not factors:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def _poly_text(letters, poly) -> str:
    return " + ".join(_monomial_text(letters, e, c) for e, c in sorted(poly.items()))


def _random_monomial(rng, width):
    while True:
        exps = tuple(rng.randint(0, 2) for _ in range(width))
        if 1 <= sum(exps) <= 3:
            return exps


def random_derive_job(rng: random.Random) -> Job:
    letters = tuple(sorted(rng.sample(DERIVE_LETTERS, rng.randint(2, 3))))
    width = len(letters)
    rules = {}
    for name in letters:
        rule: dict[tuple[int, ...], int] = {}
        for _ in range(rng.randint(1, 2)):
            exps = _random_monomial(rng, width)
            rule[exps] = rule.get(exps, 0) + rng.randint(1, 4)
        rules[name] = rule
    op = rng.choice(("D", f"preD:{rng.choice(letters)}", f"postD:{rng.choice(letters)}"))
    start = {_random_monomial(rng, width): 1}
    n, poly = 0, start
    while n < DERIVE_N_CAP:
        nxt = apply_op(letters, rules, op, poly)
        if not nxt or len(nxt) > DERIVE_TERMS_CAP:
            break
        n, poly = n + 1, nxt
    grammar = "; ".join(f"{name} -> {_poly_text(letters, rules[name])}" for name in letters)
    argv = ("derive", "--grammar", grammar, "--start", _poly_text(letters, start),
            "--op", op, "--n", str(n), "--format", "json")
    return Job(argv, "derive", (letters, rules, op, start, n))


def derive_jobs(seed: int) -> tuple[Job, ...]:
    rng = random.Random(seed)
    return tuple(random_derive_job(rng) for _ in range(DERIVE_JOBS))
