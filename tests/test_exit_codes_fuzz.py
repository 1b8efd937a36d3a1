"""Seeded fuzz test of the exit-code contract over every subcommand.

``cli.main`` runs in process on random valid and invalid arguments at small
sizes: bad numbers, unknown names, sizes just past each guard, missing and
unknown flags, and malformed rule and start text.  The contract: exit 0 or
2, or 1 only from ``verify``, and never 3.  argparse's ``SystemExit(2)``
counts as exit 2.  A handler's exit 2 prints nothing on stdout and exactly
one ``error:`` line on stderr.
"""

import random

from polygram.cli import FAMILY_NAMES, TARGET_NAMES, main
from polygram.oracles import MAX_PLAIN_N, MAX_SIGNED_N

# Path oracles accept lengths 0..18.
MAX_PATH_LENGTH = 18

BAD_INTS = ["x", "", "1.5", "1e3", "0x10", "--", "-"]
TRIANGLE_NAMES = ["gamma-a", "gamma-b", "eulerian-a", "eulerian-b", "assoc-h-a", "assoc-h-b",
                  "assoc-gamma-a", "assoc-gamma-b", "motzkin-T", "cube-f", "A101280",
                  "A038207", "A107230"]
GRAMMARS = ["u -> u*v; v -> u + v", "f -> f*g; g -> 4*f^2", "y -> z^2; z -> y*z",
            "u -> u^2*v; v -> 4*u^3", "t -> t*u^2; u -> u^2*v; v -> 4*u^3"]


def _mutated(rng, text):
    """Truncated, one character dropped, or one character doubled."""
    if not text:
        return text
    i = rng.randrange(len(text))
    return rng.choice((text[:i], text[:i] + text[i + 1:], text[:i] + text[i] + text[i:]))


def _size(rng, valid, guard=None):
    """A valid size, a size just outside a bound, or a string that is no int."""
    pool = [str(n) for n in valid] + ["-1", "0", rng.choice(BAD_INTS)]
    if guard is not None:
        pool.append(str(guard + 1))
    return rng.choice(pool)


def _name(rng, names):
    return rng.choice([*names, rng.choice(names).upper(), "nope", ""])


def _derive(rng):
    grammar = rng.choice(GRAMMARS)
    letters = [rule.split("->")[0].strip() for rule in grammar.split(";")]
    start = rng.choice([letters[0], f"{letters[0]}*{letters[-1]}", f"{letters[-1]}^2 - 3",
                        "2", "w"])
    if rng.random() < 0.5:
        grammar = _mutated(rng, grammar)
    if rng.random() < 0.3:
        start = _mutated(rng, start)
    op = rng.choice(["D", f"preD:{letters[0]}", f"postD:{letters[-1]}", "preD:q", "preD:",
                     "postD", "d"])
    argv = ["derive", "--grammar", grammar, "--start", start, "--op", op,
            "--n", _size(rng, range(5))]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(["text", "json", "xml"])]
    if rng.random() < 0.1:
        argv[2] = "@" + rng.choice(["double-angle", ""])
    return argv


def _gamma(rng):
    return ["gamma", "--family", _name(rng, FAMILY_NAMES), "--n", _size(rng, range(1, 9)),
            "--format", rng.choice(["text", "json", "csv"])]


def _table(rng):
    return ["table", "--name", _name(rng, TRIANGLE_NAMES), "--rows", _size(rng, range(1, 9)),
            "--format", rng.choice(["text", "json", "bfile", "tsv"])]


def _oracle(rng):
    which, guard = rng.choice([("descents-a", MAX_PLAIN_N), ("descents-b", MAX_SIGNED_N),
                               ("alternating-a", MAX_PLAIN_N), ("alternating-b", MAX_SIGNED_N),
                               ("motzkin-up", MAX_PATH_LENGTH), ("left-h", MAX_PATH_LENGTH),
                               ("descents-c", 1)])
    argv = ["oracle", "--which", which, "--n", _size(rng, range(1, 6), guard)]
    if rng.random() < 0.5:
        argv += ["--k", rng.choice(["0", "1", "3", "40", "-1", "k"])]
    return argv


def _verify(rng):
    argv = ["verify", "--target", _name(rng, TARGET_NAMES + ("all",))]
    if rng.random() < 0.9:
        argv += ["--n-max", _size(rng, range(1, 4))]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(["text", "json", "yaml"])]
    return argv


def _classical(rng):
    return ["classical", "--which", _name(rng, "PQLNTU"), "--n", _size(rng, [1, 2, 5, 30])]


COMMANDS = (_derive, _gamma, _table, _oracle, _verify, _classical)


def _broken(rng, argv):
    """The argv as generated, or with a flag dropped, repeated or unknown."""
    kind = rng.randrange(8)
    if kind == 0 and len(argv) > 2:
        i = rng.randrange(1, len(argv) - 1, 2)
        return argv[:i] + argv[i + 2:]
    if kind == 1:
        return argv + [rng.choice(["--bogus", "-n", "3"])]
    if kind == 2:
        return argv[:1] + argv[1:3] + argv[1:]
    return argv


def _run(capsys, argv):
    try:
        code, source = main(argv), "handler"
    except SystemExit as exc:
        code, source = exc.code, "argparse"
    captured = capsys.readouterr()
    return code, source, captured.out, captured.err


def test_every_subcommand_keeps_the_exit_code_contract(capsys):
    rng = random.Random(1717)
    seen = {}
    for _ in range(360):
        argv = _broken(rng, rng.choice(COMMANDS)(rng))
        code, source, out, err = _run(capsys, argv)
        seen[argv[0], source, code] = seen.get((argv[0], source, code), 0) + 1
        assert code in (0, 1, 2), (argv, code, err)
        assert code != 1 or argv[0] == "verify", (argv, err)
        if code == 2 and source == "handler":
            assert out == "", (argv, out)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        elif code == 2:
            assert "error:" in err, (argv, err)
        else:
            assert err == "", (argv, err)
    # Every subcommand reached its handler with both outcomes, and argparse
    # refused some of each.
    for command in ("derive", "gamma", "table", "oracle", "verify", "classical"):
        for source, code in (("handler", 0), ("handler", 2), ("argparse", 2)):
            assert seen.get((command, source, code)), (command, source, code, seen)
