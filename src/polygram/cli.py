"""Command line interface.

Subcommands: derive, gamma, table, oracle, verify, classical.  Exit codes:
0 success, 1 verification failure, 2 usage or parse errors, 3 an internal
error (any other exception, reported as one ``internal error:`` line);
output that cannot be written (a closed pipe, a full disk) exits 2 too.
Output for a fixed invocation is byte-identical across runs.

Each handler imports the modules it runs, so a subcommand loads only what
it needs; building the parser loads none of them.

Output is written one report, one triangle row or one value at a time, each
with one ``sys.stdout.write`` (``_write``): with stdout unbuffered, as under
PYTHONUNBUFFERED, every write is a system call, and a ``print`` is two.  No
whole table is ever joined, so memory stays at one row.  A process that
runs through ``entry`` freezes the garbage collector before it exits (see
there); ``main`` called in process leaves the collector as it is.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

__all__ = ["build_parser", "entry", "main"]

# The keys of verify.TARGETS and gamma.FAMILIES, sorted, spelled out here so
# that --help and usage errors need neither module.  tests/test_imports.py
# keeps them in step.
TARGET_NAMES = ("alternating", "cor33", "egf", "prop12", "prop41", "thm11", "thm21",
                "thm22", "thm31", "thm32", "thm42", "thm43", "thm44")
FAMILY_NAMES = ("assoc-a", "assoc-b", "coxeter-a", "coxeter-b")


class _Parser(argparse.ArgumentParser):
    """argparse's own help write drops an OSError; this one raises it, so a
    --help that cannot be written exits 2 like any other lost output.
    Subparsers are built from the same class."""

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polygram",
        description="Exact grammar-derivative calculus with gamma-vector, "
                    "triangle, oracle and verification commands.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="iterate a derivative operator over a grammar")
    p.add_argument("--grammar", required=True,
                   help="rule text like 'u -> u*v; v -> 4*u^2', or @NAME with --config")
    p.add_argument("--start", required=True, help="starting polynomial expression")
    p.add_argument("--op", default="D", help="D (default), preD:<letter> or postD:<letter>")
    p.add_argument("--n", type=int, required=True, help="number of applications")
    p.add_argument("--config", help="INI file of named grammars (key 'rules' per section)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gamma", help="h-row and gamma-row of a complex family")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("table", help="rows of a named integer triangle")
    p.add_argument("--name", required=True, help="triangle name or OEIS id alias")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "bfile"), default="text")

    p = sub.add_parser("oracle", help="run a brute-force enumerator")
    p.add_argument("--which", required=True,
                   choices=("descents-a", "descents-b", "alternating-a",
                            "alternating-b", "motzkin-up", "left-h"))
    p.add_argument("--n", type=int, required=True, help="size (or path length)")
    p.add_argument("--k", type=int, default=None,
                   help="single histogram entry instead of the whole row")

    p = sub.add_parser("verify", help="run a named verification target")
    p.add_argument("--target", required=True, choices=TARGET_NAMES + ("all",))
    p.add_argument("--n-max", type=int, default=None,
                   help="sweep bound (default: per-target budget)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classical", help="print a classical polynomial family member")
    p.add_argument("--which", required=True, choices=("P", "Q", "L", "N", "T", "U"),
                   help="P/Q tangent and secant derivative polynomials, "
                        "L/N Legendre- and Narayana-type, T/U Chebyshev")
    p.add_argument("--n", type=int, required=True)
    return parser


def _dump_json(payload) -> None:
    import json

    _write(json.dumps(payload, separators=(",", ":")))


def _write(*lines: str) -> None:
    """Write ``lines``, each ended by a newline, with one sys.stdout.write.

    Callers pass one report, one triangle row or one value at a time.
    """
    sys.stdout.write("\n".join(lines) + "\n")


def _load_grammar_text(args) -> str:
    text = args.grammar
    if not text.startswith("@"):
        return text
    if not args.config:
        raise ValueError(f"grammar reference {text!r} needs --config")
    import configparser

    cfg = configparser.ConfigParser()
    section = text[1:]
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg.read_file(fh)
        if section not in cfg or "rules" not in cfg[section]:
            raise ValueError(f"config has no grammar named {section!r}")
        return cfg[section]["rules"]
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc


def _cmd_derive(args) -> int:
    from .grammar import DerivOp, iterate_operator
    from .parser import parse_grammar, parse_poly

    grammar = parse_grammar(_load_grammar_text(args))
    start = parse_poly(args.start, grammar.letters)
    op = DerivOp.parse(args.op)
    result = iterate_operator(grammar, op, start, args.n)
    if args.format == "json":
        _dump_json(result.to_json_dict())
    else:
        sys.stdout.write(result._text("\n"))  # one write, the text built once with its line end
    return 0


def _cmd_gamma(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    from .gamma import FAMILIES, h_to_gamma

    h_triangle, triangle = FAMILIES[args.family]
    h = h_triangle.row(args.n)
    gamma = h_to_gamma(h)
    expected = triangle.row(args.n)
    if list(gamma) != expected:
        _complain(f"error: extracted gamma {','.join(map(str, gamma))} does not match "
                  f"the {triangle.name} row {expected}")
        return 1
    if args.format == "json":
        _dump_json({
            "family": args.family,
            "n": args.n,
            "h": [str(c) for c in h],
            "gamma": [str(g) for g in gamma],
        })
    else:
        _write(f"h: {','.join(map(str, h))}", f"gamma: {','.join(map(str, gamma))}")
    return 0


def _cmd_table(args) -> int:
    if args.rows < 1:
        raise ValueError(f"--rows must be >= 1, got {args.rows}")
    from .triangles import bfile_rows, lookup_triangle, triangle_json_text

    triangle = lookup_triangle(args.name)
    if args.format == "bfile":
        for lines in bfile_rows(triangle, args.rows):
            _write(*lines)
    elif args.format == "json":
        sys.stdout.writelines(triangle_json_text(triangle, args.rows))
        print()
    else:
        for row in triangle.first_rows(args.rows):
            _write(" ".join(map(str, row)))
    return 0


def _cmd_oracle(args) -> int:
    from . import oracles

    which = args.which
    if args.k is not None:
        if which.startswith("alternating"):
            raise ValueError(f"--k does not apply to {which}, which prints one count")
        if args.k < 0:
            raise ValueError(f"--k must be >= 0, got {args.k}")
    if which.startswith("alternating"):
        _write(str(oracles.count_alternating(args.n, which[-1].upper())))
        return 0
    values = {
        "descents-a": oracles.descent_distribution,
        "descents-b": oracles.descent_b_distribution,
        "motzkin-up": oracles.motzkin_up_histogram,
        "left-h": oracles.left_factor_h_histogram,
    }[which](args.n)
    if args.k is not None:
        _write(str(values[args.k] if args.k < len(values) else 0))
    else:
        _write(" ".join(map(str, values)))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all, run_target

    if args.target == "all":
        reports = run_all(args.n_max)
        ok = all(r.ok for r in reports)
        if args.format == "json":
            _dump_json({"target": "all", "ok": ok,
                        "targets": [r.to_json_dict() for r in reports]})
        else:
            for report in reports:
                _write(*report.lines())
            _write(f"all: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    report = run_target(args.target, args.n_max)
    if args.format == "json":
        _dump_json(report.to_json_dict())
    else:
        _write(*report.lines())
    return 0 if report.ok else 1


def _cmd_classical(args) -> int:
    from . import classical

    family = {
        "P": classical.tangent_derivative_poly,
        "Q": classical.secant_derivative_poly,
        "L": classical.legendre_like,
        "N": classical.narayana_like,
        "T": classical.chebyshev_t,
        "U": classical.chebyshev_u,
    }[args.which]
    _write(str(family(args.n)))
    return 0


_HANDLERS = {
    "derive": _cmd_derive,
    "gamma": _cmd_gamma,
    "table": _cmd_table,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "classical": _cmd_classical,
}


def _complain(*parts) -> None:
    """Print one line on stderr; a closed or full stderr loses it without raising."""
    try:
        print(*parts, file=sys.stderr, flush=True)
    except OSError:
        pass


def main(argv=None) -> int:
    # Exact results and rule literals can pass CPython's 4300-digit limit on
    # int <-> str (3.10.7 on).  Lift it while the handler runs and restore it
    # after, as main is also called in process.  Arguments are parsed under
    # the limit, so a 5000-digit --rows or --n is a usage error.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = build_parser().parse_args(argv)  # OSError: --help not written
        if limit is not None:
            sys.set_int_max_str_digits(0)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # in the try: a failed buffered write is an error line
        return code
    except (ValueError, OSError) as exc:
        # ParseError and the re-raised configparser errors are ValueErrors;
        # configparser messages can span lines.
        _complain("error:", " ".join(str(exc).splitlines()))
        return 2
    except Exception as exc:
        # Last resort: a crash must not read as a failed check (exit 1).
        _complain(f"internal error: {type(exc).__name__}:", " ".join(str(exc).splitlines()))
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    """Run ``main`` as a process: the console script and ``python -m polygram``.

    A stream whose fd was closed before start-up is None: a None stdout exits 2
    at once, and a None stderr becomes os.devnull (print(file=None) writes to
    stdout).  A stream whose last flush fails keeps its bytes, and the exit
    flush would fail again with code 120, so its fd is pointed at os.devnull;
    the lost output makes a successful run exit 2.

    Once both streams are flushed and the code is known, the collector is
    frozen (``gc.freeze``): the interpreter's final collections then skip
    every object the run made, which saves walking the whole heap at exit,
    a few milliseconds per job.  The exit itself is the interpreter's own.
    """
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:
        _complain("error: stdout is closed")
        raise SystemExit(2)
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            code = code or 2
    gc.freeze()
    raise SystemExit(code)
