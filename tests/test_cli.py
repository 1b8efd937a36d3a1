import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from polygram import classical, cli, verify
from polygram.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_worked_example(capsys):
    code, out, _ = run_cli(capsys, "derive", "--grammar", "u->u*v; v->v",
                           "--start", "u", "--n", "3")
    assert code == 0
    assert out == "u*v + 3*u*v^2 + u*v^3\n"


def test_derive_zero_iterations_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "derive", "--grammar", "u->u*v; v->v",
                           "--start", "u^2 - u", "--n", "0")
    assert code == 0
    assert out == "-u + u^2\n"


def test_derive_double_angle(capsys):
    code, out, _ = run_cli(capsys, "derive", "--grammar", "f->f*g; g->4*f^2",
                           "--start", "f", "--n", "2")
    assert code == 0
    assert out == "f*g^2 + 4*f^3\n"


def test_derive_weighted_operator(capsys):
    code, out, _ = run_cli(capsys, "derive", "--grammar", "y->z^2; z->y*z",
                           "--start", "y", "--op", "preD:y", "--n", "1")
    assert code == 0
    assert out == "2*y*z^2\n"


def test_derive_json(capsys):
    code, out, _ = run_cli(capsys, "derive", "--grammar", "f->f*g; g->4*f^2",
                           "--start", "f", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"letters": ["f", "g"], "terms": [{"coeff": "1", "exps": [1, 1]}]}


def test_derive_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "derive", "--grammar", "u -> w",
                           "--start", "u", "--n", "1")
    assert code == 2
    assert "undeclared letter" in err


def test_derive_bad_operator_exits_2(capsys):
    code, _, err = run_cli(capsys, "derive", "--grammar", "u->u", "--start", "u",
                           "--op", "dx", "--n", "1")
    assert code == 2
    assert "operator" in err


@pytest.mark.parametrize("op", ["preD:q", "postD:q"])
@pytest.mark.parametrize("n", ["0", "3"])
def test_derive_unknown_weight_letter_exits_2_before_any_step(capsys, op, n):
    code, out, err = run_cli(capsys, "derive", "--grammar", "u->u*v; v->u+v",
                             "--start", "u", "--op", op, "--n", n)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: unknown weight letter 'q' for alphabet ('u', 'v')"]


def test_derive_config_file(capsys, tmp_path):
    cfg = tmp_path / "grammars.ini"
    cfg.write_text("[double-angle]\nrules = f -> f*g; g -> 4*f^2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "derive", "--grammar", "@double-angle",
                           "--config", str(cfg), "--start", "f", "--n", "2")
    assert code == 0
    assert out == "f*g^2 + 4*f^3\n"
    code, _, err = run_cli(capsys, "derive", "--grammar", "@missing",
                           "--config", str(cfg), "--start", "f", "--n", "1")
    assert code == 2 and "no grammar named" in err


@pytest.mark.parametrize("text", [
    "rules = f -> f*g; g -> 4*f^2\n",
    "[double-angle]\nrules = f -> f*g\n[double-angle]\nrules = g -> f\n",
], ids=["no-section-header", "duplicate-section"])
def test_derive_malformed_config_exits_2(capsys, tmp_path, text):
    cfg = tmp_path / "grammars.ini"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "derive", "--grammar", "@double-angle",
                             "--config", str(cfg), "--start", "f", "--n", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_gamma_families(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--family", "coxeter-a", "--n", "4")
    assert code == 0 and out == "h: 1,11,11,1\ngamma: 1,8\n"
    code, out, _ = run_cli(capsys, "gamma", "--family", "coxeter-b", "--n", "2")
    assert code == 0 and out == "h: 1,6,1\ngamma: 1,4\n"
    code, out, _ = run_cli(capsys, "gamma", "--family", "assoc-b", "--n", "4")
    assert code == 0 and out == "h: 1,16,36,16,1\ngamma: 1,12,6\n"


def test_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--family", "assoc-a", "--n", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"family": "assoc-a", "n": 3,
                    "h": ["1", "3", "1"], "gamma": ["1", "1"]}


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gamma_refuses_n_below_one(capsys, n):
    code, out, err = run_cli(capsys, "gamma", "--family", "assoc-b", "--n", n)
    assert (code, out, err) == (2, "", f"error: n must be >= 1, got {n}\n")


# sha256 of ``gamma --family F --n 300`` for each family, as in perfbench/pins.json.
GAMMA_300_SHA256 = {
    "coxeter-a": "d567f576d55a08c146e3bd254ec24d518765cfcd7d5df86047fa41ce4721c6cd",
    "coxeter-b": "e86a3854cb8cd6d6563e35bada48636bda8d28af2b0192b23680b5f22d309e63",
    "assoc-a": "d67ee51d9eb606b8d0cd2bd84d487aa7e60701db0e60bc9373dc317cc7010c2d",
    "assoc-b": "047e18ddc5278e68be6d98a8d94c7777bc180df994ea6e0bc5ab1f33518b5c32",
}


@pytest.mark.parametrize("family", sorted(GAMMA_300_SHA256))
def test_gamma_at_n_300_is_pinned(capsys, family):
    code, out, err = run_cli(capsys, "gamma", "--family", family, "--n", "300")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_300_SHA256[family]


def test_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "gamma-b", "--rows", "4")
    assert code == 0
    assert out == "1\n1 4\n1 20\n1 72 80\n"
    code, out, _ = run_cli(capsys, "table", "--name", "motzkin-T", "--rows", "2")
    assert code == 0
    assert out == "1\n1 1\n"
    code, out, _ = run_cli(capsys, "table", "--name", "gamma-a", "--rows", "1")
    assert code == 0
    assert out == "1\n"


def test_table_oeis_alias(capsys):
    _, direct, _ = run_cli(capsys, "table", "--name", "gamma-a", "--rows", "3")
    _, alias, _ = run_cli(capsys, "table", "--name", "A101280", "--rows", "3")
    assert direct == alias


def test_table_bfile(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "gamma-b", "--rows", "2",
                           "--format", "bfile")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("#") and "offset 1" in lines[0]
    assert lines[1:] == ["1 1", "2 1", "3 4"]


def test_table_rows_from_zero_keep_the_oeis_offset(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "A038207", "--rows", "2",
                           "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["# cube-f read by rows (rows 0..1), offset 0",
                                "0 1", "1 2", "2 1"]
    code, out, _ = run_cli(capsys, "table", "--name", "A107230", "--rows", "3",
                           "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["offset"] == 0
    assert data["rows"] == [["1"], ["1", "1"], ["2", "2", "1"]]


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--name", "eulerian-a", "--rows", "3",
                           "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["offset"] == 1
    assert data["rows"] == [["1"], ["1", "1"], ["1", "4", "1"]]


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "classical", crash)
    code, out, err = run_cli(capsys, "classical", "--which", "T", "--n", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


def test_a_refused_series_inversion_is_an_internal_error(capsys, monkeypatch):
    # Every t^0 term is built in classical, so a bad one is a broken invariant.
    real = classical._series_invert
    monkeypatch.setattr(classical, "_series_invert", lambda a: real([[2]] + a[1:]))
    code, out, err = run_cli(capsys, "verify", "--target", "egf")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ArithmeticError: series inversion needs")


def test_derive_past_the_4300_digit_limit_exits_0(capsys):
    # CPython refuses int <-> str past 4300 digits; main lifts that limit
    # for the handler only and puts the caller's value back
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "derive", "--grammar", "u->3*u", "--start", "u",
                                 "--n", "9100")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0 and err == ""
    coeff, star, rest = out.partition("*")
    assert (star, rest) == ("*", "u\n")
    assert len(coeff) == 4342 and coeff.isdigit()
    assert int(coeff[-30:]) == pow(3, 9100, 10 ** 30)


@pytest.mark.parametrize("argv", [
    ["table", "--name", "cube-f", "--rows"],
    ["derive", "--grammar", "u->u", "--start", "u", "--n"],
], ids=["table-rows", "derive-n"])
def test_a_5000_digit_size_is_refused_by_argparse(capsys, monkeypatch, argv):
    # main parses before it lifts the limit: a 5000-digit size must stay a
    # usage error, not a job that never ends.  A handler that is reached
    # returns at once, so a parse past the limit fails here without running.
    monkeypatch.setitem(cli._HANDLERS, argv[0], lambda args: 0)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["9" * 5000])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_rule_literal_past_the_4300_digit_limit_parses(capsys):
    big = "7" * 5000
    code, out, _ = run_cli(capsys, "derive", "--grammar", f"u -> {big}*u", "--start", "u",
                           "--n", "1")
    assert code == 0
    assert out == f"{big}*u\n"


# How each double-angle target words a check that the mixed rules break.
MIXED_PARITY_FAILURE = {
    "prop12": ": FAIL (got ",
    "cor33": ": FAIL (term f*g lies below the common power f^2)",
    "thm32": "does not fit the expected monomial family",
}


@pytest.mark.parametrize("target", ["prop12", "cor33", "thm32"])
def test_mixed_parity_rules_fail_the_check(capsys, monkeypatch, target):
    # f -> f*g + g mixes odd and even powers of f in every iterate: a
    # falsified identity (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(verify, "_DOUBLE_ANGLE_RULES", "f -> f*g + g; g -> 4*f^2")
    code, out, err = run_cli(capsys, "verify", "--target", target, "--n-max", "3")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-1] == f"{target}: FAIL"
    assert any(MIXED_PARITY_FAILURE[target] in line for line in lines[:-1])


def test_a_term_below_the_common_root_power_fails_the_check(capsys, monkeypatch):
    # u -> u^2*v + v puts terms below s^(n+1) into D^n(uv): a failed check
    # (exit 1), not an exit 3 from a negative power of s refused by collect_line
    monkeypatch.setattr(verify, "_CUBIC_RULES", "u -> u^2*v + v; v -> u^3")
    code, out, err = run_cli(capsys, "verify", "--target", "thm42", "--n-max", "2")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "thm42: FAIL"
    assert "thm42: uv-specialized n=1: FAIL (term v^2 lies below the common power u^2)" in lines
    assert "thm42: u^2-specialized n=2: FAIL (term 2*v^2 lies below the common power u^4)" in lines


def test_a_refused_line_read_is_an_internal_error(capsys, monkeypatch):
    # _specialize divides out only the powers its terms carry and passes its
    # own scale, so a refusal from collect_line is a broken invariant.
    from polygram import quadratic

    real = quadratic.collect_line
    monkeypatch.setattr(quadratic, "collect_line",
                        lambda modulus, coeffs, e, top, scale=1: real(modulus, coeffs, e, top, 3))
    code, out, err = run_cli(capsys, "verify", "--target", "prop12", "--n-max", "2")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ArithmeticError: collect_line got")
    assert len(err.splitlines()) == 1


def test_a_tangent_polynomial_of_too_high_degree_fails_thm31(capsys, monkeypatch):
    # One extra top coefficient puts P_5 at degree 7, above s^6: a failed
    # check (exit 1), not a refusal from a negative power of s
    real = classical.tangent_derivative_poly

    def padded(n, *args):
        p = real(n, *args)
        return p if n != 5 else type(p)(p.var, p.coeffs + (1,))

    monkeypatch.setattr(classical, "tangent_derivative_poly", padded)
    code, out, err = run_cli(capsys, "verify", "--target", "thm31", "--n-max", "6")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "thm31: FAIL"
    assert [line for line in lines if "FAIL (" in line] == [
        "thm31: gamma-a-gf n=5: FAIL (degree 7 is above 6)"]


def test_table_unknown_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "--name", "bogus", "--rows", "2")
    assert code == 2 and "unknown triangle" in err


def test_oracle_commands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--which", "descents-a", "--n", "4")
    assert code == 0 and out == "1 11 11 1\n"
    code, out, _ = run_cli(capsys, "oracle", "--which", "descents-b", "--n", "2")
    assert code == 0 and out == "1 6 1\n"
    code, out, _ = run_cli(capsys, "oracle", "--which", "alternating-a", "--n", "4")
    assert code == 0 and out == "5\n"
    code, out, _ = run_cli(capsys, "oracle", "--which", "motzkin-up", "--n", "2",
                           "--k", "1")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "oracle", "--which", "left-h", "--n", "1")
    assert code == 0 and out == "1 1\n"
    code, _, err = run_cli(capsys, "oracle", "--which", "descents-a", "--n", "10")
    assert code == 2 and "supports" in err


@pytest.mark.parametrize("which, k, message", [
    ("alternating-a", "3", "--k does not apply to alternating-a"),
    ("alternating-b", "0", "--k does not apply to alternating-b"),
    ("motzkin-up", "-1", "--k must be >= 0, got -1"),
    ("descents-a", "-3", "--k must be >= 0, got -3"),
])
def test_oracle_refuses_a_k_it_cannot_honour(capsys, which, k, message):
    # alternating-a --n 5 --k 3 used to print 16; motzkin-up --k -1 printed 0
    code, out, err = run_cli(capsys, "oracle", "--which", which, "--n", "5", "--k", k)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_oracle_k_past_the_row_is_a_zero_entry(capsys):
    # descents-a --n 4 is 1 11 11 1
    for k, want in (("0", "1\n"), ("3", "1\n"), ("4", "0\n"), ("99", "0\n")):
        code, out, _ = run_cli(capsys, "oracle", "--which", "descents-a", "--n", "4", "--k", k)
        assert code == 0 and out == want


def test_classical_output(capsys):
    code, out, _ = run_cli(capsys, "classical", "--which", "P", "--n", "1")
    assert code == 0 and out == "1 + u^2\n"
    code, out, _ = run_cli(capsys, "classical", "--which", "Q", "--n", "1")
    assert code == 0 and out == "u\n"
    code, out, _ = run_cli(capsys, "classical", "--which", "T", "--n", "2")
    assert code == 0 and out == "-1 + 2*x^2\n"
    code, out, _ = run_cli(capsys, "classical", "--which", "L", "--n", "1")
    assert code == 0 and out == "2*x\n"


def test_classical_beyond_the_recursion_limit_exits_0():
    cmd = [sys.executable, "-m", "polygram", "classical", "--which", "T", "--n", "600"]
    done = subprocess.run(cmd, capture_output=True)
    assert done.returncode == 0
    assert done.stderr == b""
    assert done.stdout.startswith(b"1 - 180000*x^2 + ")
    assert done.stdout.endswith(f" + {2 ** 599}*x^600\n".encode())


def test_gamma_beyond_the_recursion_limit_exits_0():
    cmd = [sys.executable, "-m", "polygram", "gamma", "--family", "coxeter-b", "--n", "600"]
    done = subprocess.run(cmd, capture_output=True)
    assert done.returncode == 0
    assert done.stderr == b""
    assert done.stdout.startswith(b"h: 1,")
    assert done.stdout.count(b"\n") == 2


def test_derive_too_deeply_nested_exits_2():
    start = "(" * 1000 + "u" + ")" * 1000
    cmd = [sys.executable, "-m", "polygram", "derive", "--grammar", "u -> u",
           "--start", start, "--n", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "limit of 100" in lines[0]
    assert "Traceback" not in done.stderr


def test_verify_target_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "thm44", "--n-max", "1")
    assert code == 0
    assert out.endswith("thm44: PASS\n")


def test_verify_target_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "prop41", "--n-max", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "prop41" and data["ok"] is True
    assert len(data["checks"]) == 3


def test_verify_all_json_structure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "all", "--n-max", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [t["target"] for t in data["targets"]] == sorted(
        ["thm11", "prop12", "thm21", "thm22", "thm31", "thm32", "cor33",
         "prop41", "thm42", "thm43", "thm44", "egf", "alternating"])


@pytest.mark.parametrize("target", ["thm32", "alternating", "all"])
def test_verify_zero_bound_is_refused(capsys, target):
    code, out, err = run_cli(capsys, "verify", "--target", target, "--n-max", "0")
    assert code == 2
    assert out == ""
    assert err == "error: n_max must be >= 1, got 0\n"


def test_verify_unknown_target_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--target", "thm99"])
    assert err.value.code == 2


def test_cli_byte_determinism_subprocess():
    cmd = [sys.executable, "-m", "polygram", "verify", "--target", "thm21",
           "--n-max", "6", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


# sha256 of the stdout of ``verify --target all`` in each format.
VERIFY_ALL_SHA256 = {
    "text": "a0d58c54c7c43fad9df175ddb95379cd273ef128a65b09b8045e306c882e6156",
    "json": "92047c09f6f297be05e526629ec9ed9ad35e3a560c67bfd6aed7896140748993",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(fmt):
    """verify --target all prints exactly the pinned bytes.

    Speed-ups and refactors must leave this output byte-identical.  A
    deliberate change to the output must re-pin both digests here and say
    so in CHANGES.md.
    """
    cmd = [sys.executable, "-m", "polygram", "verify", "--target", "all", "--format", fmt]
    done = subprocess.run(cmd, capture_output=True)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_ALL_SHA256[fmt]


# sha256 of ``verify --target egf --n-max 120 --format json``, the bound the
# CI stress step runs the series route at.
VERIFY_EGF_120_SHA256 = "db14042ef9c0edb3707abe33ba496019de7d766bc8c8684c3bba526e98643bc7"


def test_verify_egf_at_the_stress_bound_is_pinned():
    cmd = [sys.executable, "-m", "polygram", "verify", "--target", "egf", "--n-max", "120",
           "--format", "json"]
    done = subprocess.run(cmd, capture_output=True)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == VERIFY_EGF_120_SHA256


# sha256 of the stdout of commands that run the parity-deflated products and
# the even-modulus rings (x^2 - 1, 1 + h^2 and -1) past the default bounds.
RING_PATH_SHA256 = {
    "verify --target thm42 --n-max 40":
        "0c709bcde6dd158d8e37488e48f0cae903df6eafd947ce8ec64ee0bad09ab716",
    "verify --target cor33 --n-max 30":
        "2db82c4baaf5cf4ecce916f55f4117065531f8d6fbf55395531d766bbf49bba3",
    "verify --target prop12 --n-max 40":
        "8a78e8fb15f11778527971883da3026f9f50bf6be23170ea7a4d4203973755bd",
    "classical --which P --n 120":
        "81fefbaadef002fd484f1eb68e5c40cb2cf44261798812e2c14658cae9ee888c",
}


@pytest.mark.parametrize("command", sorted(RING_PATH_SHA256))
def test_ring_path_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RING_PATH_SHA256[command]


# Output that cannot be written: each case is run with stdout buffered (the
# interpreter default) and unbuffered, and must exit 2, never 1 (a failed
# check) or 120 (the interpreter's own flush failing at exit).  {pipe} is the
# write end of a pipe whose read end is closed before the command starts, so
# every write to it fails; >&- closes the fd before start-up.
CLOSED_OUTPUT_CASES = {
    "stdout-full": ">/dev/full",
    "stdout-closed-pipe": ">&{pipe}",
    "stdout-closed": ">&-",
    "both-closed-pipe": ">&{pipe} 2>&1",
    "both-closed": ">&- 2>&-",
    "stdout-full-stderr-closed": ">/dev/full 2>&-",
}


POLYGRAM = f"{shlex.quote(sys.executable)} -m polygram"


def _shell(script, unbuffered):
    """Run ``script`` in bash with PYTHONUNBUFFERED set to 1 or unset.

    ``{pipe}`` in the script names a pipe with no reader.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(["bash", "-c", script.replace("{pipe}", str(write))], env=env,
                              capture_output=True, pass_fds=(write,))
    finally:
        os.close(write)


UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@UNBUFFERED
@pytest.mark.parametrize("case", sorted(CLOSED_OUTPUT_CASES))
@pytest.mark.parametrize("argv", ["verify --target thm42 --n-max 1", "verify --target egf",
                                  "--help", "verify --help",
                                  "table --name eulerian-b --rows 40 --format bfile"])
def test_unwritable_output_exits_2(case, unbuffered, argv):
    redirect = CLOSED_OUTPUT_CASES[case]
    done = _shell(f"{POLYGRAM} {argv} {redirect}", unbuffered)
    assert done.returncode == 2, done.stderr
    if "2>" not in redirect:
        assert done.stderr.startswith(b"error: ")
        assert done.stderr.count(b"\n") == 1


@UNBUFFERED
def test_a_closed_stderr_loses_only_the_error_line(unbuffered):
    argv = "verify --target thm42 --n-max 1"
    done = _shell(f"{POLYGRAM} {argv} 2>&-", unbuffered)
    assert done.returncode == 0
    assert done.stdout == _shell(f"{POLYGRAM} {argv}", unbuffered).stdout != b""
    refused = _shell(f"{POLYGRAM} verify --target thm42 --n-max 0 2>&-", unbuffered)
    assert (refused.returncode, refused.stdout) == (2, b"")


@UNBUFFERED
def test_a_usage_error_on_a_full_stderr_exits_2(unbuffered):
    # argparse exits 2 itself and drops the failed write; the usage text
    # left in stderr's buffer must not fail again at exit.
    assert _shell(f"{POLYGRAM} verify --target thm99 2>/dev/full", unbuffered).returncode == 2


def test_a_broken_pipe_in_process_returns_2(capsys, monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    code = main(["verify", "--target", "thm42", "--n-max", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class CountingStdout:
    """A stdout that keeps each write as one item."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


# argv -> the number of sys.stdout.write calls its text output makes.
WRITE_COUNTS = {
    # the header, then one write per row
    "table --name eulerian-b --rows 40 --format bfile": 1 + 40,
    "table --name gamma-a --rows 25": 25,
    "verify --target thm32 --n-max 20": 1,
    # one per report, then the all: line
    "verify --target all": len(verify.TARGETS) + 1,
    # one value or one JSON document
    "classical --which T --n 20": 1,
    "oracle --which motzkin-up --n 8": 1,
    "derive --grammar u->u*v;v->u+v --start u --n 5": 1,
    "gamma --family coxeter-b --n 6 --format json": 1,
    "verify --target thm32 --n-max 3 --format json": 1,
}


@pytest.mark.parametrize("argv", sorted(WRITE_COUNTS))
def test_text_output_is_one_write_per_row_or_report(monkeypatch, argv):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == 0
    assert len(stdout.writes) == WRITE_COUNTS[argv]
    assert all(text.endswith("\n") for text in stdout.writes)
    if "bfile" in argv:
        assert stdout.writes[0].startswith("# eulerian-b") and stdout.writes[0].count("\n") == 1
        # row n of eulerian-b has n + 1 entries, one line each
        assert [text.count("\n") for text in stdout.writes[1:]] == list(range(2, 42))


@pytest.mark.parametrize("argv", sorted(WRITE_COUNTS))
def test_stdout_bytes_do_not_depend_on_buffering(argv):
    command = f"{POLYGRAM} {shlex.join(argv.split())}"
    buffered = _shell(command, unbuffered=False)
    unbuffered = _shell(command, unbuffered=True)
    assert buffered.returncode == unbuffered.returncode == 0
    assert buffered.stdout == unbuffered.stdout != b""


def test_only_entry_freezes_the_collector(capsys):
    frozen = gc.get_freeze_count()
    assert main(["verify", "--target", "thm42", "--n-max", "1"]) == 0
    assert gc.get_freeze_count() == frozen
    # entry freezes the heap just before its SystemExit.
    script = ("import gc, sys\n"
              "from polygram import cli\n"
              "sys.argv = ['polygram', 'verify', '--target', 'thm42', '--n-max', '1']\n"
              "try:\n    cli.entry()\n"
              "except SystemExit as exc:\n"
              "    sys.stderr.write(f'{exc.code} {gc.get_freeze_count() > 0}')\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.stderr == "0 True"
