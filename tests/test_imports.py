"""The package loads lazily and each subcommand imports only what it runs.

pytest has imported every module by the time these tests run, so a handler
that lacks one of its imports would still pass in process.  The subcommand
checks therefore run ``python -m polygram`` in a fresh interpreter and read
the modules it loaded from its ``-v`` import log.
"""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polygram
from polygram import cli, gamma, verify

SRC = str(Path(polygram.__file__).resolve().parents[1])


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def loaded_polygram_modules(verbose_log):
    # ``python -v`` logs "import 'NAME' # loader" for every module it loads,
    # whichever route (import statement or importlib) asked for it.
    names = set()
    for line in verbose_log.splitlines():
        if line.startswith("import '"):
            name = line.split("'")[1]
            if name == "polygram" or name.startswith("polygram."):
                names.add(name)
    return names


def test_every_exported_name_is_its_submodule_object():
    for name in polygram.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"polygram.{polygram._SOURCES[name]}")
        obj = getattr(polygram, name)
        assert obj is getattr(module, name), name
        if hasattr(obj, "__module__"):  # classes and functions, not the dicts
            assert obj.__module__ == module.__name__, name
    assert set(polygram._SOURCES) == set(polygram.__all__) - {"__version__"}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from polygram import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(polygram.__all__)
    assert namespace["__version__"] == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polygram.no_such_name
    assert not hasattr(polygram, "no_such_name")


def test_bare_package_import_loads_no_submodule():
    proc = fresh_python("-c", "import sys, polygram; "
                              "print(sorted(m for m in sys.modules if m.startswith('polygram.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def parser_choices(command, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))


def test_cli_name_tuples_match_the_registries():
    assert parser_choices("verify", "target") == sorted(verify.TARGETS) + ["all"]
    assert parser_choices("gamma", "family") == sorted(gamma.FAMILIES)


# What a ring target (prop12, cor33, thm42) loads besides verify: the grammar
# code for its iterates and the ring code for its checks.
RING_MODULES = ("classical", "grammar", "parser", "poly", "quadratic", "report", "triangles",
                "unipoly")

# Subcommand case -> (argv, the polygram submodules it may load besides cli).
# None leaves the set open: verify --target all runs every module.  A single
# verify target loads only the modules that target runs.
SUBCOMMANDS = {
    "derive": (("derive", "--grammar", "u->u*v; v->u+v", "--start", "u", "--n", "5"),
               {"grammar", "parser", "poly", "report"}),
    "derive-config": (("derive", "--grammar", "@euler", "--config", "{config}", "--start", "u",
                       "--n", "5", "--format", "json"),
                      {"grammar", "parser", "poly", "report"}),
    "gamma": (("gamma", "--family", "assoc-b", "--n", "8"), {"gamma", "triangles"}),
    "table-text": (("table", "--name", "A055151", "--rows", "6"), {"triangles"}),
    "table-json": (("table", "--name", "A055151", "--rows", "6", "--format", "json"),
                   {"triangles"}),
    "table-bfile": (("table", "--name", "A055151", "--rows", "6", "--format", "bfile"),
                    {"triangles"}),
    "oracle": (("oracle", "--which", "left-h", "--n", "6"), {"oracles"}),
    "classical": (("classical", "--which", "N", "--n", "10"),
                  {"classical", "poly", "triangles", "unipoly"}),
    "verify": (("verify", "--target", "thm43"),
               {"verify", "grammar", "parser", "poly", "report", "triangles"}),
    "verify-thm21": (("verify", "--target", "thm21"), {"verify", "gamma", "report", "triangles"}),
    "verify-thm31": (("verify", "--target", "thm31"),
                     {"verify", "classical", "poly", "report", "triangles", "unipoly"}),
    "verify-thm32": (("verify", "--target", "thm32"),
                     {"verify", "grammar", "parser", "poly", "report", "triangles"}),
    "verify-prop12": (("verify", "--target", "prop12"), {"verify", *RING_MODULES}),
    "verify-cor33": (("verify", "--target", "cor33"), {"verify", *RING_MODULES}),
    "verify-thm42": (("verify", "--target", "thm42"), {"verify", *RING_MODULES}),
    "verify-egf": (("verify", "--target", "egf"),
                   {"verify", "classical", "poly", "report", "triangles", "unipoly"}),
    "verify-alternating": (("verify", "--target", "alternating"),
                           {"verify", "classical", "oracles", "poly", "report", "triangles",
                            "unipoly"}),
    "verify-all": (("verify", "--target", "all", "--n-max", "2"), None),
}


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_subcommand_in_a_fresh_process(argv, modules, tmp_path, capsys):
    config = tmp_path / "grammars.ini"
    config.write_text("[euler]\nrules = u -> u*v; v -> u+v\n", encoding="utf-8")
    argv = [a.format(config=config) for a in argv]
    code = cli.main(argv)
    out = capsys.readouterr().out

    proc = fresh_python("-v", "-m", "polygram", *argv)
    assert (proc.stdout, proc.returncode) == (out, code)
    assert out

    loaded = loaded_polygram_modules(proc.stderr)
    if modules is None:
        assert {"polygram", "polygram.cli", "polygram.verify"} <= loaded
    else:
        assert loaded == {"polygram", "polygram.cli"} | {f"polygram.{m}" for m in modules}
    if "verify" not in argv:
        # Only verify.Target is a dataclass; importing dataclasses pulls in
        # inspect, ast, dis and tokenize, which dominates a short job's start-up.
        assert "import 'dataclasses'" not in proc.stderr
    if ("--format", "json") not in zip(argv, argv[1:]):
        # Only JSON output needs the json package.
        assert "import 'json'" not in proc.stderr
