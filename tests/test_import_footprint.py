"""What a dualinv process imports.

Every dualinv command is a process of its own, so what it imports is part
of its cost.  No module of the package imports dataclasses (or inspect,
which dataclasses pulls in), ``import dualinv`` loads no submodule, and each
command loads only the layers it computes with: info needs no dual inverse
and no solver, and the -real kinds of compute no dual layer at all.  A
well-formed command loads none of fractions (with decimal and numbers),
argparse and hashlib (with OpenSSL's _hashlib); argparse comes in only for a
command line that is not well formed.

Each check starts a fresh interpreter, imports the named modules and runs
one command line in process, then reports which modules that added to
``sys.modules``; a module the interpreter had loaded before does not count.
The module does not import pytest, so it also runs as a plain script:

    PYTHONPATH=src python tests/test_import_footprint.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE = FIXTURES / "ddi_absent_4x4.json"

MODULES = (
    "exceptions",
    "matrices",
    "elimination",
    "real_inverses",
    "dual_linear",
    "indices",
    "dual_inverses",
    "block_decomposition",
    "equation_solvers",
    "documents",
    "cli",
)
DUAL_LAYERS = {
    "dualinv.dual_linear",
    "dualinv.block_decomposition",
    "dualinv.indices",
    "dualinv.dual_inverses",
    "dualinv.equation_solvers",
}
# what a well-formed command does without
STARTUP_WEIGHT = {"fractions", "decimal", "numbers", "argparse", "hashlib", "_hashlib"}

# argv: the modules to import, comma-separated, the command's expected exit
# code, then a command line to run
PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1].split(","):
    importlib.import_module(name)
if sys.argv[3:]:
    from dualinv.cli import run
    code, document = run(sys.argv[3:])
    assert code == int(sys.argv[2]), document.to_json()
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _added(modules: list[str], *argv: str, code: int = 0) -> set[str]:
    """The modules that importing ``modules`` and then running the command
    line ``argv``, which must exit with ``code``, add to a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(modules), str(code), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    added = _added(["dualinv.cli"])
    assert "dualinv.cli" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []


def test_no_module_of_the_package_loads_dataclasses_or_inspect():
    added = _added([f"dualinv.{name}" for name in MODULES])
    assert sorted(added & {"dataclasses", "inspect"}) == []


def test_importing_the_package_loads_no_submodule():
    added = _added(["dualinv"])
    assert sorted(m for m in added if m.startswith("dualinv.")) == []


def test_info_loads_no_dual_inverse_or_solver():
    added = _added(["dualinv.cli"], "info", str(FIXTURE))
    assert "dualinv.indices" in added
    assert sorted(added & {"dualinv.dual_inverses", "dualinv.equation_solvers"}) == []


def test_the_real_kinds_of_compute_load_no_dual_layer():
    for kind in ("drazin-real", "mp-real"):
        added = _added(["dualinv.cli"], "compute", "--kind", kind, str(FIXTURE))
        assert "dualinv.real_inverses" in added
        assert sorted(added & DUAL_LAYERS) == [], kind


def test_a_well_formed_command_loads_no_fractions_argparse_or_hashlib():
    a, x = str(FIXTURE), str(FIXTURES / "ddi_present_4x4.json")
    system = str(FIXTURES / "dgi_present_2x2.json"), str(FIXTURES / "rhs_mixed_2x1.json")
    for argv in (
        ["info", a],
        ["compute", "--kind", "wddi", a],
        ["compute", "--kind", "mp-real", a],
        ["verify", "--kind", "wddi-t", a, x],
        ["solve", *system],
        ["solve", "--restricted", *system],
    ):
        added = _added(["dualinv.cli"], *argv)
        assert sorted(added & STARTUP_WEIGHT) == [], argv


def test_a_malformed_command_falls_back_to_argparse():
    added = _added(["dualinv.cli"], "compute", "--kind", "nonsense", str(FIXTURE), code=4)
    assert "argparse" in added


if __name__ == "__main__":
    for name, check in sorted(globals().items()):
        if name.startswith("test_"):
            check()
            print(f"ok {name}")
