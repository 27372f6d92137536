"""What an `adsem` process executes at start-up.

`adsem.variant1` and `adsem.variant2` are registered lazily: both are in
`sys.modules` and on the package from `import adsem`, but a body runs only
on the first attribute access.  Each case runs in a fresh interpreter,
because the test process has long since loaded both.  The probe reads a
module's namespace through `object.__getattribute__`, which loads nothing;
`exec` puts `__builtins__` there when a module body starts to run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adsem
from adsem.cli import main

from .conftest import CORPUS

FAC = str(CORPUS / "fac.ad")
GRADE = str(CORPUS / "grade_thesis.ad")
SRC = str(Path(adsem.__file__).resolve().parents[1])

PROBE = """
import json, sys
def ran(name):
    return "__builtins__" in object.__getattribute__(sys.modules["adsem." + name], "__dict__")
print(json.dumps([ran("variant1"), ran("variant2")]))
"""


def fresh(code: str) -> tuple[bool, bool]:
    """(variant1 ran, variant2 ran) after `code` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code + PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def after_main(*argv: str, exit_code: int = 0) -> tuple[bool, bool]:
    return fresh(f"import adsem.cli\nassert adsem.cli.main({list(argv)!r}) == {exit_code}\n")


def test_importing_the_cli_runs_no_variant():
    assert fresh("import adsem.cli\n") == (False, False)


@pytest.fixture(scope="module")
def token_trace(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("startup") / "grade.jsonl"
    assert main(["simulate", GRADE, "--seed", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv", [
    ["reach", FAC],
    ["validate", FAC],
    ["render", FAC],
    ["simulate", FAC, "--seed", "1"],
], ids=lambda argv: argv[0])
def test_token_game_commands_run_no_variant(argv):
    assert after_main(*argv) == (False, False)


def test_checking_a_token_trace_runs_no_variant(token_trace):
    assert after_main("check-trace", GRADE, token_trace, "--variant", "token") == (False, False)


def test_a_usage_error_runs_no_variant():
    assert after_main("reach", "no-such-file.ad", exit_code=3) == (False, False)


def test_each_variant_command_runs_its_own_variant(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 1, "decisions": {"D1": "passed"}}))
    assert after_main("run-v1", FAC, "n=3") == (True, False)
    assert after_main("run-v2", GRADE, str(scenario)) == (False, True)


@pytest.mark.parametrize("code,ran", [
    ("import adsem.cli\nimport adsem.variant1\nassert callable(adsem.variant1.run_method)\n",
     (True, False)),
    ("from adsem import variant2\nassert callable(variant2.simulate)\n", (False, True)),
    ("import adsem.variant1\nimport adsem.cli\nassert callable(adsem.variant1.run_method)\n",
     (True, False)),
    ("from adsem.variant2 import simulate\nimport adsem.cli\n"
     "assert adsem.cli.variant2.simulate is simulate\n", (False, True)),
], ids=["after-cli", "from-package", "before-cli", "from-module"])
def test_a_variant_module_loads_on_first_use(code, ran):
    assert fresh(code) == ran
