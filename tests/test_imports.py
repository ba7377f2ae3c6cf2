"""What importing the package and running each command loads.

``import lemnichor`` loads ``lemnichor.elliptic`` alone, for its one top-level
name ``choreography_context``, and each CLI command imports only the layers it
runs.  Each footprint is taken in a fresh interpreter started with ``-S``,
comparing ``sys.modules`` around the statement: without ``site``, no start-up
hook has loaded a standard module (``typing``, ``dataclasses``, ...)
beforehand, so the checks below see every module the statement itself brings
in.  Which standard modules that is differs between Python versions, so the
exact checks are on the package's own modules, and the heavy standard modules
the package avoids are named.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lemnichor
import lemnichor.elliptic

# Standard modules no import of the package and no stdout run may load.
AVOIDED = {"dataclasses", "platform"}

# The layers every command runs: argument handling, the orbit and its kernel.
CLI_CORE = {"lemnichor", "lemnichor.cli", "lemnichor.dynamics", "lemnichor.elliptic",
            "lemnichor.orbit"}


def added_modules(setup: str, statement: str) -> set[str]:
    """Modules that ``statement`` adds to sys.modules after ``setup``, in a fresh interpreter."""
    code = (
        f"import json, sys\n{setup}\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(lemnichor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    # The last line: a command may have written its own output before it.
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_only_elliptic():
    added = added_modules("", "import lemnichor")
    assert {m for m in added if m.startswith("lemnichor")} == {"lemnichor", "lemnichor.elliptic"}
    assert not added & AVOIDED


def test_choreography_context_loads_only_elliptic():
    # The benchmark's set-up probe: import the package and build the context.
    assert lemnichor.choreography_context is lemnichor.elliptic.choreography_context
    added = added_modules("", "import lemnichor\nlemnichor.choreography_context()")
    assert {m for m in added if m.startswith("lemnichor")} == {"lemnichor", "lemnichor.elliptic"}
    assert not added & AVOIDED


def test_cli_import_loads_no_command_layer():
    added = added_modules("", "import lemnichor.cli")
    assert {m for m in added if m.startswith("lemnichor")} == CLI_CORE
    assert not added & AVOIDED


@pytest.mark.parametrize("argv, layers", [
    pytest.param(argv, layers, id=" ".join(argv)) for argv, layers in (
        (["sample", "--n-samples", "2"], set()),
        (["integrate", "--steps", "2"], set()),
        (["verify", "--n-samples", "2"], {"lemnichor.invariants"}),
        (["geometry", "--n-samples", "2"], {"lemnichor.geometry"}),
        (["geometry", "--from-point", "0.55"], {"lemnichor.geometry"}),
        (["geometry", "--from-c=1.4142135623730951,1"], {"lemnichor.geometry"}),
        (["analytic"], {"lemnichor.analytic", "lemnichor.invariants"}),
    )
])
def test_command_loads_only_what_it_runs(argv, layers):
    added = added_modules("", f"import lemnichor.cli\nlemnichor.cli.main({argv!r})")
    assert {m for m in added if m.startswith("lemnichor")} == CLI_CORE | layers
    # platform is only for the sidecar, which stdout output does not write.
    assert not added & AVOIDED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lemnichor.no_such_name  # noqa: B018
    assert not hasattr(lemnichor, "sn_cn_dn_points")  # public in elliptic, not exported
