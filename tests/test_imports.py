"""What importing the package and running the CLI load.

The package resolves its public names on first use, and the CLI imports
what each subcommand runs when it runs.  The footprint tests start a
fresh interpreter with -X importtime, which lists every module it
imports, and compare with a bare interpreter's start-up, so modules that
the site configuration loads anyway do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import frobenius

SRC = str(Path(frobenius.__file__).resolve().parents[1])


def _imported(*args: str) -> tuple[set[str], str]:
    """Modules a fresh interpreter imports for args, and its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return names - {"imported package"}, proc.stdout


def _loaded_beyond_start_up(*args: str) -> tuple[set[str], str]:
    names, out = _imported(*args)
    return names - _imported("-c", "pass")[0], out


def test_importing_the_cli_loads_only_it_and_the_errors():
    names, _ = _loaded_beyond_start_up("-c", "import frobenius.cli")
    assert {n for n in names if n.startswith("frobenius")} == {
        "frobenius", "frobenius.cli", "frobenius.errors"}
    assert "dataclasses" not in names and "fractions" not in names


def test_compute_loads_neither_the_scans_nor_the_other_subcommands():
    names, out = _loaded_beyond_start_up("-m", "frobenius", "compute", "6", "9", "20")
    assert out == "43\n"
    unused = {"bounds", "randgen", "reference", "sequential", "representability"}
    assert not names & {f"frobenius.{m}" for m in unused}
    assert "fractions" not in names


def test_dir_lists_every_public_name():
    assert set(dir(frobenius)) >= set(frobenius.__all__)


def test_star_import_binds_every_public_name_to_its_definition():
    namespace: dict = {}
    exec("from frobenius import *", namespace)
    for name in frobenius.__all__:
        if name != "__version__":
            home = import_module(f"frobenius.{frobenius._EXPORTS[name]}")
            assert namespace[name] is getattr(home, name), name
    assert namespace["__version__"] == frobenius.__version__


def test_an_unknown_name_raises_attribute_error():
    assert not hasattr(frobenius, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        frobenius.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from frobenius import no_such_name", {})
