"""The names ``credmask`` exports, which it imports from their submodules
only when first used."""

import subprocess
import sys

import pytest

import credmask

from conftest import CHILD_ENV


@pytest.mark.parametrize("name", credmask.__all__)
def test_every_exported_name_resolves(name):
    value = getattr(credmask, name)
    namespace = {}
    exec(f"from credmask import {name}", namespace)
    assert namespace[name] is value
    assert value.__module__.startswith("credmask.")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        credmask.no_such_name
    with pytest.raises(ImportError):
        exec("from credmask import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, credmask; print(sorted(m for m in sys.modules if m.startswith('credmask.')))"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV, check=True)
    assert proc.stdout.strip() == "[]"
