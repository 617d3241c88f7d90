"""Suite-wide set-up: child processes import the prhc under test.

pytest puts `src/` on its own import path (`pyproject.toml`), but the CLI
tests start fresh interpreters (`python -m prhc`), which see only
PYTHONPATH. Prepending the directory of the imported package keeps parent
and children on one copy.
"""

import os
import sys
from pathlib import Path

import pytest

import prhc
from prhc import linsys


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_prhc():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(prhc.__file__).resolve().parents[1]),
                  prepend=os.pathsep)
        yield


@pytest.fixture
def stack_builds(monkeypatch):
    """List that gains one (system, N) entry per stack_dynamics call, made
    through any prhc module's binding of it."""
    builds = []
    build = linsys.stack_dynamics

    def counting(system, N):
        builds.append((system, N))
        return build(system, N)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prhc" and getattr(module, "stack_dynamics", None) is build:
            monkeypatch.setattr(module, "stack_dynamics", counting)
    return builds
