"""Suite-wide set-up: child processes import the prhc under test.

pytest puts `src/` on its own import path (`pyproject.toml`), but the CLI
tests start fresh interpreters (`python -m prhc`), which see only
PYTHONPATH. Prepending the directory of the imported package keeps parent
and children on one copy.
"""

import os
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
    """List that gains one (system, N) entry per full build of a stack."""
    builds = []
    build = linsys._build_stack

    def counting(sys, N):
        builds.append((sys, N))
        return build(sys, N)

    monkeypatch.setattr(linsys, "_build_stack", counting)
    return builds
