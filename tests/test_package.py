"""The package's public surface: every exported name exists, and each is
imported from its module on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import eulersum

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("errors", "harness", "oscillator", "quadrature", "resummation", "rows", "square_well", "zeta")


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout."""
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"],
                          capture_output=True, text=True, check=True).stdout


def test_every_exported_name_resolves():
    missing = [name for name in eulersum.__all__ if not hasattr(eulersum, name)]
    assert missing == []
    assert len(set(eulersum.__all__)) == len(eulersum.__all__)


def test_star_import():
    namespace = {}
    exec("from eulersum import *", namespace)
    assert set(eulersum.__all__) <= namespace.keys()


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = fresh("import eulersum; print([m for m in sys.modules if m.startswith(('eulersum.', 'numpy'))])")
    assert loaded.strip() == "[]"


def test_submodules_resolve_after_a_bare_import():
    names = fresh(f"import eulersum; print(*(getattr(eulersum, m).__name__ for m in {SUBMODULES!r}))")
    assert names.split() == [f"eulersum.{m}" for m in SUBMODULES]


def test_dir_lists_the_exports_and_unknown_names_raise():
    assert set(eulersum.__all__) | set(SUBMODULES) <= set(dir(eulersum))
    with pytest.raises(AttributeError, match="no_such_name"):
        eulersum.no_such_name
