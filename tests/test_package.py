"""The package's export lists: every ``__all__`` resolves and covers what
``dmse`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dmse

MODULES = sorted(m.name for m in pkgutil.iter_modules(dmse.__path__))


def reexports() -> dict[str, set[str]]:
    """Names ``dmse/__init__.py`` imports from each of its submodules."""
    tree = ast.parse(Path(dmse.__file__).read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_covers_package_exports(name):
    module = importlib.import_module(f"dmse.{name}")
    listed = list(getattr(module, "__all__", ()))
    undefined = [n for n in listed if not hasattr(module, n)]
    assert not undefined, f"dmse.{name}.__all__ names undefined {undefined}"
    exported = {n for n in reexports().get(name, ()) if not n.startswith("_")}
    outside = sorted(exported - set(listed))
    assert not outside, f"dmse re-exports {outside} from dmse.{name} outside its __all__"
