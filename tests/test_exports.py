"""The package's public names: every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import condbands

PACKAGE = Path(condbands.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"condbands.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    # each name the package imports from one of its modules exists there and,
    # where the module declares __all__, is listed in it.  A star import
    # stands for the module's __all__, which it must declare; no name may be
    # listed by two star-imported modules, since the later import would
    # silently shadow the earlier one
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    stale, starred = [], {}
    for module_name, name in imported:
        module = importlib.import_module(f"condbands.{module_name}")
        public = getattr(module, "__all__", None)
        if name == "*":
            assert public is not None, f"condbands.{module_name} has no __all__"
            starred[module_name] = public
            stale += [f"condbands.{n}" for n in public if not hasattr(condbands, n)]
        elif not hasattr(module, name) or (public is not None and name not in public):
            stale.append(f"{module_name}.{name}")
    assert stale == []
    owners = {}
    for module_name, public in starred.items():
        for name in public:
            owners.setdefault(name, []).append(module_name)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}
