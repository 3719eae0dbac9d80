import ast
from pathlib import Path

import pytest

import ndtcache


def test_every_exported_name_resolves_once():
    assert len(ndtcache.__all__) == len(set(ndtcache.__all__))
    for name in ndtcache.__all__:
        assert hasattr(ndtcache, name), name


# Unread imports are found from each module's syntax tree, with no linter.
# (module, name) imported there but read only through that module, with its readers.
REEXPORTS = {
    ("corner", "unicast_schedule"): "verify, and bench/tracer.py, which times it as corner's",
}
MODULES = sorted(p for p in Path(ndtcache.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unread_imports(path: Path) -> list[str]:
    """The names a module's imports bind that none of its own code reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    # __init__'s names are its __all__; any other re-export names its readers
    assert unread_imports(path) == sorted(name for module, name in REEXPORTS
                                          if module == path.stem)
