"""Every name a library module imports at its top level is used there or
exported.

An import that nothing reads keeps its target alive for no caller: a module
or function that only such an import names looks used when it is not.  The
check parses each ``src/plancode/*.py`` with ``ast`` and needs nothing past
the standard library.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plancode"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used and name not in exported
    ]


def test_every_import_is_used_or_exported():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = {}
    for path in paths:
        got = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if got:
            unused[path.name] = got
    assert not unused, f"imported but neither used nor in __all__: {unused}"
