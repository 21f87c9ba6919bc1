"""Every top-level name in src/bomric has a reader in the program.

A function, class or constant that only tests read is code with no caller.
The program is src/ and scripts/.  Exempt are the names perfbench/spans.py
wraps, which the benchmark reads from outside, and dunder names such as
__version__, which Python and packaging tools read.
"""
import ast

from conftest import REPO, load_perfbench

PACKAGE = REPO / "src" / "bomric"
PROGRAM = sorted((REPO / "src").rglob("*.py")) + sorted((REPO / "scripts").glob("*.py"))


def defined_names(tree):
    """The names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def read_names(tree):
    """Every name a module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_top_level_name_has_a_reader():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    read = {name for tree in trees.values() for name in read_names(tree)}
    exempt = set(load_perfbench("spans").TARGETS)
    unread = [
        f"bomric.{path.stem}.{name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for name in defined_names(tree)
        if name not in read and (f"bomric.{path.stem}", name) not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unread == []
