"""Every top-level name in src/bomric has a reader in the program, and so
does every dataclass field and property of its classes; every exception
class is raised.

A function, class, constant, field or property that only tests read is
code with no caller, and so is a failure type that nothing raises.  The
program is src/ and scripts/.  Exempt from the top-level check are the
names perfbench/spans.py wraps, which the benchmark reads from outside, and
dunder names such as __version__, which Python and packaging tools read.
"""
import ast
import importlib

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


def decorator_name(node):
    """The name a decorator ends in: dataclass for @dataclass,
    @dataclass(frozen=True) and @dataclasses.dataclass alike."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def attribute_names(tree):
    """(class, name) for each dataclass field and each @property or
    @cached_property that a module's top-level classes define."""
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        is_dataclass = any(decorator_name(d) == "dataclass" for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and is_dataclass:
                yield cls.name, node.target.id
            elif isinstance(node, ast.FunctionDef) and any(
                decorator_name(d) in ("property", "cached_property") for d in node.decorator_list
            ):
                yield cls.name, node.name


def test_every_field_and_property_is_read_as_an_attribute():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    defined = [
        (f"bomric.{path.stem}.{cls}.{name}", name)
        for path, tree in trees.items() if path.parent == PACKAGE
        for cls, name in attribute_names(tree)
    ]
    assert len(defined) > 10  # the scan sees the package's dataclasses
    assert [qualified for qualified, name in defined if name not in read] == []


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


def raised_names(tree):
    """The names a module's raise statements name, as in `raise E(...)`,
    `raise mod.E(...)` or `raise E`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_every_exception_class_is_raised():
    # a class passes when it, or a class that derives from it, is raised by name
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    raised = {name for tree in trees.values() for name in raised_names(tree)}
    modules = [f"bomric.{path.stem}" for path in trees if path.parent == PACKAGE]
    defined = [cls for name in modules
               for cls in vars(importlib.import_module(name)).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == name]
    assert len(defined) > 5  # the scan sees the package's failure types
    unraised = [f"{cls.__module__}.{cls.__name__}" for cls in defined
                if not any(sub.__name__ in raised for sub in defined if issubclass(sub, cls))]
    assert unraised == []
