"""Static checks on the package source, read with `ast`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncfactor"


def _bound_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _references(node):
    """Names read in the statement, as names or as attributes."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _statements(paths):
    """(file name, module-level statement) for every statement of the files."""
    return [(path.name, node) for path in paths for node in ast.parse(path.read_text()).body]


def test_every_private_module_name_is_used():
    """A module-level private name (`_x`) that no other statement of the
    package reads is a helper left behind; public names, which the tests
    and the benchmark may read too, are checked below."""
    statements = _statements(sorted(SRC.glob("*.py")))
    refs = [_references(node) for _module, node in statements]
    total = sum(refs, Counter())
    unused = []
    for (module, node), own in zip(statements, refs):
        for name in sorted(_bound_names(node)):
            if name.startswith("_") and not name.startswith("__") and total[name] == own[name]:
                unused.append("%s: %s" % (module, name))
    assert not unused, "private names read nowhere else: %s" % ", ".join(unused)


def test_every_public_function_and_class_is_used():
    """A public module-level function or class of the package that no
    statement of the package, the tests or the benchmark reads, other
    than its own definition, is dead API."""
    package = _statements(sorted(SRC.glob("*.py")))
    readers = _statements(sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
                          + sorted((ROOT / "perfbench").glob("*.py")))
    total = sum((_references(node) for _module, node in readers), Counter())
    unused = ["%s: %s" % (module, node.name) for module, node in package
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and total[node.name] == _references(node)[node.name]]
    assert not unused, "public names read nowhere: %s" % ", ".join(unused)
