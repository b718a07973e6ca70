"""Source hygiene checks that need only the standard library."""
import ast
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    unused = [hit for top in ("src", "tests")
              for path in sorted((ROOT / top).rglob("*.py"))
              for hit in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_ring_operators_are_defined_in_their_own_class_body():
    """The benchmark's tracer names the span of a method after the class
    whose body defines it, so an inherited or borrowed operator would
    leave ``cpseries.mul``, ``logpoly.add`` and the like reading 0."""
    from curvelog import cpseries
    from curvelog.logpoly import LogPoly
    from curvelog.ncseries import NCSeries

    for cls in (cpseries.TruncatedSeries, LogPoly):
        for op in ("__add__", "__sub__", "__neg__", "__mul__"):
            fn = vars(cls).get(op)
            assert isinstance(fn, types.FunctionType), (cls.__name__, op)
            assert fn.__qualname__ == f"{cls.__name__}.{op}"
    assert isinstance(vars(cpseries.TruncatedSeries).get("invert"),
                      types.FunctionType)
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "exp", "invert",
               "substitute"):
        fn = vars(NCSeries).get(op)
        assert isinstance(fn, types.FunctionType), ("NCSeries", op)
        assert fn.__qualname__ == f"NCSeries.{op}"
    assert isinstance(vars(cpseries).get("solve_quadratic"),
                      types.FunctionType)


# public names that only tests may call: the exact group-likeness check
# is itself a verdict the tests ask of the library
_TEST_ONLY_API = {"is_grouplike"}


def _public_defs(tree: ast.Module):
    """Module-level and class-level function definitions."""
    bodies = [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def _names_read(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced_defs(package: Path, users: list[Path]) -> list[str]:
    """Public functions and methods defined under ``package`` whose name
    no file of ``users`` reads outside the definition itself."""
    read = Counter()
    for path in users:
        read += _names_read(ast.parse(path.read_text(), filename=str(path)))
    out = []
    for path in sorted(package.rglob("*.py")):
        for fn in _public_defs(ast.parse(path.read_text(),
                                         filename=str(path))):
            name = fn.name
            if name.startswith("_") or name in _TEST_ONLY_API:
                continue
            if read[name] <= _names_read(fn)[name]:
                out.append(f"{path.relative_to(package.parent)}:{fn.lineno}: "
                           f"{name}")
    return out


def test_unreferenced_defs_finds_a_planted_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def planted(n):\n    return planted(n - 1) if n else 0\n\n\n"
        "class K:\n    def method(self):\n        return used()\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def is_grouplike(self):\n        return True\n")
    (tmp_path / "user.py").write_text("from pkg.mod import K\nK().method()\n")
    hits = _unreferenced_defs(pkg, [pkg / "mod.py", tmp_path / "user.py"])
    # its own recursive call does not count; the allowlist does
    assert [h.rsplit(": ", 1)[1] for h in hits] == ["planted"]


def test_every_public_function_has_a_caller_outside_tests():
    users = [path for top in ("src", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    unused = _unreferenced_defs(ROOT / "src" / "curvelog", users)
    assert not unused, "called only from tests, or not at all:\n" + \
        "\n".join(unused)
