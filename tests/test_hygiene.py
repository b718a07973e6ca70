"""Source hygiene checks that need only the standard library."""
import ast
import types
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

    for cls in (cpseries.TruncatedSeries, LogPoly):
        for op in ("__add__", "__sub__", "__neg__", "__mul__"):
            fn = vars(cls).get(op)
            assert isinstance(fn, types.FunctionType), (cls.__name__, op)
            assert fn.__qualname__ == f"{cls.__name__}.{op}"
    assert isinstance(vars(cpseries.TruncatedSeries).get("invert"),
                      types.FunctionType)
    assert isinstance(vars(cpseries).get("solve_quadratic"),
                      types.FunctionType)
