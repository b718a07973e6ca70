"""In-memory span tracer installed around the public surface of ``curvelog``.

The benchmark wraps, from the outside, every public module-level function
and every public method or arithmetic operator of each class defined in an
already-imported ``curvelog`` module.  Each call records one span: name,
start, end and parent span, in flat arrays.  Nothing under ``src/`` knows
about it, and untraced runs never import this module.

Span names follow ``<module>.<function>``.  Methods of a module's main
class (see ``MAIN_CLASS``) are named after the method alone
(``ncseries.mul`` is ``NCSeries.__mul__``); methods of other classes carry
the lower-cased class name (``sewing.zone_mul`` is ``Zone.__mul__``).
"""
from __future__ import annotations

import functools
import sys
import time
import types
from array import array

OPERATORS = {"__add__": "add", "__radd__": "radd", "__sub__": "sub",
             "__rsub__": "rsub", "__mul__": "mul", "__rmul__": "rmul",
             "__neg__": "neg", "__pow__": "pow", "__matmul__": "matmul",
             "__truediv__": "truediv"}

MAIN_CLASS = {"chart_compare": "ChartComparison",
              "constants": "ConstantCombination",
              "cpseries": "TruncatedSeries",
              "logpoly": "LogPoly",
              "ncseries": "NCSeries",
              "schottky": "Moebius",
              "sheaf": "MonodromyCalculator",
              "stable_graph": "StableGraph"}

# Memoized calls whose hit ratio is 1 - distinct arguments / calls.  The
# key of ``sheaf.local`` includes the calculator, whose cache it is.
ARG_KEYED = ("associator.kz_associator", "polylog.mzv_numeric",
             "sheaf.local")


def _freeze(x):
    return tuple(map(_freeze, x)) if isinstance(x, (list, tuple)) else x


def _arg_key(args, kwargs):
    return _freeze(args) + _freeze(sorted(kwargs.items()))


class Tracer:
    """Records spans in flat arrays; ``summary`` turns them into
    per-name calls, total time (outermost spans only) and self time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nested = array("b")     # 1 if an enclosing span has the same name
        self._stack = [-1]
        self._depth: list[int] = []
        self.arg_keys: dict[str, set] = {}
        self.lru: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_of.get(name)
        if nid is None:
            nid = self.name_of[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        keys = self.arg_keys.setdefault(name, set()) \
            if name in ARG_KEYED else None
        stack, depth = self._stack, self._depth
        span_name, start, end = self.span_name, self.start, self.end
        parent, nested = self.parent, self.nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            d = depth[nid]
            nested.append(1 if d else 0)
            depth[nid] = d + 1
            stack.append(i)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[nid] = d

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation --------------------------------------------------

    def install(self, package: str = "curvelog") -> None:
        """Wrap the public callables of every imported ``package`` module.

        Modules that imported a function by name hold their own
        reference, so every module namespace binding the original object
        is re-pointed at the wrapper."""
        mods = {name.split(".", 1)[1]: mod for name, mod in
                sorted(sys.modules.items())
                if name.startswith(package + ".") and mod is not None}
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._install_class(short, obj)
                elif isinstance(obj, types.FunctionType) or \
                        hasattr(obj, "cache_info"):
                    name = f"{short}.{attr}"
                    if hasattr(obj, "cache_info"):
                        self.lru[name] = obj
                    replaced[id(obj)] = (obj, self._wrap(name, obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _install_class(self, short: str, cls: type) -> None:
        prefix = "" if MAIN_CLASS.get(short) == cls.__name__ \
            else cls.__name__.lower() + "_"
        for attr, raw in list(vars(cls).items()):
            if attr in OPERATORS:
                label = OPERATORS[attr]
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{short}.{prefix}{label}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(name, raw)
            else:
                continue
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- summary -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s`` (outermost spans of that
        name), ``self_s`` (span minus the time its direct children cover)
        and, where defined, ``hit_ratio``."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i, nid in enumerate(self.span_name):
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if not self.nested[i]:
                total[nid] += dur
        out = {}
        for nid, name in enumerate(self.names):
            stats = {"calls": calls[nid], "total_s": total[nid],
                     "self_s": self_s[nid]}
            if name in self.arg_keys:
                stats["distinct"] = len(self.arg_keys[name])
            elif name in self.lru:
                stats["distinct"] = self.lru[name].cache_info().misses
            if "distinct" in stats:
                c = calls[nid]
                stats["hit_ratio"] = 1 - stats["distinct"] / c if c else 0.0
            out[name] = stats
        return {"run_id": self.run_id, "spans": n, "layers": out,
                "self_s_sum": sum(self_s),
                "root_s": sum(end[i] - start[i] for i in range(n)
                              if parent[i] < 0)}
