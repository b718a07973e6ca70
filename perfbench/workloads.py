"""The four benchmark workloads.

Each workload has three steps, all run inside one fresh interpreter by
``worker.py``:

* ``setup(seed, size)`` generates the inputs from the seed, after
  ``worker.py`` has imported the modules in ``MODULES``; both count
  as set-up.  The seed only picks choices of equal cost (chart seeds,
  orientations, orders, sample points), so runs at different seeds do
  the same amount of work.
* ``run(inputs, plant, rec)`` calls the program on those inputs and
  runs the program's own checks (``verify_word`` residuals, exact
  reassembly, the ODE oracle).  ``rec`` collects one ``Item`` per unit of
  work.  An exception is caught per item and recorded with its type; it
  never aborts the run.
  ``plant`` perturbs one result on purpose, so tests can prove the
  checker notices.
* ``checks.check(items)`` then compares against expected outputs,
  outside the timed region.

Sizes: ``bench`` is what the benchmark runs; ``tiny`` is a smoke size for
the benchmark's own tests.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Item:
    kind: str
    id: str
    error: str | None = None
    value: Any = None            # raw program result, rendered after timing
    data: dict = field(default_factory=dict)   # results of program checks


class Recorder:
    """Collects the items of a run."""

    def __init__(self):
        self.items: list[Item] = []

    def attempt(self, kind: str, ident: str, fn: Callable[[], Any]) -> Item:
        """Run one unit of work; a raised exception becomes a typed
        outcome."""
        item = Item(kind, ident)
        try:
            item.value = fn()
        except Exception as exc:     # the run must go on; the type is counted
            item.error = type(exc).__name__
        self.items.append(item)
        return item


def _types(gmax: int, nmax: int) -> list[tuple[int, int]]:
    return [(g, n) for g in range(gmax + 1) for n in range(nmax + 1)
            if 2 * g - 2 + n > 0]


# ---------------------------------------------------------------------------
# schottky-catalog: catalog enumeration, Schottky verification, chart
# comparison.  No scipy, no noncommutative series.

SCHOTTKY_SIZES = {
    # enumerated types, of which these are verified, and the comparison
    # catalogs; every branch pair at valence-4 vertices is compared, plus
    # every loop corner (the pairs that raise at the seed commit)
    "tiny": dict(enum=[(1, 1), (1, 2), (2, 0)], verify=[(1, 1), (1, 2)],
                 compare=[(0, 4), (0, 5)]),
    "bench": dict(enum=_types(3, 2),
                  verify=_types(2, 2) + [(3, 0)],
                  compare=[(0, 4), (0, 5), (1, 2), (1, 3)]),
}


def schottky_setup(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    spec = SCHOTTKY_SIZES[size]
    return {"spec": spec,
            # one chart seed per graph position, one per comparison
            "chart_seeds": [rng.randrange(1 << 30) for _ in range(128)],
            "compare_seeds": [rng.randrange(1 << 30) for _ in range(128)]}


def _is_loop_corner(graph, b1: str, b2: str) -> bool:
    return b1[:-1] == b2[:-1] and b1[:-1] in graph.edges


def schottky_run(inp: dict, plant: bool, rec: Recorder) -> list[Item]:
    from curvelog.catalog import stable_graphs
    from curvelog.chart_compare import expand_and_compare
    from curvelog.schottky import verify_graph

    spec = inp["spec"]
    k = 0
    for g, n in spec["enum"]:
        cat = rec.attempt("catalog", f"g{g}n{n}",
                      lambda: stable_graphs(g, n)).value
        if cat is None or (g, n) not in spec["verify"]:
            continue
        for i, graph in enumerate(cat):
            seed = inp["chart_seeds"][k]
            k += 1
            item = rec.attempt("verify", f"g{g}n{n}#{i}",
                           lambda: verify_graph(graph.specialize_chart(seed),
                                                max_len=4, trunc=6))
            item.data["type"] = [g, n]
            if plant and item.value is not None:
                item.value["pass"] = not item.value["pass"]
                plant = False
    k = 0
    for g, n in spec["compare"]:
        cat = rec.attempt("catalog", f"g{g}n{n}-all",
                      lambda: stable_graphs(g, n, trivalent_only=False)).value
        for i, graph in enumerate(cat or []):
            for v in graph.vertices:
                branches = graph.branches_at(v)
                if len(branches) < 4:
                    continue
                for b1, b2 in itertools.combinations(branches, 2):
                    if len(branches) != 4 and \
                            not _is_loop_corner(graph, b1, b2):
                        continue
                    seed = inp["compare_seeds"][k]
                    k += 1
                    rec.attempt("compare", f"g{g}n{n}#{i}:{v}:{b1},{b2}",
                            lambda: expand_and_compare(
                                graph, v, b1, b2, trunc=4, seed=seed).report())
    return rec.items


def schottky_render(item: Item):
    if item.kind == "catalog":
        return [gr.to_json() for gr in item.value]
    return item.value


# ---------------------------------------------------------------------------
# monodromy-tables: the criterion-09 sweep.  Noncommutative series over the
# log ring, period constants, sheaf moves and decomposition tables.

MONODROMY_SIZES = {
    "tiny": [(0, 3), (0, 4), (1, 1)],
    # the full sweep without (0, 6), which alone takes three quarters of it
    "bench": [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0)],
}
MONODROMY_WORDS = 4


def monodromy_setup(seed: int, size: str) -> dict:
    return {"types": MONODROMY_SIZES[size], "rng": random.Random(seed)}


def _cycle_word(calc, edge: str, rng: random.Random) -> list[str]:
    """The fundamental cycle of ``edge`` in a seed-picked orientation,
    rotated to a seed-picked starting half-edge."""
    g = calc.graph
    h = edge + rng.choice("+-")
    word = [h] if g.origin(h) == g.terminus(h) else \
        [h] + g.tree_path(g.terminus(h), g.origin(h),
                          list(calc.sheaf.tree_edges))
    k = rng.randrange(len(word))
    return word[k:] + word[:k]


def monodromy_run(inp: dict, plant: bool, rec: Recorder) -> list[Item]:
    from curvelog.catalog import stable_graphs
    from curvelog.constants import ConstantCombination
    from curvelog.sheaf import (MonodromyCalculator, build_sheaf,
                                decompose_element, reassemble_element)

    rng = inp["rng"]
    for g, n in inp["types"]:
        cat = rec.attempt("catalog", f"g{g}n{n}",
                      lambda: stable_graphs(g, n)).value
        for i, graph in enumerate(cat or []):
            calc = rec.attempt("sheaf", f"g{g}n{n}#{i}",
                           lambda: MonodromyCalculator(
                               build_sheaf(graph, MONODROMY_WORDS))).value
            if calc is None:
                continue
            pairs = list(itertools.combinations(sorted(graph.tails), 2))
            rng.shuffle(pairs)
            jobs = [(f"{s}->{d}", lambda s=s, d=d: calc.tail_path_moves(s, d))
                    for s, d in pairs]
            for e in sorted(calc.sheaf.cycle_edges):
                word = _cycle_word(calc, e, rng)
                jobs.append((f"loop:{','.join(word)}",
                             lambda w=word: calc.loop_moves(w)))
            for label, moves in jobs:
                def element(moves=moves):
                    nonlocal plant
                    elem = calc.path(moves())
                    rep = decompose_element(elem)
                    if plant and rep["entries"]:
                        entry = rep["entries"][0]
                        entry["coeff"] = (ConstantCombination.from_json(
                            entry["coeff"]) + 1).to_json()
                        plant = False
                    exact = (reassemble_element(rep, calc.ring) - elem).is_zero()
                    return rep, exact
                item = rec.attempt("element", f"g{g}n{n}#{i}:{label}",
                               element)
                item.data["genus"] = g
                if item.value is not None:
                    item.value, item.data["exact"] = item.value
    return rec.items


def monodromy_render(item: Item):
    if item.kind == "catalog":
        return [gr.to_json() for gr in item.value]
    if item.kind == "sheaf":
        return list(item.value.sheaf.alphabet)
    return item.value


# ---------------------------------------------------------------------------
# neck-sewing: the deformed four-point transport through a plumbing neck,
# checked against direct ODE integration (the only workload using scipy
# at run time).

NECK_SIZES = {
    "tiny": dict(ydeg=1, xorder=6, kmax=5, points=2),
    "bench": dict(ydeg=2, xorder=12, kmax=8, points=4),
}
NECK_WORDS = 3


def neck_setup(seed: int, size: str) -> dict:
    spec = NECK_SIZES[size]
    rng = random.Random(seed)
    ys = [1 / 64 + rng.random() * (1 / 16 - 1 / 64)
          for _ in range(spec["points"])]
    return {"spec": spec, "ys": ys}


def neck_run(inp: dict, plant: bool, rec: Recorder) -> list[Item]:
    from curvelog.associator import ode_transport
    from curvelog.catalog import stable_graphs
    from curvelog.ncseries import COMPLEX, NCSeries
    from curvelog.sewing import kappa_residual, sew_specialize
    from curvelog.sheaf import MonodromyCalculator, build_sheaf

    spec = inp["spec"]

    def transport():
        graph = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
        calc = MonodromyCalculator(build_sheaf(graph, NECK_WORDS))
        dressed = calc.dressed_tail_transport(
            "t1", "t3", ydeg=spec["ydeg"], xorder=spec["xorder"],
            kmax=spec["kmax"])
        return calc.sheaf.alphabet, dressed

    item = rec.attempt("transport", "t1->t3", transport)
    if item.error:
        return rec.items
    alphabet, dressed = item.value
    item.data["kappa_dust"] = kappa_residual(dressed)
    mk = {a: NCSeries.letter(a, alphabet, NECK_WORDS, COMPLEX)
          for a in alphabet}
    words = [w for n in range(NECK_WORDS + 1)
             for w in itertools.product(alphabet, repeat=n)]
    for y in inp["ys"]:
        def compare(y=y):
            nonlocal plant
            got = sew_specialize(dressed, y, 1e-12)
            oracle = ode_transport(
                {0.0: mk["X_t2"], y: mk["X_t1"], 1.0: mk["X_t3"]},
                y, 1.0, scale_src=y, scale_dst=1.0, delta=y / 4)
            values = {"".join(w): got.coefficient(w) for w in words}
            if plant:
                values[""] += 1
                plant = False
            err = max(abs(values["".join(w)] - oracle.coefficient(w))
                      for w in words)
            return values, err
        item = rec.attempt("specialize", f"y={y!r}", compare)
        item.data["y"] = y
        if item.value is not None:
            item.value, item.data["err"] = item.value
    return rec.items


def neck_render(item: Item):
    if item.kind == "transport":
        return item.value[1].to_json()
    return {w: [v.real, v.imag] for w, v in sorted(item.value.items())}


# ---------------------------------------------------------------------------
# cli-session: one user's session of CLI calls, each a fresh interpreter.
# Start-up and the cli/jsonio path dominate.

MZV_CASES = [[2], [3], [4], [1, 2], [2, 2]]


def cli_setup(seed: int, size: str, workdir: str) -> dict:
    from curvelog.catalog import stable_graphs
    from curvelog.stable_graph import StableGraph, Tail

    rng = random.Random(seed)

    def put(name: str, obj) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    g04 = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    star = StableGraph(["v0"], [], [Tail(f"t{i}", "v0", i)
                                    for i in range(1, 5)])
    g05 = stable_graphs(0, 5)[0]
    g20 = rng.choice(stable_graphs(2, 0))
    g11 = stable_graphs(1, 1)[0]
    f = {"g04": put("g04.json", g04.to_json()),
         "star": put("star.json", star.to_json()),
         "g05": put("g05.json", g05.to_json()),
         "g20": put("g20.json", g20.to_json()),
         "g11": put("g11.json", g11.to_json())}
    t1, t2 = rng.sample([f"t{i}" for i in range(1, 5)], 2)
    c1, c2 = rng.sample([f"t{i}" for i in range(1, 5)], 2)
    mzv = rng.choice(MZV_CASES)
    seed_arg = str(rng.randrange(1000))
    # (argv, expected facts for the checker)
    calls = [
        (["graph", "validate", f["g04"]], {"gn": [0, 4]}),
        (["graph", "contract", "--graph", f["g05"], "--edge",
          rng.choice(sorted(g05.edges))], {"gn": [0, 5]}),
        (["graph", "expand", "--graph", f["star"], "--vertex", "v0",
          "--h1", t1, "--h2", t2], {"gn": [0, 4]}),
        (["graph", "subtree", "--graph", f["g20"]],
         {"tree": len(g20.vertices) - 1, "cycles": 2}),
        (["schottky", "fixed-points", "--graph", f["g11"], "--word",
          rng.choice(["e0+", "e0-"]), "--seed", seed_arg], {}),
        (["schottky", "verify-prop21", "--gmax", "1", "--nmax", "2",
          "--len", "3", "--seed", seed_arg], {"cases": 3}),
        (["schottky", "compare-thm31", "--graph", f["star"], "--v", "v0",
          "--h1", c1, "--h2", c2, "--seed", seed_arg], {}),
        (["mzv", "eval", *map(str, mzv)], {"mzv": mzv}),
        (["assoc", "kz", "--weight", "4"], {}),
        (["assoc", "elliptic", "--which", rng.choice(["around0", "ab"]),
          "--weight", "4"], {}),
    ]
    if size == "tiny":
        calls = [calls[0], calls[7]]
    # a round trip between two tails farthest apart on the (0, 5)
    # caterpillar: equal work whichever pair the seed picks
    tree = list(g05.edges)
    far = {}
    for s, d in itertools.permutations(sorted(g05.tails), 2):
        hops = len(g05.tree_path(g05.tails[s].vertex, g05.tails[d].vertex,
                                 tree))
        far.setdefault(hops, []).append((s, d))
    s, d = rng.choice(far[max(far)])
    ppath = put("mono_path.json", {"tails": [s, d]})
    mpath = os.path.join(workdir, "mono.json")
    calls.append((["monodromy", "--graph", f["g05"], "--path", ppath,
                   "--out", mpath], {"gn": [0, 5]}))
    calls.append((["decompose", "--in", mpath], {"integral": True}))
    return {"calls": calls}


def cli_run(inp: dict, plant: bool, rec: Recorder, launcher: list[str],
            trace_dir: str | None) -> list[Item]:
    """Each call is a fresh interpreter, run one after another.  With
    ``trace_dir`` set, ``launcher`` is the traced launcher, which takes
    the path of its span summary as its first argument."""
    for k, (argv, expect) in enumerate(inp["calls"]):
        extra = [os.path.join(trace_dir, f"call{k}.json")] if trace_dir \
            else []
        proc = subprocess.run(launcher + extra + argv, capture_output=True,
                              text=True)
        item = Item("cli", " ".join(argv[:2]) if argv[0] in
                    ("graph", "schottky", "mzv", "assoc") else argv[0])
        item.value = proc.stdout
        item.data.update(code=proc.returncode, expect=expect)
        if plant and argv[0] == "mzv" and proc.returncode == 0:
            out = json.loads(proc.stdout)
            out["value"] += 1
            item.value = json.dumps(out, sort_keys=True, separators=(",", ":"))
            plant = False
        rec.items.append(item)
    return rec.items


def cli_render(item: Item):
    return item.value


# curvelog modules each workload imports during set-up
MODULES = {
    "schottky-catalog": ["curvelog.catalog", "curvelog.schottky",
                         "curvelog.chart_compare"],
    "monodromy-tables": ["curvelog.catalog", "curvelog.sheaf"],
    "neck-sewing": ["curvelog.catalog", "curvelog.sheaf", "curvelog.sewing",
                    "curvelog.associator"],
    "cli-session": ["curvelog.catalog", "curvelog.stable_graph"],
}

WORKLOADS = {
    "schottky-catalog": (schottky_setup, schottky_run, schottky_render),
    "monodromy-tables": (monodromy_setup, monodromy_run, monodromy_render),
    "neck-sewing": (neck_setup, neck_run, neck_render),
    "cli-session": (cli_setup, cli_run, cli_render),
}
