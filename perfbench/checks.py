"""The benchmark's checker: every item is compared against an expected
output or an independent oracle, after the timed region.

Each item gets one typed outcome: ``ok``, ``error:<ExceptionType>`` when
the program raised, or ``wrong:<check>`` when a result disagrees with
what is expected.  A raised error is a failed operation; a wrong result
makes the whole run incorrect.
"""
from __future__ import annotations

import json
import math

# Copied from tests/test_catalog.py (TRIVALENT_COUNTS, STABLE_COUNTS).
TRIVALENT_COUNTS = {(1, 1): 1, (1, 2): 2, (2, 0): 2, (2, 1): 3,
                    (2, 2): 9, (3, 0): 5, (3, 1): 12, (3, 2): 49}
STABLE_COUNTS = {(0, 3): 1, (0, 4): 2, (0, 5): 3, (0, 6): 7,
                 (1, 1): 1, (1, 2): 3, (1, 3): 7, (2, 0): 3}
# Trivalent types the tests do not pin: regression pins taken at the seed
# commit.
TRIVALENT_COUNTS.update({(0, 3): 1, (0, 4): 1, (0, 5): 1, (0, 6): 2,
                         (1, 3): 3})

# Closed forms for the mzv cases of the CLI session (exponents
# inner-to-outer): Euler's zeta(2) = pi^2/6, zeta(4) = pi^4/90, Apery's
# constant, zeta(2,1) = zeta(3), and zeta(2,2) = (zeta(2)^2 - zeta(4))/2.
ZETA3 = 1.2020569031595942
MZV_CLOSED = {(2,): math.pi ** 2 / 6, (3,): ZETA3, (4,): math.pi ** 4 / 90,
              (1, 2): ZETA3, (2, 2): math.pi ** 4 / 120}

NECK_RESULT_WORDS = 40   # words of the transport at words = 3 (seed pin)


def _catalog(item) -> str:
    g, n = (int(x) for x in item.id.split("-")[0][1:].split("n"))
    pins = STABLE_COUNTS if item.id.endswith("-all") else TRIVALENT_COUNTS
    if len(item.value) != pins[(g, n)]:
        return "wrong:catalog_size"
    if any(gr.validate() != (g, n) for gr in item.value):
        return "wrong:catalog_type"
    return "ok"


def _verify(item) -> str:
    rep = item.value
    if rep["type"] != item.data["type"]:
        return "wrong:type"
    if rep["n_words"] < 1 or len(rep["words"]) != rep["n_words"]:
        return "wrong:n_words"
    if not rep["pass"] or not all(w["pass"] for w in rep["words"]):
        return "wrong:verify_pass"
    return "ok"


def _compare(item) -> str:
    return "ok" if item.value["pass"] is True else "wrong:compare_pass"


def _element(item, trunc: int) -> str:
    from curvelog.constants import ConstantCombination, in_zeta_span
    rep = item.value
    if not item.data["exact"]:
        return "wrong:reassembly"
    if rep["max_log_degree"] > trunc or rep["n_entries"] < 1:
        return "wrong:table_shape"
    if item.data["genus"] == 0:
        return "ok" if rep["all_integral"] else "wrong:genus0_integral"
    # genus >= 1: flagged entries carry a node letter and 4! clears them
    for i in rep["violations"]:
        entry = rep["entries"][i]
        if not any(a.startswith(("T_", "A_")) for a in entry["word"]):
            return "wrong:flagged_without_node"
        if not in_zeta_span(ConstantCombination.from_json(entry["coeff"])
                            * 24):
            return "wrong:flagged_not_cleared"
    return "ok"


def _cli(item) -> str:
    if item.data["code"] != 0:
        return f"error:exit{item.data['code']}"
    try:
        out = json.loads(item.value)
    except json.JSONDecodeError:
        return "wrong:not_json"
    if json.dumps(out, sort_keys=True, separators=(",", ":")) != \
            item.value.strip():
        return "wrong:not_canonical"
    return _cli_facts(item.id, out, item.data["expect"])


def _cli_facts(cmd: str, out: dict, expect: dict) -> str:
    from curvelog.stable_graph import StableGraph
    if cmd == "graph validate":
        ok = [out["g"], out["n"]] == expect["gn"]
    elif cmd in ("graph contract", "graph expand"):
        ok = list(StableGraph.from_json(out).validate()) == expect["gn"]
    elif cmd == "graph subtree":
        ok = (len(out["tree"]), len(out["cycles"])) == \
            (expect["tree"], expect["cycles"])
    elif cmd == "schottky fixed-points":
        ok = {"alpha", "alpha_prime", "beta", "word"} <= set(out)
    elif cmd == "schottky verify-prop21":
        ok = out["pass"] is True and len(out["cases"]) == expect["cases"]
    elif cmd == "schottky compare-thm31":
        ok = out["pass"] is True
    elif cmd == "mzv eval":
        ok = abs(out["value"] - MZV_CLOSED[tuple(expect["mzv"])]) < 1e-9
    elif cmd == "assoc kz":
        coeff = {tuple(t["word"]): t["coeff"] for t in out["terms"]}
        ok = abs(coeff[("X0", "X1")]["numeric"]["re"] + math.pi ** 2 / 6) \
            < 1e-9
    elif cmd == "assoc elliptic":
        ok = out["alphabet"] == ["T", "A"]
    elif cmd == "monodromy":
        ok = out["kind"] == "monodromy" and out["type"] == expect["gn"]
    elif cmd == "decompose":
        ok = out["all_integral"] is True and out["n_entries"] > 0
    else:
        return "wrong:unknown_command"
    return "ok" if ok else f"wrong:{cmd.replace(' ', '_')}"


def neck_tolerance(spec: dict, y: float) -> float:
    """Bound on |transport - ODE| per coefficient: the kernels' tails cut
    at ``kmax`` leave dust near ``2^-kmax`` (see ``dressed_neck_transport``)
    and the ``y``-expansion stops at ``y^ydeg``."""
    return 4 * 2.0 ** -spec["kmax"] + 8 * y ** (spec["ydeg"] + 1)


def _transport(item, spec: dict) -> str:
    if len(item.value[1].terms) != NECK_RESULT_WORDS:
        return "wrong:result_words"
    if item.data["kappa_dust"] > neck_tolerance(spec, 0.0):
        return "wrong:kappa_dust"
    return "ok"


def _specialize(item, spec: dict) -> str:
    return "ok" if item.data["err"] <= neck_tolerance(spec, item.data["y"]) \
        else "wrong:ode_limit"


def check(items, neck_spec: dict | None = None) -> list[str]:
    """One outcome per item, in order.  ``neck_spec`` holds the orders
    of the neck-sewing transport, which set its tolerance."""
    from workloads import MONODROMY_WORDS
    out = []
    for item in items:
        if item.error:
            out.append(f"error:{item.error}")
        elif item.kind == "catalog":
            out.append(_catalog(item))
        elif item.kind == "verify":
            out.append(_verify(item))
        elif item.kind == "compare":
            out.append(_compare(item))
        elif item.kind == "sheaf":
            out.append("ok")
        elif item.kind == "element":
            out.append(_element(item, MONODROMY_WORDS))
        elif item.kind == "transport":
            out.append(_transport(item, neck_spec))
        elif item.kind == "specialize":
            out.append(_specialize(item, neck_spec))
        elif item.kind == "cli":
            out.append(_cli(item))
        else:
            out.append("wrong:unknown_item")
    return out
