"""End-to-end checks of the command-line interface."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvelog.catalog import stable_graphs
from curvelog.jsonio import canonical_dumps, write_output
from curvelog.logpoly import logpoly_ring
from curvelog.ncseries import NCSeries
from curvelog.sewing import SEW
from curvelog.sheaf import (MonodromyCalculator, build_sheaf,
                            reassemble_element)
from curvelog.stable_graph import Edge, StableGraph, Tail


def run_cli(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "curvelog.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def four_tails(tmp_path):
    graph = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    return write_json(tmp_path / "g04.json", graph.to_json())


@pytest.fixture
def one_loop(tmp_path):
    return write_json(tmp_path / "g11.json",
                      stable_graphs(1, 1)[0].to_json())


def test_graph_validate_and_subtree(four_tails, tmp_path):
    out = json.loads(run_cli("graph", "validate", four_tails).stdout)
    assert out == {"g": 0, "n": 4, "trivalent": True,
                   "edges": ["e0"], "tails": ["t1", "t2", "t3", "t4"]}
    sub = json.loads(run_cli("graph", "subtree",
                             "--graph", four_tails).stdout)
    assert sub == {"tree": ["e0"], "cycles": []}


def test_graph_validate_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    run_cli("graph", "validate", str(bad), expect=2)
    run_cli("graph", "validate", str(tmp_path / "missing.json"), expect=2)
    # well-formed JSON, but disconnected, and unstable (valence 2)
    apart = StableGraph(["a", "b"], [],
                        [Tail(f"t{i}", "a" if i <= 3 else "b", i)
                         for i in range(1, 7)])
    thin = StableGraph(["a"], [], [Tail("t1", "a", 1), Tail("t2", "a", 2)])
    for name, graph in (("apart", apart), ("thin", thin)):
        path = write_json(tmp_path / f"{name}.json", graph.to_json())
        run_cli("graph", "subtree", "--graph", path, expect=2)


def test_graph_expand_contract_round_trip(four_tails, tmp_path):
    contracted = json.loads(run_cli(
        "graph", "contract", "--graph", four_tails, "--edge", "e0").stdout)
    cpath = write_json(tmp_path / "star.json", contracted)
    out = json.loads(run_cli("graph", "validate", cpath).stdout)
    assert out["g"] == 0 and out["n"] == 4 and not out["trivalent"]
    vertex = contracted["vertices"][0]
    expanded = json.loads(run_cli(
        "graph", "expand", "--graph", cpath, "--vertex", vertex,
        "--h1", "t1", "--h2", "t2").stdout)
    epath = write_json(tmp_path / "expanded.json", expanded)
    out = json.loads(run_cli("graph", "validate", epath).stdout)
    assert out["trivalent"] and out["g"] == 0 and out["n"] == 4


def test_seed_only_where_read(four_tails, tmp_path):
    charted = next(g for g in stable_graphs(0, 4) if len(g.edges) == 1)
    gpath = write_json(tmp_path / "charted.json",
                       charted.specialize_chart(seed=5).to_json())
    star = run_cli("graph", "contract", "--graph", gpath, "--edge", "e0",
                   "--seed", "7").stdout
    assert star == run_cli("graph", "contract", "--graph", gpath, "--edge",
                           "e0", "--seed", "7").stdout
    spath = write_json(tmp_path / "star.json", json.loads(star))
    vertex = json.loads(star)["vertices"][0]
    expand = ("graph", "expand", "--graph", spath, "--vertex", vertex,
              "--h1", "t1", "--h2", "t3")
    seeded = json.loads(run_cli(*expand, "--seed", "5").stdout)
    assert seeded["chart"] != json.loads(run_cli(*expand).stdout)["chart"]
    epath = write_json(tmp_path / "expanded.json", seeded)
    assert json.loads(run_cli("graph", "validate", epath).stdout)["trivalent"]
    out = json.loads(run_cli("schottky", "verify-prop21", "--gmax", "1",
                             "--nmax", "1", "--len", "2", "--deg", "4",
                             "--seed", "2").stdout)
    assert out["pass"] is True
    # the option exists only where it is read
    run_cli("assoc", "kz", "--weight", "2", "--seed", "1", expect=2)
    run_cli("graph", "subtree", "--graph", four_tails, "--seed", "1",
            expect=2)
    run_cli("monodromy", "--graph", four_tails, "--path", gpath,
            "--seed", "1", expect=2)


def test_mzv_eval(tmp_path):
    out = json.loads(run_cli("mzv", "eval", "2").stdout)
    assert abs(out["value"] - 1.6449340668482264) < 1e-9
    out = json.loads(run_cli("mzv", "eval", "1", "2").stdout)
    assert abs(out["value"] - 1.2020569031595942) < 1e-9
    proc = run_cli("mzv", "eval", "1", expect=2)
    assert "error" in json.loads(proc.stderr)
    out = json.loads(run_cli("mzv", "eval", "2", "--prec", "1e-10").stdout)
    assert out["prec"] == 1e-10
    assert abs(out["value"] - 1.6449340668482264) < 1e-10
    # the option exists only where it is read
    run_cli("assoc", "kz", "--weight", "2", "--prec", "1e-10", expect=2)


def test_assoc_kz_series(tmp_path):
    out = json.loads(run_cli("assoc", "kz", "--weight", "2").stdout)
    assert out["alphabet"] == ["X0", "X1"]
    coeffs = {tuple(t["word"]): t["coeff"] for t in out["terms"]}
    x0x1 = coeffs[("X0", "X1")]
    assert x0x1["terms"] == [{"coeff": {"den": 1, "num": -1},
                              "ipi_pow": 0, "zeta_indices": [[2]]}]
    assert abs(x0x1["numeric"]["re"] + 1.6449340668482264) < 1e-9
    assert ("X0",) not in coeffs and ("X1",) not in coeffs


def test_assoc_elliptic_runs():
    out = json.loads(run_cli("assoc", "elliptic", "--which", "around0",
                             "--weight", "3").stdout)
    assert out["alphabet"] == ["T", "A"]
    out = json.loads(run_cli("assoc", "elliptic", "--which", "ab",
                             "--weight", "3").stdout)
    assert out["alphabet"] == ["T", "A"]


def test_schottky_fixed_points(one_loop):
    out = json.loads(run_cli("schottky", "fixed-points", "--graph", one_loop,
                             "--word", "e0+", "--deg", "5",
                             "--seed", "3").stdout)
    assert out["word"] == ["e0+"]
    assert set(out) == {"word", "alpha", "alpha_prime", "beta"}
    again = run_cli("schottky", "fixed-points", "--graph", one_loop,
                    "--word", "e0+", "--deg", "5", "--seed", "3").stdout
    assert again == canonical_dumps(out) + "\n"


def test_schottky_verify_prop21_small():
    out = json.loads(run_cli("schottky", "verify-prop21", "--gmax", "1",
                             "--nmax", "1", "--len", "2",
                             "--deg", "4").stdout)
    assert out["pass"] is True
    assert [c["id"] for c in out["cases"]] == ["g1n1#0"]


def test_schottky_verify_prop21_rejects_a_truncation_below_the_word_length():
    # the multiplier of a word of length L starts in degree L, so at
    # --deg 2 the words of length 3 would fail as an artifact
    argv = ("schottky", "verify-prop21", "--gmax", "1", "--nmax", "1",
            "--len", "3")
    proc = run_cli(*argv, "--deg", "2", expect=2)
    assert proc.stdout == "" and "word length" in proc.stderr
    assert json.loads(run_cli(*argv, "--deg", "3").stdout)["pass"] is True


def test_schottky_compare_thm31(tmp_path):
    graph = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                        [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    gpath = write_json(tmp_path / "g12.json", graph.to_json())
    out = json.loads(run_cli("schottky", "compare-thm31", "--graph", gpath,
                             "--v", "v0", "--h1", "f+", "--h2", "t1",
                             "--deg", "4", "--seed", "9").stdout)
    assert out["pass"] is True
    assert out["multipliers"]["pass"] is True


# sha256 of the stdout below: fixed points at a truncation whose
# exponents need more than seven bits
FIXED_POINTS_DEG130_SHA256 = \
    "e8376281856176d74f6e9695db2c1f337e419d30f80876310fe9601632e0777e"


def test_schottky_fixed_points_at_a_large_truncation(tmp_path):
    graph = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                        [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    gpath = write_json(tmp_path / "g12.json", graph.to_json())
    stdout = run_cli("schottky", "fixed-points", "--graph", gpath,
                     "--word", "f+", "--deg", "130", "--seed", "9").stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        FIXED_POINTS_DEG130_SHA256


def test_schottky_compare_thm31_loop_corner(tmp_path):
    # both branches of the loop edge move onto the bubble; the proper
    # powers f+ f+ and f- f- then need their common factor divided out
    graph = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                        [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    gpath = write_json(tmp_path / "g12.json", graph.to_json())
    out = json.loads(run_cli("schottky", "compare-thm31", "--graph", gpath,
                             "--v", "v0", "--h1", "f+", "--h2", "f-",
                             "--deg", "4", "--seed", "9").stdout)
    assert out["pass"] is True
    assert out["points"]["n_checked"] > 0


def test_monodromy_decompose_round_trip(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono_path = tmp_path / "mono.json"
    stdout = run_cli("monodromy", "--graph", four_tails, "--path", path,
                     "--words", "3", "--out", str(mono_path)).stdout
    mono = json.loads(mono_path.read_text())
    assert json.loads(stdout) == mono
    assert mono["kind"] == "monodromy" and mono["lvars"] == ["l_e0"]
    assert mono["type"] == [0, 4] and mono["ydeg"] == 0

    dec_path = tmp_path / "dec.json"
    run_cli("decompose", "--in", str(mono_path), "--out", str(dec_path))
    report = json.loads(dec_path.read_text())
    assert report["all_integral"] is True and report["n_entries"] > 0

    ring = logpoly_ring(tuple(mono["lvars"]))
    elem = NCSeries.from_json(mono["element"], ring)
    back = reassemble_element(report, ring)
    assert canonical_dumps(back.to_json()) == canonical_dumps(mono["element"])


# sha256 of the stdout of three calls: the words-5 tail path t1 -> t3 on
# the one-edge (0,4) graph, `decompose` of that artifact, and a moves path
# with a turn on the (1,2) loop graph at words 3; the same digests come
# out under CPython 3.10, 3.11, 3.12 and 3.13
MONODROMY_WORDS5_SHA256 = \
    "40433337c77f29a98d3389bd6a60d935bf02db854f8101f94cb6bf828fc620bd"
DECOMPOSE_WORDS5_SHA256 = \
    "2d0fec9c2b968c3018377fd344b447d5b38a345213fcb5ac0ad24d1ac17318f2"
TURN_PATH_WORDS3_SHA256 = \
    "522c922605042d0531cab123d37ee1081c45e0f4a2c3fb56f818f8fe6c7e2189"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_monodromy_and_decompose_stdout_is_pinned(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    stdout = run_cli("monodromy", "--graph", four_tails, "--path", path,
                     "--words", "5").stdout
    assert _sha(stdout) == MONODROMY_WORDS5_SHA256
    mono = tmp_path / "mono5.json"
    mono.write_text(stdout)
    assert _sha(run_cli("decompose", "--in", str(mono)).stdout) == \
        DECOMPOSE_WORDS5_SHA256
    graph = StableGraph(["v0"], [Edge("f", "v0", 0, "v0", 1)],
                        [Tail("t1", "v0", 1), Tail("t2", "v0", 2)])
    gpath = write_json(tmp_path / "g12.json", graph.to_json())
    moves = write_json(tmp_path / "moves.json", {"moves": [
        ["local", "v0", "t1", "f+"], ["turn", "v0", "f+"],
        ["local", "v0", "f+", "t1"]]})
    assert _sha(run_cli("monodromy", "--graph", gpath, "--path", moves,
                        "--words", "3").stdout) == TURN_PATH_WORDS3_SHA256


# sha256 of the stdout below; the sew-ring layout of the artifact is fixed
SEW_ARTIFACT_SHA256 = \
    "20d43619184d98f2ded6f2897ad62fe4b475da816696e806f952b6aba4cf92bf"


def test_monodromy_ydeg1_sew_artifact(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    stdout = run_cli("monodromy", "--graph", four_tails, "--path", path,
                     "--words", "2", "--ydeg", "1").stdout
    mono = json.loads(stdout)
    assert mono["element"]["ring"] == "sew"
    elem = NCSeries.from_json(mono["element"], SEW)
    assert canonical_dumps(elem.to_json()) == canonical_dumps(mono["element"])
    assert hashlib.sha256(stdout.encode()).hexdigest() == SEW_ARTIFACT_SHA256


def test_monodromy_logdeg_only_at_ydeg0(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    argv = ("monodromy", "--graph", four_tails, "--path", path,
            "--words", "2")
    proc = run_cli(*argv, "--ydeg", "1", "--logdeg", "0", expect=2)
    assert proc.stdout == "" and "--logdeg" in proc.stderr
    cut = json.loads(run_cli(*argv, "--logdeg", "0").stdout)
    full = json.loads(run_cli(*argv).stdout)
    assert (cut["logdeg"], full["logdeg"]) == (0, 2)
    assert cut["element"] != full["element"]


def test_monodromy_loop_path(one_loop, tmp_path):
    path = write_json(tmp_path / "loop.json", {"loop": ["e0+"]})
    out = json.loads(run_cli("monodromy", "--graph", one_loop, "--path", path,
                             "--words", "2").stdout)
    assert out["path"] == {"loop": ["e0+"]}
    assert out["element"]["alphabet"] == ["T_e0", "A_e0"]


def test_monodromy_moves_path_with_a_turn(one_loop, tmp_path):
    # a path given as moves, a turn among them, is the calculator's path
    # over the same moves
    moves = [["local", "v0", "t1", "e0+"], ["turn", "v0", "e0+"],
             ["local", "v0", "e0+", "t1"]]
    path = write_json(tmp_path / "moves.json", {"moves": moves})
    out = json.loads(run_cli("monodromy", "--graph", one_loop, "--path", path,
                             "--words", "3").stdout)
    calc = MonodromyCalculator(build_sheaf(stable_graphs(1, 1)[0], 3))
    expect = calc.path([tuple(m) for m in moves])
    assert out["path"] == {"moves": moves}
    assert canonical_dumps(out["element"]) == canonical_dumps(expect.to_json())


def test_monodromy_rejects_bad_paths(four_tails, one_loop, tmp_path):
    nonsense = write_json(tmp_path / "p1.json", {"tails": ["t1", "nope"]})
    run_cli("monodromy", "--graph", four_tails, "--path", nonsense, expect=2)
    missing = write_json(tmp_path / "p2.json", {"something": 1})
    run_cli("monodromy", "--graph", four_tails, "--path", missing, expect=2)
    # deformation corrections on an unsupported tail pair
    offslot = write_json(tmp_path / "p3.json", {"tails": ["t1", "t4"]})
    run_cli("monodromy", "--graph", four_tails, "--path", offslot,
            "--words", "2", "--ydeg", "1", expect=2)
    # and on a graph with a cycle edge
    looppath = write_json(tmp_path / "p4.json", {"tails": ["t1", "t1"]})
    run_cli("monodromy", "--graph", one_loop, "--path", looppath,
            "--words", "2", "--ydeg", "1", expect=2)


def test_decompose_flags_non_integral_input(tmp_path):
    from fractions import Fraction

    from curvelog.constants import ConstantCombination as CC
    from curvelog.logpoly import LogPoly

    # build the artifact by hand: coefficient 1/3 is not integral
    ring = logpoly_ring(("l_e0",))
    lp = LogPoly.constant(("l_e0",), CC.rational(Fraction(1, 3)))
    series = NCSeries(("x",), 1, ring, {(0,): lp})
    artifact = {"kind": "monodromy", "ydeg": 0, "lvars": ["l_e0"],
                "element": series.to_json()}
    path = write_json(tmp_path / "artifact.json", artifact)
    run_cli("decompose", "--in", path, expect=1)
    # and a non-monodromy file is an input error
    bad = write_json(tmp_path / "bad.json", {"kind": "other"})
    run_cli("decompose", "--in", bad, expect=2)
    # as is a non-integral exponent, which must not be read as an integer
    artifact["element"]["terms"][0]["coeff"]["terms"][0]["exp"] = [1.5]
    bad_exp = write_json(tmp_path / "bad_exp.json", artifact)
    assert "exponent" in run_cli("decompose", "--in", bad_exp,
                                 expect=2).stderr


def test_decompose_rejects_a_zero_denominator(four_tails, tmp_path):
    # exit 1 means "not all integral"; a zero denominator is an input error
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "2").stdout)
    coeff = mono["element"]["terms"][-1]["coeff"]["terms"][0]["coeff"]
    coeff["terms"][0]["coeff"]["den"] = 0
    bad = write_json(tmp_path / "den0.json", mono)
    assert "zero denominator" in run_cli("decompose", "--in", bad,
                                         expect=2).stderr


def test_graph_validate_rejects_a_zero_denominator_chart_value(
        four_tails, tmp_path):
    data = StableGraph.from_json(json.loads(Path(four_tails).read_text())) \
        .specialize_chart(seed=3).to_json()
    branch = sorted(data["chart"]["finite"])[0]
    data["chart"]["finite"][branch] = "1/0"
    path = write_json(tmp_path / "chart.json", data)
    assert "zero denominator" in run_cli("graph", "validate", path,
                                         expect=2).stderr


def test_graph_validate_rejects_a_duplicate_edge_id(tmp_path):
    # three v0-v1 edges, two named e0: merged, they would read as g = 1
    data = StableGraph(["v0", "v1"],
                       [Edge("e0", "v0", 0, "v1", 0),
                        Edge("e1", "v0", 1, "v1", 1),
                        Edge("e2", "v0", 2, "v1", 2)],
                       [Tail("t1", "v0", 1), Tail("t2", "v1", 2)]).to_json()
    data["edges"][2]["id"] = "e0"
    path = write_json(tmp_path / "dup.json", data)
    assert "duplicate edge id e0" in run_cli("graph", "validate", path,
                                             expect=2).stderr


def test_graph_validate_rejects_a_non_integral_tail_label(four_tails, tmp_path):
    data = json.loads(Path(four_tails).read_text())
    data["tails"][0]["nu"] = 1.9
    path = write_json(tmp_path / "nu.json", data)
    run_cli("graph", "validate", path, expect=2)


def test_graph_validate_rejects_a_non_integral_slot(four_tails, tmp_path):
    data = json.loads(Path(four_tails).read_text())
    data["edges"][0]["from"]["slot"] = 0.5
    path = write_json(tmp_path / "slot.json", data)
    run_cli("graph", "validate", path, expect=2)


def test_decompose_rejects_a_non_integral_truncation(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    mono["element"]["trunc"] = 2.7
    bad = write_json(tmp_path / "trunc.json", mono)
    run_cli("decompose", "--in", bad, expect=2)


@pytest.mark.parametrize("trunc", [-1, 0])
def test_decompose_rejects_a_truncation_below_the_words(four_tails, tmp_path,
                                                        trunc):
    # a lowered truncation must not drop the longer words and report the
    # rest as integral
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    mono["element"]["trunc"] = trunc
    bad = write_json(tmp_path / "trunc.json", mono)
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == "" and "truncation" in proc.stderr


def test_decompose_rejects_a_coefficient_over_other_symbols(four_tails,
                                                            tmp_path):
    # the header names the log symbols; a coefficient over other symbols
    # must not be read as one over the header's
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    assert mono["lvars"] == ["l_e0"]
    mono["element"]["terms"][-1]["coeff"]["vars"] = ["l_q"]
    bad = write_json(tmp_path / "vars.json", mono)
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == "" and "l_q" in proc.stderr


def test_decompose_rejects_a_list_for_the_artifact(tmp_path):
    bad = write_json(tmp_path / "list.json", [])
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)


def test_decompose_rejects_a_list_for_the_element(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    mono["element"] = []
    bad = write_json(tmp_path / "element.json", mono)
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "JSON object" in json.loads(proc.stderr)["error"]


def _period_term(elem):
    """A term of ``elem`` whose period has a zeta factor."""
    return next(p for t in elem["terms"] for c in t["coeff"]["terms"]
                for p in c["coeff"]["terms"] if p["zeta_indices"])


@pytest.mark.parametrize("node, key", [
    (lambda elem: elem, "terms"),                          # the series
    (lambda elem: elem["terms"][-1]["coeff"], "terms"),    # a coefficient
    (lambda elem: elem["terms"][-1]["coeff"]["terms"][0]["coeff"],
     "terms"),                                             # a period
    (lambda elem: elem["terms"][-1], "word"),
    (_period_term, "zeta_indices"),
], ids=["element", "coefficient", "period", "word", "zeta_indices"])
def test_decompose_rejects_an_object_for_a_list(four_tails, tmp_path, node,
                                                key):
    # an empty object iterates as an empty list: no terms (a zero), the
    # empty word, or a period without zeta values
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    node(mono["element"])[key] = {}
    bad = write_json(tmp_path / "list.json", mono)
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "JSON list" in json.loads(proc.stderr)["error"]


def _without_ring(elem):
    del elem["ring"]


@pytest.mark.parametrize("mutate", [
    # objects whose keys are the names the lists held
    lambda mono: mono["element"].update(
        alphabet=dict.fromkeys(mono["element"]["alphabet"], 0)),
    lambda mono: mono.update(lvars=dict.fromkeys(mono["lvars"], 0)),
    lambda mono: mono["element"]["terms"][-1]["coeff"].update(
        vars=dict.fromkeys(mono["lvars"], 0)),
    lambda mono: mono["element"]["terms"][-1]["coeff"]["terms"][0].update(
        exp={"0": 1}),
    # empty objects for both name lists, over no terms and no ring name
    lambda mono: (mono.update(lvars={}), _without_ring(mono["element"]),
                  mono["element"].update(alphabet={}, terms=[])),
], ids=["alphabet", "lvars", "vars", "exp", "empty"])
def test_decompose_rejects_an_object_for_a_name_list(four_tails, tmp_path,
                                                     mutate):
    # tuple() of an object takes its keys, so these decoded as the lists
    # they stand in for, or as empty ones
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = json.loads(run_cli("monodromy", "--graph", four_tails,
                              "--path", path, "--words", "3").stdout)
    mutate(mono)
    bad = write_json(tmp_path / "names.json", mono)
    proc = run_cli("decompose", "--in", bad, expect=2)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "JSON list" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("moves", [
    {"moves": [dict.fromkeys(["local", "v0", "t1", "e0+"], 0)]},
    {"moves": {"local": 0}},
], ids=["entry", "list"])
def test_monodromy_rejects_an_object_for_a_move(one_loop, tmp_path, moves):
    path = write_json(tmp_path / "moves.json", moves)
    proc = run_cli("monodromy", "--graph", one_loop, "--path", path,
                   "--words", "2", expect=2)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "JSON list" in json.loads(proc.stderr)["error"]


def test_determinism_and_text_format(four_tails):
    a = run_cli("assoc", "kz", "--weight", "3").stdout
    b = run_cli("assoc", "kz", "--weight", "3").stdout
    assert a == b
    txt = run_cli("assoc", "kz", "--weight", "3",
                  "--format", "text").stdout
    assert json.loads(txt) == json.loads(a)
    assert txt != a  # text form is indented


def run_python(code, *argv):
    """Run ``code`` in a fresh interpreter that finds ``curvelog`` in
    ``src``; returns the last line of its standard output."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_runtime_imports_only_the_standard_library():
    """Every module that the package's modules and a run of the ODE
    oracle load is in the standard library or in the package; modules
    loaded before the first import (by ``site``, say) do not count."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import importlib, pkgutil\n"
            "import curvelog\n"
            "for info in pkgutil.iter_modules(curvelog.__path__):\n"
            "    importlib.import_module('curvelog.' + info.name)\n"
            "from curvelog.associator import kz_associator, ode_transport\n"
            "from curvelog.ncseries import COMPLEX, NCSeries\n"
            "kz_associator(3)\n"
            "x0, x1 = (NCSeries.letter(a, ('X0', 'X1'), 2, COMPLEX)\n"
            "          for a in ('X0', 'X1'))\n"
            "ode_transport({0.0: x0, 1.0: x1}, 0.0, 1.0)\n"
            "assert 'curvelog.sewing' in sys.modules\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.partition('.')[0] not in\n"
            "             {*sys.stdlib_module_names, 'curvelog'}))\n")
    assert run_python(code) == "[]"


# the modules that hold the algebra of the heavier subcommands
HEAVY = {"curvelog.sheaf", "curvelog.associator", "curvelog.constants",
         "curvelog.ncseries", "curvelog.logpoly", "curvelog.schottky",
         "curvelog.chart_compare"}


# standard-library modules that no subcommand needs: ``dataclasses``
# alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
UNNEEDED = {"dataclasses", "inspect"}


def _modules_after(*argv):
    """The ``curvelog`` modules a fresh interpreter holds after importing
    ``curvelog.cli`` and, given ``argv``, running that command, with
    those of ``UNNEEDED`` that were not loaded before that import."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import curvelog.cli\n"
            "if sys.argv[1:]:\n"
            "    assert curvelog.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.partition('.')[0] == 'curvelog'\n"
            f"                        or m in {sorted(UNNEEDED)}\n"
            "                        and m not in before)))\n")
    return set(json.loads(run_python(code, *argv)))


def test_subcommands_import_only_what_they_run(four_tails, one_loop,
                                               tmp_path):
    assert _modules_after() == {"curvelog", "curvelog.cli",
                                "curvelog.jsonio"}
    validate = _modules_after("graph", "validate", four_tails)
    assert "curvelog.stable_graph" in validate
    assert not validate & HEAVY, sorted(validate & HEAVY)
    mzv = _modules_after("mzv", "eval", "2")
    assert "curvelog.polylog" in mzv
    assert not mzv & HEAVY, sorted(mzv & HEAVY)
    # only the schottky subcommands hold TruncatedSeries
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = str(tmp_path / "mono.json")
    no_series = {
        "graph validate": validate, "mzv eval": mzv,
        "assoc kz": _modules_after("assoc", "kz", "--weight", "3"),
        "monodromy": _modules_after("monodromy", "--graph", four_tails,
                                    "--path", path, "--words", "2",
                                    "--out", mono),
        "decompose": _modules_after("decompose", "--in", mono)}
    for name, mods in no_series.items():
        assert "curvelog.cpseries" not in mods, name
    fixed = _modules_after("schottky", "fixed-points", "--graph", one_loop,
                           "--word", "e0+")
    assert "curvelog.cpseries" in fixed
    star = write_json(tmp_path / "star.json", StableGraph(
        ["v0"], [], [Tail(f"t{i}", "v0", i) for i in range(1, 5)]).to_json())
    every = {**no_series, "schottky fixed-points": fixed}
    for argv in (["assoc", "elliptic", "--which", "ab", "--weight", "3"],
                 ["graph", "contract", "--graph", four_tails, "--edge", "e0"],
                 ["graph", "subtree", "--graph", four_tails],
                 ["graph", "expand", "--graph", star, "--vertex", "v0",
                  "--h1", "t1", "--h2", "t2"],
                 ["schottky", "verify-prop21", "--gmax", "1", "--nmax", "1",
                  "--len", "2"],
                 ["schottky", "compare-thm31", "--graph", star, "--v", "v0",
                  "--h1", "t1", "--h2", "t2"]):
        every[" ".join(argv[:2])] = _modules_after(*argv)
    for name, mods in every.items():
        assert not mods & UNNEEDED, (name, sorted(mods & UNNEEDED))


def test_count_flags_reject_negative_values(four_tails, tmp_path):
    path = write_json(tmp_path / "path.json", {"tails": ["t1", "t3"]})
    mono = ["monodromy", "--graph", four_tails, "--path", path]
    prop21 = ["schottky", "verify-prop21"]
    fixed = ["schottky", "fixed-points", "--graph", four_tails,
             "--word", "e0+"]
    for argv in (["assoc", "kz", "--weight", "-1"],
                 ["assoc", "elliptic", "--which", "ab", "--weight", "-1"],
                 [*mono, "--words", "-1"], [*mono, "--ydeg", "-1"],
                 [*mono, "--logdeg", "-1"], [*prop21, "--gmax", "-1"],
                 [*prop21, "--nmax", "-1"], [*prop21, "--len", "-1"],
                 [*prop21, "--deg", "-1"], [*fixed, "--deg", "-1"],
                 ["assoc", "kz", "--weight", "1.5"]):
        proc = run_cli(*argv, expect=2)
        assert "non-negative integer" in proc.stderr, argv
        assert proc.stdout == "", argv


def test_mzv_eval_rejects_a_non_finite_precision():
    for prec in ("nan", "inf", "0", "x"):
        proc = run_cli("mzv", "eval", "2", "--prec", prec, expect=2)
        assert "finite positive" in proc.stderr and proc.stdout == ""
    for fmt in ("json", "text"):
        with pytest.raises(ValueError):
            write_output({"prec": float("nan")}, None, fmt)
        with pytest.raises(ValueError):
            write_output([float("inf")], None, fmt)


def test_schottky_verify_prop21_rejects_a_check_of_nothing():
    for argv in (["--gmax", "0", "--nmax", "2"],
                 ["--gmax", "0", "--nmax", "0"],
                 ["--gmax", "1", "--nmax", "1", "--len", "0"]):
        proc = run_cli("schottky", "verify-prop21", *argv, expect=2)
        assert proc.stdout == "", argv
    assert "no stable type" in run_cli(
        "schottky", "verify-prop21", "--gmax", "0", expect=2).stderr
