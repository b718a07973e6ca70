"""Command-line front end: JSON in, canonical JSON out.

Subcommands wrap the library modules one-to-one and never compute
anything themselves.  Exit codes: 0 success, 1 a verification suite
reported a failure, 2 input error (bad files, bad flags, unsupported
layouts).  Identical inputs and seeds produce byte-identical output.

Each subcommand imports its library modules on first use, inside its
``cmd_*`` function, so a call loads only what it runs and ``--help``
loads no module of the package beyond :mod:`curvelog.jsonio`.
"""
from __future__ import annotations

import argparse
import json
import sys

from .jsonio import canonical_dumps, json_list, write_output


class InputError(ValueError):
    """Anything wrong with the inputs; mapped to exit code 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_graph(path: str):
    from .stable_graph import StableGraph

    try:
        graph = StableGraph.from_json(_load_json(path))
        graph.validate()
        return graph
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{path} is not a stable graph: {exc}") from exc


def _charted(graph, seed: int):
    return graph if graph.chart is not None else \
        graph.specialize_chart(seed=seed)


def _emit(obj, args) -> int:
    print(write_output(obj, args.out, args.format))
    return 0


def _split_word(text: str) -> list[str]:
    word = [part.strip() for part in text.split(",") if part.strip()]
    if not word:
        raise InputError("empty half-edge word")
    return word


# ---------------------------------------------------------------------------
# graph


def cmd_graph_validate(args) -> int:
    graph = _load_graph(args.graph)
    g, n = graph.gn_type()
    return _emit({"g": g, "n": n, "trivalent": graph.is_trivalent(),
                  "edges": sorted(graph.edges),
                  "tails": sorted(graph.tails)}, args)


def cmd_graph_expand(args) -> int:
    graph = _load_graph(args.graph)
    new = graph.expand_vertex(args.vertex, args.h1, args.h2, seed=args.seed)
    return _emit(new.to_json(), args)


def cmd_graph_contract(args) -> int:
    graph = _load_graph(args.graph)
    return _emit(graph.contract_edge(args.edge, seed=args.seed).to_json(),
                 args)


def cmd_graph_subtree(args) -> int:
    graph = _load_graph(args.graph)
    tree, cycles = graph.maximal_subtree()
    return _emit({"tree": tree, "cycles": cycles}, args)


# ---------------------------------------------------------------------------
# schottky


def cmd_schottky_fixed_points(args) -> int:
    from .schottky import fixed_points_multiplier

    graph = _charted(_load_graph(args.graph), args.seed)
    data = fixed_points_multiplier(graph, _split_word(args.word),
                                   trunc=args.deg)
    return _emit({"word": data.word,
                  "alpha": data.alpha.to_json(),
                  "alpha_prime": data.alpha_prime.to_json(),
                  "beta": data.beta.to_json()}, args)


def cmd_schottky_verify_prop21(args) -> int:
    from .catalog import stable_graphs
    from .schottky import verify_graph

    types = [(g, n) for g in range(args.gmax + 1)
             for n in range(args.nmax + 1) if 2 * g - 2 + n > 0]
    if not types:
        raise InputError(f"no stable type with g <= {args.gmax} and "
                         f"n <= {args.nmax}")
    if args.len < 1:
        raise InputError("--len must be at least 1")
    cases = []
    ok = True
    for g, n in types:
        for i, graph in enumerate(stable_graphs(g, n)):
            charted = graph.specialize_chart(seed=args.seed + i)
            report = verify_graph(charted, max_len=args.len, trunc=args.deg)
            cases.append({"id": f"g{g}n{n}#{i}",
                          "type": report["type"],
                          "n_words": report["n_words"],
                          "pass": report["pass"]})
            ok = ok and report["pass"]
    _emit({"cases": cases, "pass": ok}, args)
    return 0 if ok else 1


def cmd_schottky_compare_thm31(args) -> int:
    from .chart_compare import expand_and_compare

    graph = _load_graph(args.graph)
    comp = expand_and_compare(graph, args.v, args.h1, args.h2,
                              trunc=args.deg, seed=args.seed)
    report = comp.report()
    _emit(report, args)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# numbers and associators


def cmd_mzv_eval(args) -> int:
    from .polylog import Divergent, mzv_numeric

    try:
        value = mzv_numeric(args.indices, prec=args.prec)
    except (Divergent, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return _emit({"indices": args.indices, "prec": args.prec,
                  "value": value}, args)


def cmd_assoc_kz(args) -> int:
    from .associator import kz_associator

    return _emit(kz_associator(args.weight).to_json(), args)


def cmd_assoc_elliptic(args) -> int:
    from .elliptic import a_to_b, monodromy_around_zero

    series = monodromy_around_zero(args.weight) if args.which == "around0" \
        else a_to_b(args.weight)
    return _emit(series.to_json(), args)


# ---------------------------------------------------------------------------
# monodromy


def _path_moves(calc, spec: dict) -> list:
    if "tails" in spec:
        src, dst = spec["tails"]
        return calc.tail_path_moves(src, dst)
    if "loop" in spec:
        return calc.loop_moves(list(spec["loop"]))
    if "moves" in spec:
        moves = json_list(spec, "moves")
        return [tuple(json_list(moves, i)) for i in range(len(moves))]
    raise InputError("path file needs one of: tails, loop, moves")


def cmd_monodromy(args) -> int:
    from .sheaf import MonodromyCalculator, build_sheaf

    if args.logdeg is not None and args.ydeg > 0:
        raise InputError("--logdeg applies to the ydeg = 0 element only")
    graph = _load_graph(args.graph)
    path_spec = _load_json(args.path)
    logdeg = args.logdeg if args.logdeg is not None else args.words
    sheaf = build_sheaf(graph, args.words)
    calc = MonodromyCalculator(sheaf)
    header = {
        "kind": "monodromy",
        "type": list(graph.gn_type()),
        "words": args.words,
        "logdeg": logdeg,
        "ydeg": args.ydeg,
        "path": path_spec,
    }
    if args.ydeg == 0:
        try:
            elem = calc.path(_path_moves(calc, path_spec))
        except (KeyError, ValueError) as exc:
            raise InputError(f"path not admissible: {exc}") from exc
        n = len(calc.lvars)
        elem = elem.select(lambda k: sum(k[:n]) <= logdeg)
        header["lvars"] = list(calc.lvars)
        header["element"] = elem.to_json()
        return _emit(header, args)
    if "tails" not in path_spec:
        raise InputError("ydeg >= 1 needs a tail-to-tail path")
    src, dst = path_spec["tails"]
    elem = calc.dressed_tail_transport(src, dst, ydeg=args.ydeg)
    header["edge"] = sorted(graph.edges)[0]
    header["cut"] = "1/2"
    header["element"] = elem.to_json()
    return _emit(header, args)


def cmd_decompose(args) -> int:
    from .logpoly import logpoly_ring
    from .ncseries import NCSeries
    from .sheaf import decompose_element

    data = _load_json(args.infile)
    if not isinstance(data, dict) or data.get("kind") != "monodromy" \
            or "element" not in data:
        raise InputError("input is not a monodromy artifact")
    if data.get("ydeg", 0) != 0:
        raise InputError("decomposition applies to the ydeg = 0 form")
    try:
        ring = logpoly_ring(tuple(json_list(data, "lvars")))
        elem = NCSeries.from_json(data["element"], ring)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad monodromy element: {exc}") from exc
    report = decompose_element(elem)
    _emit(report, args)
    return 0 if report["all_integral"] else 1


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    """argparse type of the count flags: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _precision(text: str) -> float:
    """argparse type of ``--prec``: a finite positive float."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite positive number, got {text!r}")


def _add_common(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    parser.add_argument("--out", default=None, help="write output here")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    if seed:
        parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="curvelog",
        description="deformation parameters, normal forms and "
                    "polylogarithm monodromy on degenerating curves")
    sub = top.add_subparsers(dest="cmd", required=True)

    graph = sub.add_parser("graph", help="stable graph operations")
    gsub = graph.add_subparsers(dest="sub", required=True)
    p = gsub.add_parser("validate")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(fn=cmd_graph_validate)
    p = gsub.add_parser("expand")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_graph_expand)
    p = gsub.add_parser("contract")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_graph_contract)
    p = gsub.add_parser("subtree")
    p.add_argument("--graph", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_graph_subtree)

    schottky = sub.add_parser("schottky", help="normal forms on the graph")
    ssub = schottky.add_subparsers(dest="sub", required=True)
    p = ssub.add_parser("fixed-points")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True,
                   help="comma-separated half-edges, e.g. 'e0+,e1-'")
    p.add_argument("--deg", type=_count, default=6)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_schottky_fixed_points)
    p = ssub.add_parser("verify-prop21")
    p.add_argument("--gmax", type=_count, default=3)
    p.add_argument("--nmax", type=_count, default=2)
    p.add_argument("--len", type=_count, default=4)
    p.add_argument("--deg", type=_count, default=6)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_schottky_verify_prop21)
    p = ssub.add_parser("compare-thm31")
    p.add_argument("--graph", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--deg", type=_count, default=4)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_schottky_compare_thm31)

    mzv = sub.add_parser("mzv", help="multiple zeta numerics")
    msub = mzv.add_subparsers(dest="sub", required=True)
    p = msub.add_parser("eval")
    p.add_argument("indices", type=int, nargs="+",
                   help="exponents, inner-to-outer; the last must be >= 2")
    p.add_argument("--prec", type=_precision, default=1e-9)
    _add_common(p)
    p.set_defaults(fn=cmd_mzv_eval)

    assoc = sub.add_parser("assoc", help="associator series")
    asub = assoc.add_subparsers(dest="sub", required=True)
    p = asub.add_parser("kz")
    p.add_argument("--weight", type=_count, default=4)
    _add_common(p)
    p.set_defaults(fn=cmd_assoc_kz)
    p = asub.add_parser("elliptic")
    p.add_argument("--which", choices=("around0", "ab"), required=True)
    p.add_argument("--weight", type=_count, default=4)
    _add_common(p)
    p.set_defaults(fn=cmd_assoc_elliptic)

    p = sub.add_parser("monodromy", help="path transport on a glued curve")
    p.add_argument("--graph", required=True)
    p.add_argument("--path", required=True,
                   help="JSON file: {tails: [s, d]} | {loop: [...]} "
                        "| {moves: [...]}")
    p.add_argument("--words", type=_count, default=4)
    p.add_argument("--logdeg", type=_count, default=None)
    p.add_argument("--ydeg", type=_count, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("decompose", help="tabulate a monodromy element")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_decompose)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(canonical_dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(canonical_dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
