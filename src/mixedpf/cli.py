"""Command-line surface: evaluate models on graphs, rank connection
matrices, run verification suites, and enumerate fragment families.

Exit codes: 0 on success / full pass, 1 on a failed check, 2 on input errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

from .algebra import GaussianRational
from .connection import connection_matrix, exact_rank
from .evaluator import MODES, partition_function
from .graph import format_fragment, parse_fragments, parse_graph
from .models import model_from_json, model_from_spec
from .suites import SUITES, enumerate_fragments


#: verify's suite options, flag -> suite parameter; a ``*_values`` one repeats.
#: Each is an int but ``--t``, which :func:`_read_t` reads per suite.
VERIFY_OPTIONS = {
    "--seed": "seed",
    "--count": "count",
    "--trials": "trials",
    "--pairs": "pairs",
    "--max-vertices": "max_vertices",
    "--max-edges": "max_edges",
    "--max-m": "max_m",
    "--k": "k_values",
    "--t": "t_values",
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors, which main
    reports in one ``error:`` line; ``--help`` still prints usage, exit 0.

    A word that starts with ``-`` and then a digit, a dot or a lone ``i``
    is a value, as argparse already takes ``-2``: so ``--t -3/2`` and
    ``--t -2/5i`` read as ``--t=-3/2`` does.  No option is spelled so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]|-i$")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixedpf",
        description="Exact partition functions of edge-coloring models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a model on a graph file")
    pe.add_argument("graph", help="graph file in the text format")
    _model_args(pe)
    pe.add_argument("--mode", choices=MODES, required=True)

    pc = sub.add_parser("connrank", help="rank of a connection matrix over fragments")
    pc.add_argument("fragments", help="fragment list file (one block per fragment)")
    _model_args(pc)
    pc.add_argument("--mode", choices=MODES, default="mixed")
    pc.add_argument("--csv", help="write the matrix as CSV to this path")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(SUITES))
    for flag, name in VERIFY_OPTIONS.items():
        repeated = name.endswith("_values")
        kind = str if flag == "--t" else int
        pv.add_argument(flag, type=kind, dest=name, action="append" if repeated else "store")
    pv.add_argument("--no-timing", action="store_true")

    pg = sub.add_parser("gen-fragments", help="enumerate small t-fragments")
    pg.add_argument("--t", type=int, required=True)
    pg.add_argument("--max-internal", type=int, default=2)
    pg.add_argument("--max-edges", type=int, default=3)
    pg.add_argument("--limit", type=int)
    return parser


def _model_args(sub):
    sub.add_argument("--model", help="built-in spec, e.g. charpoly?t=0")
    sub.add_argument("--model-file", dest="model_file", help="model JSON file")
    sub.add_argument(
        "--cap",
        type=int,
        help="degree cap for built-in models (default: max degree of the input)",
    )


def _load_model(args, default_cap: int):
    if bool(args.model) == bool(args.model_file):
        raise ValueError("exactly one of --model or --model-file is required")
    if args.model:
        cap = args.cap if args.cap is not None else default_cap
        return model_from_spec(args.model, cap=cap)
    with open(args.model_file) as fh:
        return model_from_json(json.load(fh))


def cmd_eval(args) -> int:
    with open(args.graph) as fh:
        graph = parse_graph(fh.read())
    model = _load_model(args, default_cap=max(graph.max_degree(), 0))
    result = partition_function(graph, model, args.mode)
    print(result.value)
    print(f"# subsets={result.subsets} colorings={result.colorings}")
    return 0


def cmd_connrank(args) -> int:
    with open(args.fragments) as fh:
        fragments = parse_fragments(fh.read())
    max_deg = max((f.graph.max_degree() for f in fragments), default=0)
    model = _load_model(args, default_cap=max_deg)
    matrix = connection_matrix(fragments, model, args.mode)
    rank = exact_rank(matrix)
    bound = (model.k + model.two_ell) ** matrix.t
    verdict = "PASS" if rank <= bound else "FAIL"
    if args.csv:  # before the verdict, so that a refused path prints nothing on stdout
        with open(args.csv, "w") as fh:
            fh.write(matrix.to_csv())
    print(f"rank={rank} bound={bound} {verdict}")
    return 0 if verdict == "PASS" else 1


def _refuse_negative(flag, value):
    """Raise ValueError naming the flag if its value (or any repeat) is negative."""
    for v in value if isinstance(value, list) else [value]:
        if v < 0:
            raise ValueError(f"{flag} must not be negative, got {v}")


def _read_t(suite: str, text: str):
    """A ``verify --t`` value: charpoly's is its model's t, any element of
    Q(i) as ``charpoly?t=`` reads it; every other suite's is a size, an int."""
    try:
        if suite == "charpoly":
            return GaussianRational.from_string(text)
        return int(text)
    except ValueError as exc:
        raise ValueError(f"argument --t: {exc}") from None


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    accepted = set(inspect.signature(suite).parameters)
    kwargs = {}
    for flag, name in VERIFY_OPTIONS.items():
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            raise ValueError(f"suite '{args.suite}' does not take {flag}")
        if flag == "--t":
            value = [_read_t(args.suite, v) for v in value]
        # sizes may not be negative; the seed and charpoly's --t, a model parameter, may
        if name != "seed" and (args.suite, name) != ("charpoly", "t_values"):
            _refuse_negative(flag, value)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    report = suite(**kwargs)
    sys.stdout.write(report.render(show_timing=not args.no_timing))
    return 0 if report.all_passed else 1


def cmd_gen_fragments(args) -> int:
    for flag, value in (("--t", args.t), ("--max-internal", args.max_internal),
                        ("--max-edges", args.max_edges), ("--limit", args.limit or 0)):
        _refuse_negative(flag, value)
    count = 0
    for frag in enumerate_fragments(args.t, args.max_internal, args.max_edges):
        if args.limit is not None and count >= args.limit:
            break
        sys.stdout.write(format_fragment(frag))
        count += 1
    return 0


def main(argv=None) -> int:
    handlers = {
        "eval": cmd_eval,
        "connrank": cmd_connrank,
        "verify": cmd_verify,
        "gen-fragments": cmd_gen_fragments,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
