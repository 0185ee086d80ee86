"""Command-line front end.

Exit codes: 0 when the command succeeds and every report verdict passes,
2 when any verdict fails, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .approx import DeltaSequence, approx_order_set, parse_delta, tail_union_measures
from .arcs import ArcSet
from .circle import CirclePoint, format_fraction, parse_fraction
from .density import density_profile
from .ergodic import AffineCircleMap, invariant_set_search
from .experiments import (
    REPORT_CSV_HEADER,
    ExperimentReport,
    ReportRow,
    cassels_experiment,
    csv_text,
    duffin_schaeffer_classify,
    gallagher_experiment,
    json_text,
    membership_witnesses,
    report_csv_rows,
)
from .numtheory import parse_predicate


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; 2 is reserved for failed verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _inline_or_file(text: str) -> str:
    if not text.startswith("{") and os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            return fh.read()
    return text


def _load_delta(text: str) -> DeltaSequence:
    return parse_delta(_inline_or_file(text))


def _point(text: str) -> CirclePoint:
    return CirclePoint(parse_fraction(text))


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _fraction_list(text: str) -> list[Fraction]:
    return [parse_fraction(v) for v in text.split(",") if v.strip()]


def _emit(args, value, header, rows, code: int = 0) -> int:
    """Write `value` as JSON, or `header` and `rows` (a generator: JSON skips it) as CSV."""
    text = csv_text(header, rows) if args.output == "csv" else json_text(value) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _emit_report(report: ExperimentReport, args) -> int:
    data = report.to_json_dict()
    code = 0 if report.all_pass() else 2
    return _emit(args, data, REPORT_CSV_HEADER, report_csv_rows(data), code)


def _add_io_flags(sub, default_output: str = "json") -> None:
    sub.add_argument("--output", choices=("json", "csv"), default=default_output)
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _cmd_gallagher(args) -> int:
    report = gallagher_experiment(_load_delta(args.delta), _int_list(args.n_min_schedule), args.n_max)
    return _emit_report(report, args)


def _cmd_cassels(args) -> int:
    report = cassels_experiment(
        _load_delta(args.delta),
        parse_fraction(args.m),
        parse_predicate(args.pred),
        args.n_min,
        args.n_max,
    )
    return _emit_report(report, args)


def _cmd_duffin_schaeffer(args) -> int:
    report = duffin_schaeffer_classify(_load_delta(args.delta), args.cap)
    return _emit_report(report, args)


def _cmd_witnesses(args) -> int:
    x = _point(args.x)
    witnesses = membership_witnesses(x, _load_delta(args.delta), args.n_max)
    value = {"x": format_fraction(x.value), "n_max": args.n_max, "witnesses": witnesses}
    return _emit(args, value, ("n",), ((n,) for n in witnesses))


def _cmd_ao(args) -> int:
    if (args.radius is None) == (args.delta is None):
        raise ValueError("provide exactly one of --radius or --delta")
    radius = parse_fraction(args.radius) if args.radius is not None else _load_delta(args.delta).eval_at(args.n)
    data = approx_order_set(args.n, radius).to_json_dict()
    rows = ((a["start"], a["length"]) for a in data["arcs"])
    return _emit(args, data, ("start", "length"), rows)


def _cmd_measure(args) -> int:
    if args.set is not None:
        if args.delta is not None:
            raise ValueError("--set and --delta are mutually exclusive")
        measure = ArcSet.from_json(_inline_or_file(args.set)).measure
        params: dict[str, object] = {"set": "explicit"}
    else:
        if args.delta is None or args.n_min is None or args.n_max is None:
            raise ValueError("need --set, or --delta with --n-min and --n-max")
        pred, delta = parse_predicate(args.pred), _load_delta(args.delta)
        measure, = tail_union_measures(pred, delta, [args.n_min], args.n_max)
        params = {
            "delta": str(delta),
            "pred": str(pred),
            "n_min": args.n_min,
            "n_max": args.n_max,
        }
    report = ExperimentReport("measure", params=params)
    report.rows.append(ReportRow("measure", measure))
    return _emit_report(report, args)


def _cmd_ergodic_search(args) -> int:
    t = AffineCircleMap(args.n, _point(args.x))
    sets = [s.to_json_dict() for s in invariant_set_search(t, args.grid)]
    blank = [{"start": "", "length": ""}]  # the empty set's one row
    rows = ((i, a["start"], a["length"]) for i, s in enumerate(sets) for a in s["arcs"] or blank)
    return _emit(args, sets, ("set_index", "start", "length"), rows)


def _cmd_density(args) -> int:
    s = ArcSet.from_json(_inline_or_file(args.set))
    profile = density_profile(s, _point(args.x), _fraction_list(args.eps))
    data = {"rows": [{"eps": format_fraction(e), "ratio": format_fraction(r)} for e, r in profile]}
    return _emit(args, data, ("eps", "ratio"), ((r["eps"], r["ratio"]) for r in data["rows"]))


def build_parser() -> _Parser:
    parser = _Parser(prog="circlelab", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("gallagher", help="tail-union measures along a truncation schedule")
    p.add_argument("--delta", required=True, help="delta sequence (JSON, inline, or file)")
    p.add_argument("--n-min-schedule", required=True, help="comma-separated truncation starts")
    p.add_argument("--n-max", type=int, required=True, help="at most 2**22")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_gallagher)

    p = subs.add_parser("cassels", help="compare tail unions at radii delta and m*delta")
    p.add_argument("--delta", required=True)
    p.add_argument("--m", required=True, help="positive rational scaling factor")
    p.add_argument("--pred", default="all")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_cassels)

    p = subs.add_parser("duffin-schaeffer", help="totient-series partial sums and classification")
    p.add_argument("--delta", required=True)
    p.add_argument("--cap", type=int, required=True, help="largest partial-sum cutoff, at most 2**22")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_duffin_schaeffer)

    p = subs.add_parser("witnesses", help="indices n with an order-n point delta_n-close to x")
    p.add_argument("--x", required=True, help="rational point p/q")
    p.add_argument("--delta", required=True)
    p.add_argument("--n-max", type=int, required=True, help="at most 2**22")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_witnesses)

    p = subs.add_parser("ao", help="approximate-order set for a single n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", help="thickening radius as a rational")
    p.add_argument("--delta", help="delta sequence, evaluated at n")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_ao)

    p = subs.add_parser("measure", help="exact measure of an arc set or tail union")
    p.add_argument("--set", help="arc-set JSON (inline or file)")
    p.add_argument("--delta")
    p.add_argument("--pred", default="all")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_measure)

    p = subs.add_parser("ergodic-search", help="grid-cell unions invariant under y -> n*y + x")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="0", help="offset as a rational, e.g. 0/1")
    p.add_argument("--grid", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_ergodic_search)

    p = subs.add_parser("density", help="density ratios of a set at a point along an eps schedule")
    p.add_argument("--set", required=True, help="arc-set JSON (inline or file)")
    p.add_argument("--x", required=True)
    p.add_argument("--eps", required=True, help="comma-separated decreasing radii")
    _add_io_flags(p, default_output="csv")
    p.set_defaults(func=_cmd_density)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every main() call in this process, built on the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"circlelab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
