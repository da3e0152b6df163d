"""Command-line front end.

Subcommands: kf, enumerate, extrema, verify (lemma4 | lemma5 | lemma6 |
theorem1 | conjecture | hexagon), reduce, export-dot.  Exit status 0 on
success or a passing verdict, 1 on a failing verdict, 2 on usage errors.
Machine formats never round; --approx adds a labeled decimal column.
"""

import argparse
import json
import os
import random
import sys

from .chain_model import (
    ChainCode,
    ChainCodeError,
    build_chain,
    chain_to_dot,
    enumerate_words,
)
from .exact_arith import RationalParseError, approx_text, format_rational, parse_rational
from .extremal_search import (
    DEFAULT_CAP,
    DEFAULT_SEED,
    SearchCapExceeded,
    check_cap,
    check_lemma5,
    check_lemma6,
    find_extrema,
    kf_of_code,
    random_chain_weights,
    random_terminal_weights,
    verify_conjecture,
    verify_theorem1,
    weighted_hexagon_check,
)
from .resistance_engine import (
    NetworkError,
    ReductionTrace,
    ResistanceNetwork,
    format_edge_list,
    reduce_series_parallel,
    resistance_matrix,
)
from .st_isomer import STPair, random_st_pair, verify_lemma4

CAP_ENV = "PHENKF_MAX_CODES"
JOBS_HELP = "ignored: the search runs in one process (accepted for compatibility)"
# longest chain, in hexagons, that each kf route takes: plain kf and --sums
# take about half a minute there; --matrix a few seconds, but its memory and
# output (about 120 MB and 22 MB at the bound) grow as n^2
MAX_KF_HEXAGONS = 3000
MAX_SUMS_HEXAGONS = 1000
MAX_MATRIX_HEXAGONS = 60
# verify lemma4 draws O(m^2) edge coins per sample, so with the default 100
# samples it takes about half a minute at this bound (2-vCPU host)
MAX_LEMMA4_VERTICES = 40
# verify lemma5 replays 8n - 6 reduction steps, each re-sorting the edges into
# a new network, so with the default 5 samples it takes about 13 s at this
# bound (2-vCPU host)
MAX_LEMMA5_HEXAGONS = 100
# reduce re-sorts the edges into a new network at each of its O(n) steps, so
# it takes about 11 s at this bound, with or without --trace (2-vCPU host)
MAX_REDUCE_HEXAGONS = 400


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj):
    _emit(json.dumps(obj, indent=2))


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from None


def _int_at_least(low):
    """argparse type: an int no smaller than `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_code(args) -> ChainCode:
    return ChainCode.parse(args.code, n=getattr(args, "n", None))


def _refuse_unshown(args, flag, shown_in):
    """Refuse a set flag whose output the chosen --format would not show."""
    if getattr(args, flag) and args.format not in shown_in:
        raise ValueError(f"--{flag} has no effect with --format {args.format}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_kf(args) -> int:
    _refuse_unshown(args, "matrix", ("json",))
    _refuse_unshown(args, "sums", ("text", "json"))
    code = _parse_code(args)
    route, limit = (("kf --matrix", MAX_MATRIX_HEXAGONS) if args.matrix else
                    ("kf --sums", MAX_SUMS_HEXAGONS) if args.sums else ("kf", MAX_KF_HEXAGONS))
    if code.n > limit:
        raise ValueError(f"{route} takes at most {limit} hexagons, got n={code.n}")
    report = kf_of_code(code, with_sums=args.sums)
    if args.format == "json":
        out = report.as_dict()
        if args.approx:
            out["kf_approx"] = approx_text(report.kf)
        if args.matrix:
            out["matrix"] = resistance_matrix(build_chain(code).network).as_dict()
        _emit_json(out)
    elif args.format == "csv":
        header = "n,code,canonical,kf_num,kf_den,is_all_kink"
        row = [str(code.n), code.word, code.canonical().word,
               str(report.kf.numerator), str(report.kf.denominator),
               str(code.is_all_kink()).lower()]
        if args.approx:
            header += ",kf_approx"
            row.append(approx_text(report.kf))
        _emit(header + "\n" + ",".join(row))
    else:
        _emit(f"code: {code}")
        _emit(f"kf: {format_rational(report.kf)}")
        if args.approx:
            _emit(f"kf approx: {approx_text(report.kf)}")
        _emit(f"vertices: {report.vertex_count}")
        _emit(f"edges: {report.edge_count}")
        if report.per_vertex_sums is not None:
            for v in sorted(report.per_vertex_sums, key=str):
                _emit(f"sum[{v}]: {format_rational(report.per_vertex_sums[v])}")
    return 0


def _cmd_enumerate(args) -> int:
    check_cap(args.n, _resolve_cap(args))
    codes = list(enumerate_words(args.n, canonical_only=args.canonical))
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "canonical_only": args.canonical,
            "count": len(codes),
            "codes": [c.word for c in codes],
        })
    elif args.format == "csv":
        lines = ["n,code,canonical,is_all_kink"]
        for c in codes:
            lines.append(f"{args.n},{c.word},{c.canonical().word},{str(c.is_all_kink()).lower()}")
        _emit("\n".join(lines))
    else:
        for c in codes:
            _emit(str(c))
    return 0


def _cmd_extrema(args) -> int:
    _refuse_unshown(args, "approx", ("text",))
    table = find_extrema(args.n, cap=_resolve_cap(args))
    if args.format == "json":
        _emit_json(table.as_dict())
    elif args.format == "csv":
        _emit(table.to_csv())
    else:
        _emit(f"n: {table.n}")
        _emit(f"codes: {len(table.reports)}")
        approx = f"  (approx {approx_text(table.min_kf)})" if args.approx else ""
        _emit(f"min kf: {format_rational(table.min_kf)}{approx}")
        _emit(f"min class: {' '.join(c.word for c in table.min_codes)}")
        approx = f"  (approx {approx_text(table.max_kf)})" if args.approx else ""
        _emit(f"max kf: {format_rational(table.max_kf)}{approx}")
        _emit(f"max class: {' '.join(c.word for c in table.max_codes)}")
    return 0


def _report_exit(report_dict, fmt, text_lines) -> int:
    if fmt == "json":
        _emit_json(report_dict)
    else:
        for line in text_lines:
            _emit(line)
        _emit("PASS" if report_dict["pass"] else "FAIL")
    return 0 if report_dict["pass"] else 1


def _cmd_verify_lemma4(args) -> int:
    if args.max_vertices > MAX_LEMMA4_VERTICES:
        raise ValueError(f"verify lemma4 takes --max-vertices at most {MAX_LEMMA4_VERTICES}, got {args.max_vertices}")
    rng = random.Random(args.seed)
    fixed_pair = STPair(
        # path a-l-m with l interior, and path b-k-p with k interior
        comp_a=_path_component(("a", "l", "m")),
        a="a", l="l",
        comp_b=_path_component(("b", "k", "p")),
        b="b", k="k",
    )
    fixed = verify_lemma4(fixed_pair)
    failures = []
    for idx in range(args.samples):
        check = verify_lemma4(random_st_pair(rng, max_vertices=args.max_vertices))
        if not check.passed:
            failures.append({"sample": idx, **check.as_dict()})
    passed = fixed.passed and not failures
    out = {
        "check": "lemma4",
        "samples": args.samples,
        "seed": args.seed,
        "fixed_instance": fixed.as_dict(),
        "failures": failures,
        "pass": passed,
    }
    lines = [
        f"fixed instance: kf_s={format_rational(fixed.kf_s)} kf_t={format_rational(fixed.kf_t)} "
        f"lhs={format_rational(fixed.lhs)} rhs={format_rational(fixed.rhs)}",
        f"random samples: {args.samples} (seed {args.seed}), failures: {len(failures)}",
    ]
    return _report_exit(out, args.format, lines)


def _path_component(names):
    return ResistanceNetwork(list(zip(names, names[1:])))


def _cmd_verify_lemma5(args) -> int:
    if args.n > MAX_LEMMA5_HEXAGONS:
        raise ValueError(f"verify lemma5 takes at most {MAX_LEMMA5_HEXAGONS} hexagons, got n={args.n}")
    rng = random.Random(args.seed)
    unit = check_lemma5(args.n)
    failures = []
    for idx in range(args.samples):
        rep = check_lemma5(args.n, weights=random_terminal_weights(args.n, rng))
        if not rep.passed:
            failures.append({"sample": idx, **rep.as_dict()})
    passed = unit.passed and not failures
    out = {
        "check": "lemma5",
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "unit": unit.as_dict(),
        "failures": failures,
        "pass": passed,
    }
    lines = [
        f"unit weights: r(a1,x)={format_rational(unit.r_a1_x)} < r(a1,y)={format_rational(unit.r_a1_y)}: "
        f"{unit.inequalities_ok}",
        f"steps: {unit.step_count}, per-step preservation: {unit.steps_preserve_ok}, "
        f"star R1={format_rational(unit.r1)} in (0,1): {unit.star_range_ok}",
        f"random samples: {args.samples} (seed {args.seed}), failures: {len(failures)}",
    ]
    return _report_exit(out, args.format, lines)


def _cmd_verify_lemma6(args) -> int:
    check_cap(args.n, _resolve_cap(args))
    rng = random.Random(args.seed)
    unit = check_lemma6(args.n)
    failures = []
    codes = [inst.code for inst in unit.instances]
    for idx in range(args.samples):
        code = rng.choice(codes)
        rep = check_lemma6(args.n, weights=random_chain_weights(code, rng), code=code)
        if not rep.passed:
            failures.append({"sample": idx, **rep.as_dict()})
    passed = unit.passed and not failures
    out = {
        "check": "lemma6",
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "unit_pass": unit.passed,
        "unit_instances": len(unit.instances),
        "failures": failures,
        "pass": passed,
    }
    lines = [
        f"unit weights: {len(unit.instances)} chains checked, pass: {unit.passed}",
        f"random samples: {args.samples} (seed {args.seed}), failures: {len(failures)}",
    ]
    return _report_exit(out, args.format, lines)


def _cmd_verify_theorem1(args) -> int:
    report = verify_theorem1(args.n, cap=_resolve_cap(args))
    out = {"check": "theorem1", **report.as_dict()}
    lines = [
        f"min class: {' '.join(c.word for c in report.min_codes)}",
        f"non-all-kink minimizers: {' '.join(c.word for c in report.violations) or 'none'}",
    ]
    return _report_exit(out, args.format, lines)


def _cmd_verify_conjecture(args) -> int:
    report = verify_conjecture(args.n, cap=_resolve_cap(args))
    out = {"check": "conjecture", **report.as_dict()}
    lines = [
        f"min kf: {format_rational(report.min_kf)}  class: {' '.join(c.word for c in report.min_codes)}",
        f"max kf: {format_rational(report.max_kf)}  class: {' '.join(c.word for c in report.max_codes)}",
        f"expected min class: {' '.join(c.word for c in report.expected_min)}",
        f"expected max class: {' '.join(c.word for c in report.expected_max)}",
    ]
    return _report_exit(out, args.format, lines)


def _cmd_verify_hexagon(args) -> int:
    report = weighted_hexagon_check(parse_rational(args.r))
    out = {"check": "hexagon", **report.as_dict()}
    lines = [
        f"r: {format_rational(report.r)}",
        f"sum at a: {format_rational(report.sum_a)}",
        f"sum at l: {format_rational(report.sum_l)}",
        f"difference: {format_rational(report.difference)} "
        f"(expected {format_rational(report.expected_difference)})",
    ]
    return _report_exit(out, args.format, lines)


def _cmd_reduce(args) -> int:
    code = _parse_code(args)
    if code.n > MAX_REDUCE_HEXAGONS:
        raise ValueError(f"reduce takes at most {MAX_REDUCE_HEXAGONS} hexagons, got n={code.n}")
    chain = build_chain(code)
    trace = ReductionTrace() if args.trace else None
    reduced = reduce_series_parallel(chain.network, trace=trace)
    if args.format == "json":
        out = {
            "code": {"n": code.n, "w": code.word},
            "kf": format_rational(kf_of_code(code).kf),
            "final_edges": [[e.u, e.v, format_rational(e.r)] for e in reduced.edges],
        }
        if trace is not None:
            out["trace"] = [s.as_dict() for s in trace]
        _emit_json(out)
    else:
        if trace is not None:
            for idx, step in enumerate(trace, start=1):
                _emit(f"step {idx}: {step.describe()}")
        _emit(format_edge_list(reduced).rstrip("\n"))
    return 0


def _cmd_export_dot(args) -> int:
    code = _parse_code(args)
    _emit(chain_to_dot(build_chain(code), name=f"chain_{code.n}_{code.word or 'empty'}"))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenkf",
        description="Exact resistance distances and Kirchhoff indices of phenylene chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json", "csv")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("kf", help="Kirchhoff index of one chain")
    p.add_argument("--code", required=True, help='chain code: "020", "0,2,0", or "n=5 w=020"')
    p.add_argument("--n", type=int, help="hexagon count (needed for empty codes)")
    p.add_argument("--sums", action="store_true", help="include per-vertex resistance sums")
    p.add_argument("--matrix", action="store_true", help="include the full resistance matrix (json)")
    p.add_argument("--approx", action="store_true", help="add approximate decimal rendering")
    add_format(p)
    p.set_defaults(handler=_cmd_kf)

    p = sub.add_parser("enumerate", help="list codes for a hexagon count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--canonical", action="store_true", help="one code per symmetry class")
    add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("extrema", help="exhaustive min/max Kirchhoff classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, help=f"exhaustive code cap (default {DEFAULT_CAP}, env {CAP_ENV})")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=JOBS_HELP)
    p.add_argument("--approx", action="store_true")
    add_format(p)
    p.set_defaults(handler=_cmd_extrema)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("lemma4", help="bridge-swap Kirchhoff difference identity")
    p.add_argument("--samples", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-vertices", type=_int_at_least(2), default=8)
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_lemma4)

    p = vsub.add_parser("lemma5", help="terminal-resistance inequalities, square-first chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(0), default=5, help="random weight assignments")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_lemma5)

    p = vsub.add_parser("lemma6", help="first-hexagon terminal inequalities on chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(0), default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_lemma6)

    p = vsub.add_parser("theorem1", help="all minimizers are all-kink")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=JOBS_HELP)
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_theorem1)

    p = vsub.add_parser("conjecture", help="exact extremal classes by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=JOBS_HELP)
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_conjecture)

    p = vsub.add_parser("hexagon", help="weighted-hexagon vertex-sum difference")
    p.add_argument("--r", required=True, help="positive rational weight, e.g. 1/2")
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_verify_hexagon)

    p = sub.add_parser("reduce", help="greedy series/parallel reduction of a chain")
    p.add_argument("--code", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--trace", action="store_true", help="print every reduction step")
    add_format(p, ("text", "json"))
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("export-dot", help="DOT rendering of a chain")
    p.add_argument("--code", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ChainCodeError, RationalParseError, NetworkError, SearchCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
