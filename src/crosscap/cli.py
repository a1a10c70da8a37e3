"""Command-line front end.

One subcommand per deliverable: exact sequence prefixes (``seq``), the
multi-instanton table (``transseries``), the factorization pair (``vpm``),
asymptotic-vs-exact comparisons (``asym``), Richardson transforms
(``richardson``), Stokes-constant estimates (``stokes``), quadrangulation
counts (``quad``), intersection numbers (``intersect``), and the
convergence-plot data (``plotdata``).

Exact values render as strings, never as floats, unless ``--float P`` is
given.  Output is deterministic for fixed arguments.  The environment
variable CROSSCAP_PREC overrides the default working precision (200).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .exactnum import (DEFAULT_DPS, SymbolicConstantError, _nstr,
                       rational_to_float)
from .sequences import intersection_number, p_of_g, t_of_g, u_seq, v_seq
from .transseries import mu_seq, nu_seq, vk_table, vpm_series
from .asymptotics import asym_u, asym_vk, relative_error
from .extrapolation import _rows, estimate_stokes, probe_richardson
from .specgeom import quadrangulation_counts

MIN_DPS = 30


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared, unmodified, after."""
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="exact map-counting sequences and their asymptotics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    common.add_argument("--output", metavar="PATH", default=None)
    # no default: run() reads CROSSCAP_PREC per call, so the cached parser
    # holds no environment
    common.add_argument("--prec", type=_int_at_least(MIN_DPS),
                        help="working precision in decimal digits (default "
                             f"CROSSCAP_PREC or {DEFAULT_DPS}, min {MIN_DPS})")

    p = sub.add_parser("seq", parents=[common],
                       help="exact sequence prefix")
    p.add_argument("name", choices=("u", "v", "t", "p", "mu", "nu"))
    p.add_argument("--n", type=_int_at_least(0), required=True,
                   help="last index (for p: twice the surface type)")
    p.add_argument("--float", dest="float_dps", type=_int_at_least(MIN_DPS),
                   metavar="P", help="also render values at P digits")

    p = sub.add_parser("transseries", parents=[common],
                       help="multi-instanton table v[n,k]")
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)

    p = sub.add_parser("vpm", parents=[common],
                       help="factorization series v_plus / v_minus")
    p.add_argument("--order", type=_int_at_least(1), required=True)

    p = sub.add_parser("asym", parents=[common],
                       help="asymptotic value vs exact")
    p.add_argument("name", choices=("u", "v", "vk"))
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--trunc", type=_int_at_least(0), required=True)
    p.add_argument("--k", type=_int_at_least(0),
                   help="sector (vk only, required there)")

    p = sub.add_parser("richardson", parents=[common],
                       help="Richardson transform of the s or r sequence")
    p.add_argument("--target", choices=("s", "r"), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--order", type=_int_at_least(0), required=True)

    p = sub.add_parser("stokes", parents=[common],
                       help="Stokes constant estimate with digit match")
    p.add_argument("--which", choices=("sprime", "sminus1"), required=True)
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p.add_argument("--order", type=_int_at_least(0), default=None)

    p = sub.add_parser("quad", parents=[common],
                       help="rooted quadrangulation counts of RP^2")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--plain", action="store_true",
                   help="one integer per line")

    p = sub.add_parser("intersect", parents=[common],
                       help="psi-class intersection number")
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser("plotdata", parents=[common],
                       help="convergence-plot data (CSV)")
    p.add_argument("name", choices=("unorquot", "firstcorr"))
    p.add_argument("--nmax", type=_int_at_least(1), default=250)

    for p in sub.choices.values():
        p.set_defaults(subparser=p)  # reports a bad CROSSCAP_PREC in run()
    return parser


def _csv_text(header, rows) -> str:
    """The bytes ``csv.writer(QUOTE_NONNUMERIC, lineterminator="\\n")``
    writes: an int field bare, any other quoted, each double quote doubled."""
    return "".join([
        ",".join([str(x) if isinstance(x, int)
                  else '"' + str(x).replace('"', '""') + '"' for x in row])
        + "\n" for row in (header, *rows)])


def _tab_lines(rows) -> list[str]:
    return ["\t".join(map(str, row)) for row in rows]


def _emit(args, header, rows, values=None, lines=None, precision=None,
          params=None):
    """Write one response in ``args.format``, building only that format.

    ``rows`` are the CSV rows below ``header``; ``lines`` the table lines,
    by default the rows joined by tabs; ``values`` the JSON values, by
    default the rows.  ``rows`` and ``lines`` may be lazy: only the format
    written consumes them.
    """
    fmt = args.format
    if fmt == "json":
        doc = {"command": args.command, "params": params or {},
               "precision": precision,
               "values": list(rows) if values is None else values}
        text = json.dumps(doc, ensure_ascii=False) + "\n"
    elif fmt == "csv":
        text = _csv_text(header, rows)
    else:
        text = "\n".join(_tab_lines(rows) if lines is None else lines) + "\n"
        if precision is not None:
            text = f"# precision: {precision}\n" + text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_seq(args, dps: int) -> None:
    name, n = args.name, args.n
    fdps = args.float_dps
    if name == "t":
        xs = [t_of_g(g) for g in range(n + 1)]
    elif name == "p":
        xs = [p_of_g(twog) for twog in range(1, n + 1)]
    else:
        xs = {"u": u_seq, "v": v_seq, "mu": mu_seq, "nu": nu_seq}[name](n)

    def flt(x) -> str:
        try:
            return _nstr(x.to_float(fdps) if hasattr(x, "to_float")
                         else rational_to_float(x, fdps), fdps)
        except SymbolicConstantError:
            return ""

    index = range(1, n + 1) if name == "p" else range(n + 1)
    exact = [str(x) for x in xs]
    params = {"name": name, "n": n}
    if fdps:
        floats = [flt(x) for x in xs]
        _emit(args, ["index", "exact", f"float[dps={fdps}]"],
              zip(index, exact, floats), {"exact": exact, "floats": floats},
              precision=fdps, params=params)
    else:
        _emit(args, ["index", "exact"], zip(index, exact), exact,
              params=params)


def _cmd_transseries(args, dps: int) -> None:
    table = vk_table(args.n, args.k)
    values = [[str(x) for x in table.row(k)] for k in range(args.k + 1)]
    _emit(args, ["k", "n", "exact"],
          ((k, n, s) for k, row in enumerate(values)
           for n, s in enumerate(row)),
          values,
          (f"k={k}\t" + "\t".join(row) for k, row in enumerate(values)),
          params={"k": args.k, "n": args.n})


def _cmd_vpm(args, dps: int) -> None:
    plus, minus = vpm_series(args.order)
    p_coeffs = [str(plus.coefficient(e)) for e in range(args.order + 1)]
    m_coeffs = [str(minus.coefficient(e)) for e in range(args.order + 1)]
    _emit(args, ["series", "exponent", "exact"],
          ((name, e, c) for name, coeffs in (("plus", p_coeffs),
                                              ("minus", m_coeffs))
           for e, c in enumerate(coeffs)),
          {"plus": p_coeffs, "minus": m_coeffs},
          ("v_plus:\t" + "\t".join(p_coeffs),
           "v_minus:\t" + "\t".join(m_coeffs)),
          params={"order": args.order})


def _cmd_asym(args, dps: int) -> None:
    n, L = args.n, args.trunc
    if args.name == "u":
        approx = asym_u(n, L, dps)
        exact = u_seq(n)[n]
    else:
        k = args.k if args.name == "vk" else 0
        approx = asym_vk(k, n, L, dps)
        exact = vk_table(n, k).value(n, k)
    err = relative_error(approx, exact, dps)
    row = (n, L, str(exact), _nstr(approx, dps), _nstr(err, 10))
    keys = ("exact", "asym", "rel_error")
    _emit(args, ["n", "trunc", "exact", f"asym[dps={dps}]", "rel_error"],
          [row], dict(zip(keys, row[2:])),
          (f"{key}\t{text}" for key, text in zip(keys, row[2:])),
          precision=dps,
          params={"name": args.name, "n": n, "trunc": L, "k": args.k})


def _cmd_richardson(args, dps: int) -> None:
    result = probe_richardson(args.target, args.order, args.n, dps)
    text = _nstr(result.value, dps)
    _emit(args, ["n", "order", f"value[dps={dps}]"],
          [(args.n, args.order, text)], [text], [text], precision=dps,
          params={"target": args.target, "n": args.n, "order": args.order})


def _cmd_stokes(args, dps: int) -> None:
    n = args.n if args.n is not None else (250 if args.which == "sprime" else 100)
    order = args.order if args.order is not None else (30 if args.which == "sprime" else 10)
    est = estimate_stokes(args.which, n, order, dps)
    target_name = "sqrt(6)" if args.which == "sprime" else "-sqrt(6)/12"
    value = _nstr(est.value, dps)
    _emit(args,
          ["which", "n", "order", f"estimate[dps={dps}]", "matched_digits"],
          [(args.which, n, order, value, est.digits)],
          {"estimate": value, "matched_digits": est.digits,
           "target": target_name},
          (f"estimate\t{value}",
           f"matched {est.digits} digits of {target_name}"),
          precision=dps,
          params={"which": args.which, "n": n, "order": order})


def _cmd_quad(args, dps: int) -> None:
    counts = quadrangulation_counts(args.n)
    lines = map(str, counts) if args.plain else [" ".join(map(str, counts))]
    _emit(args, ["n", "count"], enumerate(counts, start=1), counts, lines,
          params={"n": args.n})


def _cmd_intersect(args, dps: int) -> None:
    text = str(intersection_number(args.g))
    _emit(args, ["g", "exact"], [(args.g, text)], [text], [text],
          params={"g": args.g})


def _cmd_plotdata(args, dps: int) -> None:
    which = "s" if args.name == "unorquot" else "r"
    orders = (0, 1, 5)
    columns = [_rows(which, N, dps).upto(args.nmax - 1) for N in orders]
    _emit(args, ["n"] + [f"{which}{N}[dps={dps}]" for N in orders],
          zip(range(1, args.nmax + 1), *columns), precision=dps,
          params={"name": args.name, "nmax": args.nmax})


_HANDLERS = {
    "seq": _cmd_seq,
    "transseries": _cmd_transseries,
    "vpm": _cmd_vpm,
    "asym": _cmd_asym,
    "richardson": _cmd_richardson,
    "stokes": _cmd_stokes,
    "quad": _cmd_quad,
    "intersect": _cmd_intersect,
    "plotdata": _cmd_plotdata,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "seq" and args.name == "p" and args.n < 1:
            args.subparser.error("argument --n: must be at least 1 for p")
        if args.command == "asym" and args.name == "vk" and args.k is None:
            args.subparser.error("argument --k: required for vk")
        if args.command == "asym" and args.name != "vk" and args.k is not None:
            args.subparser.error("argument --k: only for vk")
        if args.prec is None:
            env = os.environ.get("CROSSCAP_PREC", str(DEFAULT_DPS))
            try:
                args.prec = _int_at_least(MIN_DPS)(env)
            except argparse.ArgumentTypeError as exc:
                args.subparser.error(f"argument --prec: {exc}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact values are printed whole, however many digits they have
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _HANDLERS[args.command](args, args.prec)
    except (ValueError, OSError) as exc:  # domain errors and --output
        sys.stderr.write(f"crosscap: {exc}\n")
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
