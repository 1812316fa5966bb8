"""Command line front end.

Five subcommands: ``enumerate``, ``multiply``, ``act``, ``commutant``
and ``verify``.  All output is deterministic; JSON reports carry
``schema_version`` 1 and the ``verify`` report validates against the
shipped ``schemas/verify.schema.json``.  Diagnostics go to stderr.
Exit codes: 0 on success (for ``verify``: all checks match), 1 when a
verification check fails, 2 on usage, notation or size-guard errors and
when ``--out`` cannot be written, and ``EXIT_BROKEN_PIPE`` (141, what a
shell reports for a writer that SIGPIPE stops), quietly, when stdout is
closed before the report is written, as by ``| head -1``.
Any other exception is a bug and propagates.
"""

import argparse
import json
import os
import sys

from .diagrams import HatElement, SizeGuardError, is_dual_element
from .dualities import DualityCell, run_grid
from .morphisms import DeformationCell
from .notation import NotationError, parse_element
from .semigroups import (
    bullet_multiply,
    family,
    multiply_composition,
    multiply_istar,
    multiply_pistar,
    star_multiply,
)
from .tensor_actions import ActionSpace, action_matrix

EXIT_BROKEN_PIPE = 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookdual",
        description="Exact computations with partial injections, dual "
        "diagram semigroups, and their tensor actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument(
        "--unsafe-no-guards",
        action="store_true",
        dest="unguarded",
        help="disable the enumeration and dimension size guards",
    )

    p = sub.add_parser("enumerate", parents=[common], help="list all elements of a family")
    p.add_argument("--semigroup", choices=("is", "istar", "pistar"), required=True)
    p.add_argument("--n", type=int, help="ground set size (family is)")
    p.add_argument("--k", type=int, help="boundary size (families istar, pistar)")

    p = sub.add_parser("multiply", parents=[common], help="multiply two elements")
    p.add_argument(
        "--semigroup",
        choices=("is", "istar", "pistar", "hat", "tilde", "composition"),
        required=True,
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("act", parents=[common], help="print one exact action matrix")
    p.add_argument("--space", choices=("V", "U"), required=True)
    p.add_argument("--variant", choices=("plain", "hat", "tilde"), default="plain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rook", action="store_true", help="element is a partial injection")
    p.add_argument("element")

    p = sub.add_parser("commutant", parents=[common], help="commutant of one action")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--space", choices=("V", "U"), required=True)
    p.add_argument("--side", choices=("left-is", "right-istar", "right-pistar"), required=True)
    p.add_argument("--basis", action="store_true", help="also print the basis matrices")

    p = sub.add_parser("verify", parents=[common], help="run the verification suites")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--thm1", action="store_true", help="tensor-power duality grid")
    mode.add_argument("--thm2", action="store_true", help="augmented-space duality grid")
    mode.add_argument("--props", action="store_true", help="deformation morphism checks")
    mode.add_argument("--all", action="store_true", help="both grids plus morphism checks")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--n", type=int, help="props mode ground set size (default --k)")
    p.add_argument("--k", type=int, help="props mode boundary size (default 2)")

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        print(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _require(parser_msg: str, condition: bool):
    if not condition:
        raise UsageError(parser_msg)


class UsageError(ValueError):
    pass


def _coordinate_lines(entries) -> list:
    return [f"{r} {c} {v}" for (r, c), v in entries]


def _coordinate_triplets(entries) -> list:
    return [[r, c, str(v)] for (r, c), v in entries]


def _ambient(args) -> int:
    """The --n of --semigroup is, else the --k every other family needs."""
    if args.semigroup == "is":
        _require("--n is required for --semigroup is", args.n is not None)
        return args.n
    _require("--k is required for this family", args.k is not None)
    return args.k


def _cmd_enumerate(args) -> tuple:
    size = _ambient(args)
    elements = family(args.semigroup, size, args.unguarded)
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "family": args.semigroup,
            "n" if args.semigroup == "is" else "k": size,
            "count": len(elements),
            "elements": [str(e) for e in elements],
        }
        return _json(payload), 0
    return "\n".join(str(e) for e in elements), 0


def _cmd_multiply(args) -> tuple:
    name, ambient = args.semigroup, _ambient(args)
    lhs = parse_element(args.lhs, name, ambient)
    rhs = parse_element(args.rhs, name, ambient)
    garbage = None
    if name == "is":
        result = lhs * rhs
    elif name == "istar":
        result = multiply_istar(lhs, rhs)
    elif name == "pistar":
        result = multiply_pistar(lhs, rhs)
    elif name == "hat":
        result = star_multiply(lhs, rhs)
    elif name == "tilde":
        result = bullet_multiply(lhs, rhs)
    else:
        outcome = multiply_composition(lhs, rhs)
        result, garbage = outcome.diagram, outcome.garbage_count
    if args.format == "json":
        payload = {"schema_version": 1, "family": name, "result": str(result)}
        if garbage is not None:
            payload["garbage"] = garbage
        return _json(payload), 0
    lines = [str(result)]
    if garbage is not None:
        lines.append(f"garbage={garbage}")
    return "\n".join(lines), 0


def _cmd_act(args) -> tuple:
    space = ActionSpace(args.space, args.n, args.k)
    if args.rook:
        _require("--rook supports only --variant plain", args.variant == "plain")
        element = parse_element(args.element, "is", args.n)
    elif args.variant == "hat":
        element = parse_element(args.element, "hat", args.k)
        dual = args.space == "U" or element.diagram is None or is_dual_element(element.diagram)
        _require("the hat action on V^k needs a dual element or 0", dual)
    elif args.space == "V":
        _require("--space V supports only --variant plain or hat", args.variant != "tilde")
        element = parse_element(args.element, "composition", args.k)
    else:
        element = parse_element(args.element, "pistar", args.k)
    matrix = action_matrix(element, space, args.variant, args.unguarded)
    entries = sorted(matrix.items())
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "rows": space.dimension,
            "cols": space.dimension,
            "entries": _coordinate_triplets(entries),
        }
        return _json(payload), 0
    return "\n".join(_coordinate_lines(entries)), 0


def _cmd_commutant(args) -> tuple:
    _require(
        "--space V pairs with --side left-is or right-istar",
        not (args.space == "V" and args.side == "right-pistar"),
    )
    _require(
        "--space U pairs with --side left-is or right-pistar",
        not (args.space == "U" and args.side == "right-istar"),
    )
    cell = DualityCell(args.n, args.k, args.space, args.unguarded)
    classes = cell.commutant("left" if args.side == "left-is" else "right")
    d = cell.space.dimension
    basis = [[(divmod(x, d), 1) for x in members] for members in classes]
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "dimension": len(basis),
            "basis": [_coordinate_triplets(m) for m in basis] if args.basis else None,
        }
        return _json(payload), 0
    lines = [f"dimension={len(basis)}"]
    if args.basis:
        for m in basis:
            lines.append("")
            lines.extend(_coordinate_lines(m))
    return "\n".join(lines), 0


def _props_reports(n: int, k: int, unguarded: bool) -> list:
    cell = DeformationCell(k, unguarded)
    return [
        cell.homomorphism("coarsening_sum").to_json_dict(),
        cell.homomorphism("block_subset_sum").to_json_dict(),
        {**cell.hat_consistency(n).to_json_dict(), "n": n},
        {**cell.tilde_factorization(n).to_json_dict(), "n": n},
    ]


def _duality_text(report_dict) -> str:
    return (
        f"{report_dict['space']} n={report_dict['n']} k={report_dict['k']}"
        f" commute={'ok' if report_dict['commute_ok'] else 'FAIL'}"
        f" centralizer=({','.join(map(str, report_dict['centralizer_dims']))})"
        f" match={'yes' if report_dict['match'] else 'NO'}"
    )


def _morphism_text(report_dict) -> str:
    where = f"k={report_dict['k']}"
    if "n" in report_dict:
        where = f"n={report_dict['n']} {where}"
    return (
        f"{report_dict['map_name']} {where}"
        f" pairs={report_dict['pairs_checked']}"
        f" homomorphism={'ok' if report_dict['homomorphism_ok'] else 'FAIL'}"
        f" inverse={'ok' if report_dict['inverse_ok'] else 'FAIL'}"
    )


def _cmd_verify(args) -> tuple:
    if args.thm1 or args.thm2:
        _require(
            "--n and --k apply only to --props and --all",
            args.n is None and args.k is None,
        )
    if args.props:
        _require(
            "--max-n and --max-k apply only to --thm1, --thm2 and --all",
            args.max_n is None and args.max_k is None,
        )
    if args.thm1:
        mode, spaces, with_props = "thm1", ("V",), False
    elif args.thm2:
        mode, spaces, with_props = "thm2", ("U",), False
    elif args.props:
        mode, spaces, with_props = "props", (), True
    else:
        mode, spaces, with_props = "all", ("V", "U"), True

    duality = [
        r.to_json_dict()
        for r in run_grid(spaces=spaces, max_n=args.max_n, max_k=args.max_k)
    ] if spaces else []
    k = args.k or 2
    n = args.n or k  # at n = k the support sums read every term (hat_consistency)
    morphisms = _props_reports(n, k, args.unguarded) if with_props else []

    all_match = all(r["match"] for r in duality) and all(
        r["homomorphism_ok"] and r["inverse_ok"] for r in morphisms
    )
    payload = {
        "schema_version": 1,
        "mode": mode,
        "all_match": all_match,
        "duality": duality,
        "morphisms": morphisms,
    }
    if args.format == "json":
        text = _json(payload)
    else:
        lines = [_duality_text(r) for r in duality]
        lines += [_morphism_text(r) for r in morphisms]
        lines.append(f"all_match={'true' if all_match else 'false'}")
        text = "\n".join(lines)
    return text, 0 if all_match else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "multiply": _cmd_multiply,
        "act": _cmd_act,
        "commutant": _cmd_commutant,
        "verify": _cmd_verify,
    }
    try:
        for name in ("n", "k", "max_n", "max_k"):
            value = getattr(args, name, None)
            flag = "--" + name.replace("_", "-")
            _require(f"{flag} must be a positive integer", value is None or value > 0)
        text, code = handlers[args.command](args)
        _emit(text, args.out)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (SizeGuardError, UsageError, NotationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader stopped; what is left buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
