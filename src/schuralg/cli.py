"""Command-line front end.

Subcommands:

* ``dim n d``         — B1 count, certified rank, and the counting-oracle value;
* ``basis n d``       — enumerate a basis family (text, json, or csv);
* ``verify n d``      — run a verification suite and report per-relation results;
* ``structconst n d`` — expand one product of B1 elements in the B1 basis;
* ``hecke n d``       — corner-truncation dimension and generation summary.

Exit status: 0 when every requested check passes; 1 when a check fails
(the failing relation ids appear in the report) or a computation fails
mathematically (no expansion in the family, an inexact division, a
generator that does not commute with the Hecke action); 2 on
usage errors or violated hypotheses; 3 when the model would exceed the
word cap.  Any other exception propagates with its traceback.

JSON output is deterministic: keys are sorted, scalars are rendered as
canonical strings, and no timing information is included, so two runs
of the same command produce byte-identical bytes.  Text output may
include wall-clock seconds.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import comb

from .bases import (
    basis_csv,
    basis_json,
    enumerate_basis,
    enumerate_blocks,
    grouped_ranks,
    structure_table_csv,
    structure_table_json,
)
from .errors import (
    BadWeight,
    CertificateError,
    HypothesisError,
    NotDivisible,
    NotInSpan,
    SizeLimit,
)
from .hecke import hecke_summary
from .rootvectors import KINDS, label_key
from .tensormodel import DEFAULT_WORD_CAP, build_model
from .verify import SUITES, suite_reports

__all__ = ["main"]

KIND_MAP = {kind.lower(): kind for kind in KINDS}


def _int_at_least(minimum, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}")
        return value

    parse.__name__ = what
    return parse


def _spec_points(text):
    try:
        parts = tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected two rationals like 7/5,11/7"
        ) from None
    if len(parts) != 2 or parts[0] == parts[1] or 0 in parts:
        raise argparse.ArgumentTypeError(
            "expected two distinct nonzero rationals like 7/5,11/7"
        )
    return parts


def _add_common(sub, formats=("text", "json")):
    sub.add_argument("n", type=_int_at_least(2, "n"), help="matrix size (>= 2)")
    sub.add_argument("d", type=_int_at_least(1, "d"), help="tensor degree (>= 1)")
    sub.add_argument(
        "--quantum",
        action="store_true",
        help="use the quantum model over rational functions of v",
    )
    sub.add_argument(
        "--format",
        choices=formats,
        default="text",
        help="output format (default: text)",
    )
    sub.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    sub.add_argument(
        "--word-cap",
        type=_int_at_least(1, "word-cap"),
        default=None,
        metavar="N",
        help=f"refuse models with more than N words (default {DEFAULT_WORD_CAP})",
    )
    sub.add_argument(
        "--spec-points",
        type=_spec_points,
        default=None,
        metavar="P,Q",
        help="two rational points of v tried first, in order, to certify quantum "
        "ranks (default 7/5,11/7), then 2, 3, ...; a negative P as --spec-points=-1,2",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schuralg",
        description="Exact computations in Schur and q-Schur algebras "
        "realized as operators on tensor space.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    dim = subs.add_parser(
        "dim",
        help="count the B1 family, certify its rank, and compare with "
        "the monomial-counting oracle",
    )
    _add_common(dim)

    basis = subs.add_parser("basis", help="enumerate a basis family")
    _add_common(basis, formats=("text", "json", "csv"))
    basis.add_argument(
        "--kind",
        choices=sorted(KIND_MAP),
        default="b1",
        help="which family to enumerate (default: b1)",
    )
    basis.add_argument(
        "--k0",
        type=_int_at_least(1, "k0"),
        default=None,
        help="omitted Cartan index for --kind pbw (default: n)",
    )

    verify = subs.add_parser("verify", help="run a verification suite")
    _add_common(verify)
    verify.add_argument(
        "--suite",
        choices=SUITES,
        default="all",
        help="which checks to run (default: all)",
    )

    structconst = subs.add_parser(
        "structconst",
        help="expand the product of two B1 elements in the B1 basis",
    )
    _add_common(structconst, formats=("text", "json", "csv"))
    structconst.add_argument(
        "--left",
        type=_int_at_least(0, "left"),
        required=True,
        help="index of the left factor in the B1 enumeration",
    )
    structconst.add_argument(
        "--right",
        type=_int_at_least(0, "right"),
        required=True,
        help="index of the right factor in the B1 enumeration",
    )

    hecke = subs.add_parser(
        "hecke",
        help="corner truncation at the fundamental weight: dimension "
        "and generation checks",
    )
    _add_common(hecke)
    return parser


def _mode(args):
    return "quantum" if args.quantum else "classical"


def _config(args):
    return {"word_cap": args.word_cap, "spec_points": args.spec_points}


def _model(args):
    return build_model(args.n, args.d, mode=_mode(args), **_config(args))


def _cmd_dim(args):
    model = _model(args)
    groups = enumerate_blocks(args.n, args.d, "B1")
    count = sum(len(labels) for blocks in groups.values() for labels in blocks.values())
    rank = sum(grouped_ranks(model, groups).values())
    expected = comb(args.n * args.n - 1 + args.d, args.d)
    ok = count == rank == expected
    payload = {"count": count, "rank": rank, "expected": expected}
    text = f"count={count} rank={rank} expected={expected} {'pass' if ok else 'FAIL'}\n"
    return payload, text, None, ok


def _cmd_basis(args):
    model = _model(args)
    kind = KIND_MAP[args.kind]
    if args.k0 is not None:
        if kind != "PBW":
            raise argparse.ArgumentError(None, "--k0 applies only to --kind pbw")
        if args.k0 > args.n:
            raise argparse.ArgumentError(None, f"k0 must be in [1, {args.n}]")
    labels = enumerate_basis(args.n, args.d, kind, k0=args.k0)
    payload = dict(basis_json(model, labels))
    payload["count"] = len(labels)
    payload["kind"] = kind
    text = "".join(label_key(lab, model.root_data) + "\n" for lab in labels)
    return payload, text, basis_csv(model, labels), True


def _cmd_verify(args):
    reports = suite_reports(
        args.n, args.d, mode=_mode(args), suite=args.suite, **_config(args)
    )
    ok = all(report.passed for report in reports)
    payload = {"suite": args.suite, "reports": [report.to_json() for report in reports]}
    text = "\n".join(report.render_text() for report in reports) + "\n"
    return payload, text, None, ok


def _cmd_structconst(args):
    model = _model(args)
    labels = enumerate_basis(args.n, args.d, "B1")
    for name, index in (("left", args.left), ("right", args.right)):
        if index >= len(labels):
            raise argparse.ArgumentError(
                None,
                f"{name} index {index} out of range: the B1 family for "
                f"(n, d) = ({args.n}, {args.d}) has {len(labels)} elements",
            )
    pairs = [(args.left, args.right)]
    payload = structure_table_json(model, labels, pairs)
    coeffs = payload["triples"][0]["coeffs"]
    lines = [f"B1[{args.left}] * B1[{args.right}]:"]
    if coeffs:
        lines.extend(f"  {key}: {coeffs[key]}" for key in sorted(coeffs))
    else:
        lines.append("  0")
    text = "\n".join(lines) + "\n"
    return payload, text, structure_table_csv(payload), True


def _cmd_hecke(args):
    summary = hecke_summary(_model(args))
    ok = summary["pass"]
    payload = {key: value for key, value in summary.items() if key != "pass"}
    generation = summary["generation"]
    if generation is None:
        gen_text = "generation=n/a"
    else:
        gen_text = (
            f"generation[EF={'pass' if generation['EF'] else 'FAIL'} "
            f"FE={'pass' if generation['FE'] else 'FAIL'}]"
        )
    text = (
        f"omega={''.join(str(p) for p in summary['omega'])} "
        f"dim={summary['dim']} expected={summary['expected']} "
        f"closed={summary['closed_under_product']} {gen_text} "
        f"{'pass' if ok else 'FAIL'}\n"
    )
    return payload, text, None, ok


_HANDLERS = {
    "dim": _cmd_dim,
    "basis": _cmd_basis,
    "verify": _cmd_verify,
    "structconst": _cmd_structconst,
    "hecke": _cmd_hecke,
}


def _envelope(args, payload, ok):
    data = {
        "schema": "1",
        "command": args.command,
        "n": args.n,
        "d": args.d,
        "mode": _mode(args),
        "pass": ok,
    }
    data.update(payload)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, csv, ok = _HANDLERS[args.command](args)
    except SizeLimit as exc:
        print(f"schuralg: error: {exc}", file=sys.stderr)
        return 3
    except (HypothesisError, BadWeight, argparse.ArgumentError) as exc:
        print(f"schuralg: error: {exc}", file=sys.stderr)
        return 2
    except (NotInSpan, NotDivisible, CertificateError) as exc:
        print(f"schuralg: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out = _envelope(args, payload, ok)
    elif args.format == "csv":
        out = csv
    else:
        out = text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
