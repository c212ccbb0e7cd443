"""Batch command line: diagnose, separate, verify, quantile, twosided.

Scenario indices are 1-based on the command line and in reports; exact
rationals are printed as integers or fractions, never decimals.  Exit codes:
0 success (or: hull family sufficient), 1 unreadable/unparsable input or an
unwritable output file, 2 invalid input data, 3 insufficient instance
(diagnose) or missing witness, 4 a certified check failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import aggregated as agg
from . import hull
from . import mixing
from . import twosided as ts
from . import vertices
from .core import (
    LinearCut,
    MixcutsError,
    MixingInstance,
    SequenceTheta,
    ValidationError,
    check_work,
    format_rational,
    load_instance,
    loads_point,
    parse_rational,
    read_text,
    serialize_instance,
    write_text,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INSUFFICIENT = 3
EXIT_CHECK_FAILED = 4


def _fmt_set(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(indices)) + "}"


def _print_cuts(cuts: Sequence[tuple[Fraction, LinearCut]]) -> None:
    ordered = sorted(cuts, key=lambda vc: (-vc[0], vc[1].canonical_key()))
    for violation, cut in ordered:
        print(str(cut))


def _reduced_instance(path: str) -> MixingInstance:
    reduced, shift = mixing.reduce_lower_bounds(load_instance(path))
    if any(shift):
        print(f"note: lower bounds {tuple(map(format_rational, shift))} reduced away")
    return reduced


def cmd_diagnose(args) -> int:
    diag = agg.diagnose(_reduced_instance(args.instance))
    lw = "inf" if diag.l_w_eps is None else format_rational(diag.l_w_eps)
    if diag.sufficient:
        print(f"sufficient: yes; L_W(eps)={lw}; I_bar={_fmt_set(diag.i_bar)}")
    elif not diag.c1_ok:
        print("sufficient: no (C1 violated)")
    elif not diag.c2_ok:
        print("sufficient: no (C2 violated)")
    else:
        print("sufficient: no (eps > L_W(eps))")
    print(f"I_bar={_fmt_set(diag.i_bar)}")
    print(f"C1={'ok' if diag.c1_ok else 'violated'}")
    print(f"C2={'ok' if diag.c2_ok else 'violated'}")
    print(f"negligible={'yes' if diag.negligible else 'no'}")
    print(f"L_W(eps)={lw}")
    print(f"g_submodular={'yes' if diag.g_submodular else 'no'}")
    return EXIT_OK if diag.sufficient else EXIT_INSUFFICIENT


def cmd_separate(args) -> int:
    inst = load_instance(args.instance)
    y, z = loads_point(read_text(args.point), inst.k, inst.n)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    _print_cuts(agg.separate(inst, y, z, families))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    reduced = _reduced_instance(args.instance)

    if args.mode == "witness" and agg.diagnose(reduced).sufficient:
        print("instance is sufficient; no witness point exists")
        return EXIT_INSUFFICIENT
    if args.mode != "validity":
        report = hull.check_sufficiency(reduced, samples=args.samples, seed=args.seed)
        if args.mode == "sufficiency":
            print(report.to_json())
        else:
            y, z = report.witness
            print(f"case: {report.witness_case}")
            print("y = (" + ", ".join(format_rational(v) for v in y) + ")")
            print("z = (" + ", ".join(format_rational(v) for v in z) + ")")
            for msg in report.witness_assertions:
                print(msg)
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED

    # validity mode: every mixing and aggregated cut at every column of the
    # vertex list, or exit 2 before either is built.  Counted from n and k:
    # at most 2^n - 1 chains per column, and k points per mask plus k rays.
    n, k = reduced.n, reduced.k
    cuts = k * ((1 << n) - 1) + agg.count_sequences(n)
    columns = k * ((1 << n) + 1)
    check_work(cuts * columns, f"cut checks ({cuts} cuts, {columns} columns at most)")
    vrep = vertices.v_representation(reduced)
    checked = 0
    bad = 0
    for j in range(k):
        for cut in mixing.all_mixing_cuts(reduced, j):
            checked += 1
            if not vertices.check_validity(reduced, cut, vrep):
                bad += 1
                print(f"INVALID {cut}")
    for theta in agg.sequences(range(n)):
        cut = agg.aggregated_cut(reduced, theta)
        checked += 1
        if not vertices.check_validity(reduced, cut, vrep):
            bad += 1
            print(f"INVALID {cut} (sequence {tuple(i + 1 for i in theta.indices)})")
    print(f"checked {checked} cuts: {checked - bad} valid, {bad} invalid")
    return EXIT_OK if bad == 0 else EXIT_CHECK_FAILED


def cmd_quantile(args) -> int:
    inst = load_instance(args.instance)
    if inst.probabilities is None:
        print("error: instance has no scenario probabilities", file=sys.stderr)
        return EXIT_INVALID
    bounds = mixing.quantile_lower_bounds(inst, parse_rational(args.risk))
    lifted = MixingInstance(
        inst.weights, bounds, inst.epsilon, inst.probabilities
    )
    reduced, _ = mixing.reduce_lower_bounds(lifted)
    if args.output:
        write_text(args.output, serialize_instance(reduced))
    print("l = (" + ", ".join(format_rational(v) for v in bounds) + ")")
    if args.output:
        print(f"reduced instance written to {args.output}")
    else:
        print(serialize_instance(reduced), end="")
    return EXIT_OK


def _parse_theta(text: str, n: int) -> SequenceTheta:
    """A 1-based comma-separated ``--theta`` over the ground set 1..n, as a
    0-based sequence."""
    try:
        indices = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"--theta must be comma-separated integers, got {text!r}"
        ) from None
    outside = [i for i in indices if not 1 <= i <= n]
    if outside:
        raise ValidationError(f"--theta indices {outside} outside 1..{n}")
    if len(set(indices)) != len(indices):
        raise ValidationError(f"--theta repeats an index: {text}")
    return SequenceTheta(i - 1 for i in indices)


def cmd_twosided(args) -> int:
    data = ts.loads_twosided(read_text(args.data))
    theta = _parse_theta(args.theta, data.n) if args.theta else None
    inst = ts.to_mixing(data)
    diag = agg.diagnose(inst)
    print(
        f"instance: n={data.n}, k=2, eps={format_rational(data.u_a)}; "
        f"g_submodular={'yes' if diag.g_submodular else 'no'}"
    )
    if theta is not None:
        primed, original = ts.generalized_cut(data, theta)
        print(f"transformed: {primed}")
        print(f"original:    {original}")
    else:
        report = ts.hull_with_bounds(data)
        print("band_ok=yes")  # hull_with_bounds raises where the band fails
        print(f"extreme_points={report.point_count}")
        print(f"cuts={report.cut_count}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mixcuts",
        description="Exact cuts and hull checks for joint mixing sets "
        "with a linking constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="hull sufficiency diagnosis")
    p.add_argument("instance")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("separate", help="most violated cuts at a point")
    p.add_argument("instance")
    p.add_argument("point")
    p.add_argument("--families", default="mix,amix")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="certified hull checks")
    p.add_argument("instance")
    p.add_argument(
        "--mode", choices=["sufficiency", "witness", "validity"], default="sufficiency"
    )
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quantile", help="probability quantile lower bounds")
    p.add_argument("instance")
    p.add_argument("--risk", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("twosided", help="two-sided data pipeline")
    p.add_argument("data")
    p.add_argument("--theta", help="1-based comma-separated sequence")
    p.set_defaults(func=cmd_twosided)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MixcutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
