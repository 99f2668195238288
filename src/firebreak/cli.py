"""Command-line entry point: construct, simulate, maxima, check, oracle, optimize.

Exit codes: 0 success / PASS, 1 FAIL (speed violation or oracle tolerance
exceeded), 2 usage error: a bad argument or document, or an OS error on a
path.  Relative output paths are resolved against $FIREBREAK_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import constructions, model, optimize, simulate
from .model import approx

OUTDIR_ENV = "FIREBREAK_OUTDIR"


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    _out_path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _fits_float(x) -> bool:
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _horizon(args, system):
    """``--horizon`` as a system number, or None; past the valid horizon only with ``--truncated``."""
    if args.horizon is None:
        return None
    horizon = system.number(args.horizon)
    bound = simulate.valid_horizon(system)
    if not args.truncated and bound is not None and horizon > bound:
        raise ValueError(
            f"horizon {approx(horizon)} exceeds the valid horizon {approx(bound)}; "
            "pass --truncated to run the truncated system anyway"
        )
    return horizon


def _check_cycles(head_start, cycles: int) -> None:
    """Refuse, before building, 17/9 cycles whose longest length ``str`` cannot write.

    That is the last left height, ``34 p 16^(cycles - 1)`` over the head
    start's denominator (``p`` its numerator); 0 digits means no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    p = model.coerce_length(head_start, model.RATIONAL).numerator
    if limit and p > 0:
        most = (((10**limit - 1) // (34 * p)).bit_length() - 1) // 4 + 1
        if cycles > most:
            raise ValueError(
                f"--cycles {cycles} makes numbers of more than {limit} digits, too long to "
                f"write; the largest cycle count at this head start is {most}"
            )


def cmd_construct(args) -> int:
    kind = args.type
    if kind == "flat":
        system = constructions.build_flat(args.headstart)
    elif kind == "seventeen-ninths":
        _check_cycles(args.headstart, args.cycles)
        system = constructions.build_seventeen_ninths(args.headstart, cycles=args.cycles)
    else:  # improved; argparse restricts the choices
        params = constructions.InterlacingParams(
            beta=args.beta,
            delta=args.delta,
            cycles=args.cycles,
            head_start="auto" if args.headstart is None else args.headstart,
        )
        system = constructions.build_improved(params)
    model.save(system, _out_path(args.out))
    print(f"wrote {args.out} ({kind}, mode={system.mode})")
    return 0


def cmd_simulate(args) -> int:
    system = model.load(args.system)
    curves = simulate.consumption_curve(system, _horizon(args, system), truncated=args.truncated)
    if args.curve_out:
        try:
            text = simulate.curve_to_csv(curves)
        except OverflowError:
            t = next(t for t, v in curves.total.points if not (_fits_float(t) and _fits_float(v)))
            raise ValueError(
                f"curve CSV rows are floats, and the row at t={approx(t)} overflows "
                "them; use --intervals-out for exact output"
            ) from None
        _out_path(args.curve_out).write_text(text, encoding="utf-8")
        print(f"wrote {args.curve_out}")
    if args.intervals_out:
        _write_json(args.intervals_out, simulate.intervals_to_document(curves, system.mode))
        print(f"wrote {args.intervals_out}")
    end = curves.total.end
    print(f"simulated to t={approx(end)}; B(end)={approx(curves.total.value_at(end))}")
    return 0


def cmd_maxima(args) -> int:
    system = model.load(args.system)
    _, report = simulate.ratio_report(system, _horizon(args, system), truncated=args.truncated)
    if args.out:
        _write_json(args.out, simulate.report_to_document(report, system.mode))
        print(f"wrote {args.out}")
    print(f"local maxima: {len(report.local_maxima)}")
    for t, q in report.local_maxima:  # Q = B/t is at most the largest slope: float holds it
        print(f"  t={approx(t)}  Q={float(q):.9f}")
    print(f"sup Q = {float(report.supremum):.9f} at t={approx(report.sup_time)}")
    return 0


def cmd_check(args) -> int:
    system = model.load(args.system)
    speed = system.number(args.speed)
    verdict = simulate.check_speed(system, speed, _horizon(args, system), truncated=args.truncated)
    if args.out:
        _write_json(
            args.out,
            {
                "speed": model.render_number(verdict.speed, system.mode),
                "horizon": model.render_number(verdict.horizon, system.mode),
                "feasible": verdict.feasible,
                "earliest_violation": model.render_number(verdict.earliest_violation, system.mode),
            },
        )
    if verdict.feasible:
        print(f"PASS: B(t) <= {args.speed} * t up to t={approx(verdict.horizon)}")
        return 0
    print(f"FAIL: earliest violation at t={approx(verdict.earliest_violation)}")
    return 1


def cmd_oracle(args) -> int:
    from . import oracle  # the only command that needs numpy

    system = model.load(args.system)
    # the grid checks the truncated system itself, so any horizon is allowed
    horizon = simulate.valid_horizon(system) if args.horizon is None else system.number(args.horizon)
    if horizon is None:
        raise ValueError("specify --horizon for systems without verticals")
    if not _fits_float(horizon):
        raise ValueError(f"horizon {approx(horizon)} is past the float range of the grid")
    exact = simulate.consumption_curve(system, horizon, truncated=True)
    sampled = oracle.grid_consumption(system, args.cell, float(horizon))
    tolerance = oracle.consumption_tolerance(system, args.cell)
    result = oracle.compare(exact.total, sampled, tolerance)
    if args.out:
        _write_json(args.out, dataclasses.asdict(result))
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max deviation {result.max_deviation:g} at t={result.at_time:g} "
        f"(tolerance {result.tolerance:g})"
    )
    return 0 if result.passed else 1


def cmd_optimize(args) -> int:
    opt = optimize.optimize_beta() if args.scheme == "beta" else optimize.optimize_beta_delta()
    payload = optimize.optimum_to_document(opt)
    if args.out:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firebreak",
        description="Fire containment in the L1 upper half-plane: exact "
        "consumption curves for horizontal barriers with vertical delaying segments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a barrier-system document")
    p.add_argument("--type", required=True, choices=("flat", "seventeen-ninths", "improved"))
    p.add_argument("--headstart", default=None, help="head-start length (improved: rescale target)")
    p.add_argument("--cycles", type=int, default=8)
    p.add_argument("--beta", type=float, default=None, help="improved: growth factor")
    p.add_argument("--delta", type=float, default=None, help="improved: shift factor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="consumption curve CSV and k-interval JSON")
    p.add_argument("--system", required=True)
    p.add_argument("--horizon", default=None)
    p.add_argument("--truncated", action="store_true", help="allow horizons beyond the valid horizon")
    p.add_argument("--curve-out", default=None)
    p.add_argument("--intervals-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("maxima", help="local maxima and supremum of Q(t) = B(t)/t")
    p.add_argument("--system", required=True)
    p.add_argument("--horizon", default=None)
    p.add_argument("--truncated", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_maxima)

    p = sub.add_parser("check", help="feasibility of a build speed: B(t) <= v*t")
    p.add_argument("--system", required=True)
    p.add_argument("--speed", required=True)
    p.add_argument("--horizon", default=None)
    p.add_argument("--truncated", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="compare the exact curve against the grid BFS oracle")
    p.add_argument("--system", required=True)
    p.add_argument("--cell", type=float, required=True)
    p.add_argument("--horizon", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("optimize", help="reproduce the optimal scheme parameters")
    p.add_argument("--scheme", required=True, choices=("beta", "beta-delta"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct" and args.type != "improved" and args.headstart is None:
        parser.error("--headstart is required for flat and seventeen-ninths constructions")  # exits 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ValidationError and DocumentError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
