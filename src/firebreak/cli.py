"""Command-line entry point: construct, simulate, maxima, check, oracle, optimize.

Exit codes: 0 success / PASS, 1 FAIL (speed violation or oracle tolerance
exceeded), 2 usage error.  Relative output paths are resolved against
$FIREBREAK_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import constructions, model, optimize, simulate

OUTDIR_ENV = "FIREBREAK_OUTDIR"


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(_out_path(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _approx(x) -> str:
    """``x`` as ``%g`` prints it, also past the float range (``1.23457e+400``).

    A float prints as it is; any other number is rounded exactly to six
    significant digits, ties to even, without going through float.
    """
    if isinstance(x, float):
        return f"{x:g}"
    if not x:
        return "0"
    sign, x = "-" if x < 0 else "", abs(Fraction(x))
    exp = len(str(x.numerator)) - len(str(x.denominator))  # floor(log10 x) or one more
    if x < Fraction(10) ** exp:
        exp -= 1
    digits = round(x / Fraction(10) ** (exp - 5))
    if digits == 10**6:
        digits, exp = 10**5, exp + 1
    text = str(digits)
    if -4 <= exp < 6:
        text = "0" * -exp + text if exp < 0 else text
        point = max(exp, 0) + 1
        return sign + (text[:point] + "." + text[point:]).rstrip("0").rstrip(".")
    return f"{sign}{(text[0] + '.' + text[1:]).rstrip('0').rstrip('.')}e{exp:+03d}"


def _fits_float(x) -> bool:
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _parse_speed(raw: str, system: model.BarrierSystem):
    """``raw`` as a number of the system's type; float mode also takes ``p/q``."""
    if system.mode == model.FLOAT:
        try:
            raw = float(raw)
        except ValueError:
            raw = Fraction(raw)
    return system.number(raw)


def _horizon(args, system):
    """``--horizon`` as a system number, or None; past the valid horizon only with ``--truncated``."""
    if args.horizon is None:
        return None
    horizon = _parse_speed(args.horizon, system)
    bound = simulate.valid_horizon(system)
    if not args.truncated and bound is not None and horizon > bound:
        raise ValueError(
            f"horizon {horizon} exceeds the valid horizon {bound}; "
            "pass --truncated to run the truncated system anyway"
        )
    return horizon


def cmd_construct(args) -> int:
    kind = args.type
    if kind == "flat":
        system = constructions.build_flat(args.headstart)
    elif kind == "seventeen-ninths":
        system = constructions.build_seventeen_ninths(args.headstart, cycles=args.cycles)
    elif kind == "improved":
        params = constructions.InterlacingParams(
            beta=args.beta,
            delta=args.delta,
            cycles=args.cycles,
            head_start="auto" if args.headstart is None else float(args.headstart),
        )
        system = constructions.build_improved(params)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    model.save(system, _out_path(args.out))
    print(f"wrote {args.out} ({kind}, mode={system.mode})")
    return 0


def _simulate(args, system):
    return simulate.consumption_curve(system, _horizon(args, system), truncated=args.truncated)


def cmd_simulate(args) -> int:
    system = model.load(args.system)
    curves = _simulate(args, system)
    if args.curve_out:
        try:
            text = simulate.curve_to_csv(curves)
        except OverflowError:
            t = next(t for t, v in curves.total.points if not (_fits_float(t) and _fits_float(v)))
            print(
                f"error: curve CSV rows are floats, and the row at t={_approx(t)} overflows "
                "them; use --intervals-out for exact output",
                file=sys.stderr,
            )
            return 2
        with open(_out_path(args.curve_out), "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.curve_out}")
    if args.intervals_out:
        _write_json(args.intervals_out, simulate.intervals_to_document(curves, system.mode))
        print(f"wrote {args.intervals_out}")
    end = curves.total.end
    print(f"simulated to t={_approx(end)}; B(end)={_approx(curves.total.value_at(end))}")
    return 0


def cmd_maxima(args) -> int:
    system = model.load(args.system)
    curves = _simulate(args, system)
    report = simulate.ratio_maxima(curves.total, simulate.valid_horizon(system))
    if args.out:
        _write_json(args.out, simulate.report_to_document(report, system.mode))
        print(f"wrote {args.out}")
    print(f"local maxima: {len(report.local_maxima)}")
    for t, q in report.local_maxima:  # Q = B/t is at most the largest slope: float holds it
        print(f"  t={_approx(t)}  Q={float(q):.9f}")
    print(f"sup Q = {float(report.supremum):.9f} at t={_approx(report.sup_time)}")
    return 0


def cmd_check(args) -> int:
    system = model.load(args.system)
    speed = _parse_speed(args.speed, system)
    verdict = simulate.check_speed(system, speed, _horizon(args, system), truncated=args.truncated)
    if args.out:
        _write_json(
            args.out,
            {
                "speed": model.render_number(verdict.speed, system.mode),
                "horizon": model.render_number(verdict.horizon, system.mode),
                "feasible": verdict.feasible,
                "earliest_violation": None
                if verdict.earliest_violation is None
                else model.render_number(verdict.earliest_violation, system.mode),
            },
        )
    if verdict.feasible:
        print(f"PASS: B(t) <= {args.speed} * t up to t={_approx(verdict.horizon)}")
        return 0
    print(f"FAIL: earliest violation at t={_approx(verdict.earliest_violation)}")
    return 1


def cmd_oracle(args) -> int:
    from . import oracle  # the only command that needs numpy

    system = model.load(args.system)
    # the grid checks the truncated system itself, so any horizon is allowed
    horizon = simulate.valid_horizon(system) if args.horizon is None else _parse_speed(args.horizon, system)
    if horizon is None:
        print("error: specify --horizon for systems without verticals", file=sys.stderr)
        return 2
    if not _fits_float(horizon):
        print(f"error: horizon {_approx(horizon)} is past the float range of the grid", file=sys.stderr)
        return 2
    exact = simulate.consumption_curve(system, horizon, truncated=True)
    sampled = oracle.grid_consumption(system, args.cell, float(horizon))
    tolerance = oracle.consumption_tolerance(system, args.cell)
    result = oracle.compare(exact.total, sampled, tolerance)
    if args.out:
        _write_json(args.out, result.to_document())
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max deviation {result.max_deviation:g} at t={result.at_time:g} "
        f"(tolerance {result.tolerance:g})"
    )
    return 0 if result.passed else 1


def cmd_optimize(args) -> int:
    if args.scheme == "beta":
        opt = optimize.optimize_beta()
    else:
        opt = optimize.optimize_beta_delta()
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
    p.set_defaults(func=cmd_construct, fixup=_fixup_construct)

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


def _fixup_construct(args) -> str | None:
    if args.type in ("flat", "seventeen-ninths") and args.headstart is None:
        return "--headstart is required for flat and seventeen-ninths constructions"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fixup = getattr(args, "fixup", None)
    if fixup:
        message = fixup(args)
        if message:
            parser.error(message)  # exits with code 2
    try:
        return args.func(args)
    except (model.ValidationError, model.DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
