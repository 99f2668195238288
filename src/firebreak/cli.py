"""Command-line entry point: construct, simulate, maxima, check, oracle, optimize.

Exit codes: 0 success / PASS, 1 FAIL (speed violation or oracle tolerance
exceeded), 2 usage error: a bad argument or document, or an OS error on a
path.  Relative output paths are resolved against $FIREBREAK_OUTDIR when
set.  Each command imports only the submodules it runs, and none imports
numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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


def _real(raw: str) -> float:
    """A float argument: ``float()`` text, or "p/q", read exactly and rounded once by ``coerce_length``.

    nan and inf pass, for the library's range checks to name them.
    """
    from . import model

    try:
        return model.coerce_length(raw, model.FLOAT) if "/" in raw else float(raw)
    except ValueError as exc:  # argparse prints it as a usage error, exit 2
        raise argparse.ArgumentTypeError(str(exc)) from None


def _horizon(args, system):
    """``--horizon`` as a system number, or None; past the valid horizon only with ``--truncated``."""
    from . import model, simulate

    if args.horizon is None:
        return None
    horizon = model._positive(args.horizon, system.mode, "horizon")
    bound = simulate.valid_horizon(system)
    if not args.truncated and bound is not None and horizon > bound:
        raise ValueError(
            f"horizon {model.approx(horizon)} exceeds the valid horizon {model.approx(bound)}; "
            "pass --truncated to run the truncated system anyway"
        )
    return horizon


def _check_cycles(head_start, cycles: int) -> None:
    """Refuse, before building, 17/9 cycles whose longest length ``str`` cannot write.

    That is the last left height, ``34 p 16^(cycles - 1)`` over the head
    start's denominator (``p`` its numerator; the head start is read and
    refused as the builder reads it); 0 digits means no limit.
    """
    from . import model

    limit = model.int_digit_limit()
    p = model._positive(head_start, model.RATIONAL, "head start", model.ValidationError).numerator
    if limit:
        most = (((10**limit - 1) // (34 * p)).bit_length() - 1) // 4 + 1
        if cycles > most:
            raise ValueError(
                f"--cycles {cycles} makes numbers of more than {limit} digits, too long to "
                f"write; the largest cycle count at this head start is {most}"
            )


def cmd_construct(args) -> int:
    from . import constructions, model

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
    from . import model, simulate

    system = model.load(args.system)
    curves = simulate.consumption_curve(system, _horizon(args, system), truncated=args.truncated)
    if args.curve_out:
        try:
            text = simulate.curve_to_csv(curves)
        except OverflowError:
            t = next(t for t, v in curves.total.points if not (_fits_float(t) and _fits_float(v)))
            raise ValueError(
                f"curve CSV rows are floats, and the row at t={model.approx(t)} overflows "
                "them; use --intervals-out for exact output"
            ) from None
        _out_path(args.curve_out).write_text(text, encoding="utf-8")
        print(f"wrote {args.curve_out}")
    if args.intervals_out:
        _write_json(args.intervals_out, simulate.intervals_to_document(curves, system.mode))
        print(f"wrote {args.intervals_out}")
    end = curves.total.end
    print(f"simulated to t={model.approx(end)}; B(end)={model.approx(curves.total.value_at(end))}")
    return 0


def cmd_maxima(args) -> int:
    from . import model, simulate

    system = model.load(args.system)
    _, report = simulate.ratio_report(system, _horizon(args, system), truncated=args.truncated)
    if args.out:
        _write_json(args.out, simulate.report_to_document(report, system.mode))
        print(f"wrote {args.out}")
    print(f"local maxima: {len(report.local_maxima)}")
    for t, q in report.local_maxima:  # Q = B/t is at most the largest slope: float holds it
        print(f"  t={model.approx(t)}  Q={float(q):.9f}")
    print(f"sup Q = {float(report.supremum):.9f} at t={model.approx(report.sup_time)}")
    return 0


def cmd_check(args) -> int:
    from . import model, simulate

    system = model.load(args.system)
    verdict = simulate.check_speed(system, args.speed, _horizon(args, system), truncated=args.truncated)
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
        print(f"PASS: B(t) <= {args.speed} * t up to t={model.approx(verdict.horizon)}")
        return 0
    print(f"FAIL: earliest violation at t={model.approx(verdict.earliest_violation)}")
    return 1


def cmd_oracle(args) -> int:
    from . import model, oracle, simulate

    system = model.load(args.system)
    # the grid checks the truncated system itself, so any horizon is allowed
    if args.horizon is not None:
        horizon = model._positive(args.horizon, system.mode, "horizon")
    elif (horizon := simulate.valid_horizon(system)) is None:
        raise ValueError("specify --horizon for systems without verticals")
    sampled = oracle.grid_consumption(system, args.cell, horizon)  # refuses a horizon past the float range
    exact = simulate.consumption_curve(system, horizon, truncated=True)
    tolerance = oracle.consumption_tolerance(system, args.cell)
    result = oracle.compare(exact.total, sampled, tolerance)
    if args.out:
        _write_json(args.out, result._asdict())
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max deviation {result.max_deviation:g} at t={result.at_time:g} "
        f"(tolerance {result.tolerance:g})"
    )
    return 0 if result.passed else 1


def cmd_optimize(args) -> int:
    from . import optimize

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
    shared = argparse.ArgumentParser(add_help=False)  # the options simulate, maxima and check share
    shared.add_argument("--system", required=True)
    shared.add_argument("--horizon", default=None)
    shared.add_argument("--truncated", action="store_true", help="allow horizons beyond the valid horizon")

    p = sub.add_parser("construct", help="generate a barrier-system document")
    p.add_argument("--type", required=True, choices=("flat", "seventeen-ninths", "improved"))
    p.add_argument("--headstart", default=None, help="head-start length (improved: rescale target)")
    p.add_argument("--cycles", type=int, default=8)
    p.add_argument("--beta", type=_real, default=None, help="improved: growth factor")
    p.add_argument("--delta", type=_real, default=None, help="improved: shift factor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", parents=[shared], help="consumption curve CSV and k-interval JSON")
    p.add_argument("--curve-out", default=None)
    p.add_argument("--intervals-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("maxima", parents=[shared], help="local maxima and supremum of Q(t) = B(t)/t")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_maxima)

    p = sub.add_parser("check", parents=[shared], help="feasibility of a build speed: B(t) <= v*t")
    p.add_argument("--speed", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="compare the exact curve against the grid oracle (one column sweep per side)")
    p.add_argument("--system", required=True)
    p.add_argument("--cell", type=_real, required=True)
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
