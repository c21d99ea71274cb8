"""Command-line frontend.

Orchestrates value-table construction, Euler-product evaluation, exact
distribution studies, and report emission.  Every command prints with
15 significant digits and is deterministic for a fixed configuration
and seed.  Exit codes: 0 success, 2 configuration error (bad grammar,
bad domain), 3 numeric error (pole or divergence).
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import sys
from typing import Iterable, Optional, Sequence, Tuple

from .euler import (
    DEFAULT_FACTOR_TOL,
    DEFAULT_PRIME_CUTOFF,
    check_admissibility_pp,
    lambda0,
    psi,
)
from .exact import (
    bucket_sums_grid,
    distribution_to_csv,
    partial_sum_grid,
    pmf,
    sample,
    sums_to_csv,
    twisted_mean,
)
from .funcs import parse_additive, parse_multiplicative
from .stats import (
    clt_report,
    clt_report_to_dict,
    ldp_predict,
    ldp_prediction_to_dict,
    tail_pairs_to_csv,
)

DEFAULT_X_GRID = (1000, 10000, 100000, 1000000)
DEFAULT_Y_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
# sd sample formats and writes its draws this many at a time
_DRAWS_PER_WRITE = 1 << 12


def _fmt(value) -> str:
    """15-significant-digit rendering; complex as re+imj when imag != 0."""
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    v = float(text)
    if not math.isfinite(v) or v != int(v):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(v)


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number like 0.3 or 0.1+0.2j, got {text!r}")


def _grid(text: str, name: str, parse) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty {name} grid")
    return tuple(parse(p) for p in parts)


def _x_grid_arg(text: str) -> Tuple[int, ...]:
    return _grid(text, "x", _int_arg)


def _z_grid_arg(text: str) -> Tuple[complex, ...]:
    """Either circle:N (N roots of unity, the closed unit disk boundary)
    or a comma-separated list of complex numbers."""
    body = text.strip()
    if body.startswith("circle:"):
        n = _int_arg(body[len("circle:") :])
        if n < 1:
            raise argparse.ArgumentTypeError("circle:N needs N >= 1")
        return tuple(cmath.exp(2j * cmath.pi * j / n) for j in range(n))
    return _grid(text, "z", _complex_arg)


def _finite_float_arg(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _float_grid_arg(text: str) -> Tuple[float, ...]:
    return _grid(text, "y", _finite_float_arg)


def _require_x(x: Optional[int]) -> int:
    if x is None:
        raise ValueError("this command needs --x")
    if x < 1:
        raise ValueError(f"--x must be >= 1, got {x}")
    return x


def _emit(args: argparse.Namespace, text: str) -> None:
    _emit_chunks(args, (text,))


def _emit_chunks(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks in order, to --output or stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args: argparse.Namespace, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def cmd_lambda0(args: argparse.Namespace) -> None:
    res = lambda0(args.alpha, prime_cutoff=args.cutoff, tol=args.tol)
    if args.fmt == "json":
        _emit_json(
            args,
            {
                "lambda0_re": res.value.real,
                "lambda0_im": res.value.imag,
                "tail_estimate": res.tail_estimate,
                "prime_cutoff": res.prime_cutoff,
                "k_cutoff": res.k_cutoff,
            },
        )
        return
    lines = [
        f"lambda0 = {_fmt(res.value)}",
        f"tail_estimate = {_fmt(res.tail_estimate)}",
        f"prime_cutoff = {res.prime_cutoff}",
        f"k_cutoff = {res.k_cutoff}",
    ]
    _emit(args, "\n".join(lines) + "\n")


def cmd_psi(args: argparse.Namespace) -> None:
    value = psi(args.alpha, args.z, args.additive, prime_cutoff=args.cutoff, tol=args.tol)
    if args.fmt == "json":
        _emit_json(args, {"z_re": args.z.real, "z_im": args.z.imag, "psi_re": value.real, "psi_im": value.imag})
        return
    _emit(args, f"psi = {_fmt(value)}\n")


def cmd_sum(args: argparse.Namespace) -> None:
    xs = sorted(args.x_grid or (_require_x(args.x),))
    rows = list(zip(xs, partial_sum_grid(args.alpha, xs)))
    if not args.x_grid:
        x, value = rows[0]
        if args.fmt == "json":
            _emit_json(args, {"x": x, "sum_re": value.real, "sum_im": value.imag})
            return
        _emit(args, f"sum = {_fmt(value)}\n")
        return
    if args.fmt == "json":
        _emit_json(args, {"rows": [{"x": x, "sum_re": v.real, "sum_im": v.imag} for x, v in rows]})
        return
    _emit(args, sums_to_csv(rows))


def cmd_mgf(args: argparse.Namespace) -> None:
    x = _require_x(args.x)
    y = args.y if args.y is not None else cmath.exp(args.z)
    if y == 0:
        raise ValueError("--y must be nonzero")
    value = twisted_mean(args.alpha, y, args.additive, x)
    if args.fmt == "json":
        _emit_json(args, {"x": x, "y_re": y.real, "y_im": y.imag, "mgf_re": value.real, "mgf_im": value.imag})
        return
    _emit(args, f"mgf = {_fmt(value)}\n")


def cmd_pmf(args: argparse.Namespace) -> None:
    x = _require_x(args.x)
    dist = pmf(args.alpha, args.additive, x)
    if args.fmt == "json":
        _emit_json(
            args,
            {
                "x": dist.x,
                "pmf": {str(m): q for m, q in dist.as_dict().items()},
                "mean": dist.mean,
                "variance": dist.variance,
            },
        )
        return
    _emit(args, distribution_to_csv(dist))


def cmd_sample(args: argparse.Namespace) -> None:
    x = _require_x(args.x)
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    draws = sample(args.alpha, x, args.seed, args.count, stream=args.stream)
    if args.fmt == "json":
        _emit_json(args, {"x": x, "seed": args.seed, "stream": args.stream, "draws": draws.tolist()})
        return
    _emit_chunks(args, ("\n".join(map(str, draws[i : i + _DRAWS_PER_WRITE].tolist())) + "\n"
                        for i in range(0, draws.size, _DRAWS_PER_WRITE)))


def cmd_clt(args: argparse.Namespace) -> None:
    x = _require_x(args.x)
    report = clt_report(args.alpha, args.additive, args.rho, x, args.y_grid)
    if args.fmt == "json":
        _emit_json(args, clt_report_to_dict(report))
        return
    head = f"# x={report.x} kolmogorov_distance={report.kolmogorov_distance:.15g}\n"
    _emit(args, head + tail_pairs_to_csv(report.tail_pairs))


def cmd_ldp(args: argparse.Namespace) -> None:
    xs = sorted(args.x_grid or (_require_x(args.x),))
    buckets = bucket_sums_grid(args.alpha, args.additive, xs)
    rows = [
        (x, ldp_predict(
            args.alpha, args.additive, args.rho, x, args.s,
            dist=sums.distribution(), prime_cutoff=args.cutoff, tol=args.tol,
        ))
        for x, sums in zip(xs, buckets)
    ]
    if not args.x_grid:
        pred = rows[0][1]
        if args.fmt == "json":
            _emit_json(args, ldp_prediction_to_dict(pred))
            return
        lines = [f"{key} = {value:.15g}" for key, value in ldp_prediction_to_dict(pred).items()]
        _emit(args, "\n".join(lines) + "\n")
        return
    if args.fmt == "json":
        _emit_json(args, {"rows": [dict(ldp_prediction_to_dict(p), x=x) for x, p in rows]})
        return
    lines = ["x,exact_tail,predicted_tail,ratio"]
    for x, pred in rows:
        lines.append(f"{x},{pred.exact_tail:.15g},{pred.predicted_tail:.15g},{pred.ratio:.15g}")
    _emit(args, "\n".join(lines) + "\n")


def cmd_check(args: argparse.Namespace) -> None:
    c0 = args.c0 if args.c0 is not None else args.alpha.c0
    report = check_admissibility_pp(args.alpha, c0=c0, tol=args.tol)
    if args.fmt == "json":
        _emit_json(
            args,
            {
                "c0": report.c0,
                "verdict": report.verdict,
                "witness": report.witness,
                "abscissa_estimate": report.abscissa_estimate,
                "increment_exponent": report.increment_exponent,
                "square_sum_partials": [[p, v] for p, v in report.square_sum_partials],
            },
        )
        return
    lines = [
        f"verdict = {report.verdict}",
        f"c0 = {report.c0:.15g}",
        f"witness = {report.witness if report.witness is not None else 'none'}",
        f"abscissa_estimate = {report.abscissa_estimate:.15g}",
        (
            f"increment_exponent = {report.increment_exponent:.15g}"
            if report.increment_exponent is not None
            else "increment_exponent = none"
        ),
    ]
    _emit(args, "\n".join(lines) + "\n")


def cmd_report(args: argparse.Namespace) -> None:
    """Full convergence study: lambda0, psi grid, residual trend, CLT, LDP."""
    if args.fmt != "json":
        raise ValueError("report emits json only; use --format json")
    xs = tuple(sorted(args.x_grid or ((args.x,) if args.x is not None else DEFAULT_X_GRID)))
    if xs[0] < 16:
        raise ValueError(f"report x grid needs x >= 16, got {xs[0]}")
    # one pass over the value tables serves all residuals and the pmf
    buckets = bucket_sums_grid(args.alpha, args.additive, xs)

    lam = lambda0(args.alpha, prime_cutoff=args.cutoff, tol=args.tol)
    rho = args.rho if args.rho is not None else args.alpha.rho

    psi_values = []
    for z in args.z_grid:
        value = psi(args.alpha, z, args.additive, prime_cutoff=args.cutoff, tol=args.tol)
        psi_values.append((z, value))

    residual_table = []
    for x, sums in zip(xs, buckets):
        worst = 0.0
        for z, limit in psi_values:
            worst = max(worst, abs(sums.residual(z, rho) - limit))
        residual_table.append({"x": x, "max_abs_residual": worst})

    clt_rows = []
    ldp_rows = []
    for x, sums in zip(xs, buckets):
        dist = sums.distribution()
        clt_rows.append(
            clt_report_to_dict(clt_report(args.alpha, args.additive, args.rho, x, args.y_grid, dist=dist))
        )
        pred = ldp_predict(
            args.alpha, args.additive, args.rho, x, args.s,
            dist=dist, prime_cutoff=args.cutoff, tol=args.tol,
        )
        ldp_rows.append(dict(ldp_prediction_to_dict(pred), x=x))

    payload = {
        "config": {
            "spec": args.spec,
            "g": args.g,
            "x_grid": list(xs),
            "z_grid": [[z.real, z.imag] for z in args.z_grid],
            "cutoff": args.cutoff,
            "tol": args.tol,
            "s": args.s,
            "y_grid": list(args.y_grid),
            "seed": args.seed,
        },
        "lambda0": {
            "value_re": lam.value.real,
            "value_im": lam.value.imag,
            "tail_estimate": lam.tail_estimate,
            "prime_cutoff": lam.prime_cutoff,
            "k_cutoff": lam.k_cutoff,
        },
        "psi_grid": [
            {"z_re": z.real, "z_im": z.imag, "psi_re": v.real, "psi_im": v.imag}
            for z, v in psi_values
        ],
        "residual_table": residual_table,
        "clt": clt_rows,
        "ldp": ldp_rows,
    }
    _emit_json(args, payload)


# each command registers --spec, --output, --format and its own flags
_FLAGS = {
    "--g": dict(default="omega", help="additive function: omega | big_omega | table:<path>"),
    "--cutoff": dict(type=_int_arg, default=DEFAULT_PRIME_CUTOFF, help="Euler product prime cutoff"),
    "--tol": dict(type=float, default=DEFAULT_FACTOR_TOL, help="local factor truncation tolerance"),
    "--x": dict(type=_int_arg),
    "--x-grid": dict(type=_x_grid_arg),
    "--y": dict(type=_complex_arg),
    "--z": dict(type=_complex_arg, default=0j),
    "--z-grid": dict(type=_z_grid_arg, default="circle:16"),
    "--s": dict(type=float, default=2.0),
    "--rho": dict(type=_complex_arg),
    "--y-grid": dict(type=_float_grid_arg, default=DEFAULT_Y_GRID),
    "--seed": dict(type=_int_arg, default=0),
    "--stream": dict(type=_int_arg, default=0),
    "--count": dict(type=_int_arg, default=10),
    "--c0": dict(type=float),
}

_COMMANDS = (
    ("lambda0", cmd_lambda0, "Euler-product constant of a spec", ("--cutoff", "--tol")),
    ("psi", cmd_psi, "limiting function psi(z)", ("--g", "--cutoff", "--tol", "--z")),
    ("sum", cmd_sum, "exact partial sum of f(n) for n <= x", ("--x", "--x-grid")),
    ("mgf", cmd_mgf, "exact E[y^{g(N)}] (or e^{z g(N)} via --z)", ("--g", "--x", "--y", "--z")),
    ("pmf", cmd_pmf, "exact distribution of g(N) for N <= x", ("--g", "--x")),
    ("sample", cmd_sample, "reproducible draws of N with P(N=n) ~ alpha(n)",
     ("--x", "--seed", "--stream", "--count")),
    ("clt", cmd_clt, "normal approximation report for g(N)", ("--g", "--x", "--rho", "--y-grid")),
    ("ldp", cmd_ldp, "large-deviation prediction vs exact tail",
     ("--g", "--cutoff", "--tol", "--x", "--x-grid", "--s", "--rho")),
    ("check", cmd_check, "admissibility++ diagnostics", ("--tol", "--c0")),
    ("report", cmd_report, "full convergence study as one JSON artifact",
     ("--g", "--cutoff", "--tol", "--x-grid", "--x", "--z-grid", "--s", "--rho", "--y-grid", "--seed")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sd",
        description="Distributions of additive functions under multiplicative weights: "
        "exact sieve-scale sums and Euler-product asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", default="unit", help="multiplicative spec, e.g. theta_omega:2.5")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--output", default=None, help="write output to this file instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
    sub.choices["report"].set_defaults(fmt="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        # specs are checked before any heavy work
        args.alpha = parse_multiplicative(args.spec)
        args.additive = parse_additive(args.g) if "g" in args else None
        args.func(args)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
