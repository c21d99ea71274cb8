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
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .euler import (
    DEFAULT_FACTOR_TOL,
    DEFAULT_PRIME_CUTOFF,
    check_admissibility_pp,
    lambda0,
    psi,
)
from .exact import (
    additive_value_table,
    bucket_sums,
    distribution_to_csv,
    multiplicative_value_table,
    partial_sum,
    pmf,
    sample,
    sums_to_csv,
    twisted_mean,
)
from .funcs import AdditiveSpec, MultiplicativeSpec, parse_additive, parse_multiplicative
from .stats import (
    clt_report,
    clt_report_to_dict,
    ldp_predict,
    ldp_prediction_to_dict,
    tail_pairs_to_csv,
)

DEFAULT_X_GRID = (1000, 10000, 100000, 1000000)
DEFAULT_Y_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


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
    if v != int(v):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(v)


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number like 0.3 or 0.1+0.2j, got {text!r}")


def _x_grid_arg(text: str) -> Tuple[int, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty x grid")
    return tuple(_int_arg(p.strip()) for p in parts)


def _z_grid_arg(text: str) -> Tuple[complex, ...]:
    """Either circle:N (N roots of unity, the closed unit disk boundary)
    or a comma-separated list of complex numbers."""
    body = text.strip()
    if body.startswith("circle:"):
        n = _int_arg(body[len("circle:") :])
        if n < 1:
            raise argparse.ArgumentTypeError("circle:N needs N >= 1")
        return tuple(cmath.exp(2j * cmath.pi * j / n) for j in range(n))
    return tuple(_complex_arg(p) for p in body.split(",") if p.strip())


def _float_grid_arg(text: str) -> Tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


@dataclass
class RunConfig:
    """Fully parsed invocation; specs are validated before heavy work."""

    alpha: MultiplicativeSpec
    g: AdditiveSpec
    spec_text: str
    g_text: str
    cutoff: int = DEFAULT_PRIME_CUTOFF
    tol: float = DEFAULT_FACTOR_TOL
    x: Optional[int] = None
    x_grid: Optional[Tuple[int, ...]] = None
    z: complex = 0j
    z_grid: Tuple[complex, ...] = ()
    y: Optional[complex] = None
    s: float = 2.0
    rho: Optional[complex] = None
    y_grid: Tuple[float, ...] = DEFAULT_Y_GRID
    seed: int = 0
    stream: int = 0
    count: int = 10
    c0: Optional[float] = None
    substitute_at_one: bool = True
    output: Optional[str] = None
    fmt: str = "csv"

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        spec_text = getattr(args, "spec", "unit")
        g_text = getattr(args, "g", "omega")
        alpha = parse_multiplicative(spec_text)
        g = parse_additive(g_text)
        return RunConfig(
            alpha=alpha,
            g=g,
            spec_text=spec_text,
            g_text=g_text,
            cutoff=getattr(args, "cutoff", DEFAULT_PRIME_CUTOFF),
            tol=getattr(args, "tol", DEFAULT_FACTOR_TOL),
            x=getattr(args, "x", None),
            x_grid=getattr(args, "x_grid", None),
            z=getattr(args, "z", 0j),
            z_grid=getattr(args, "z_grid", None) or (),
            y=getattr(args, "y", None),
            s=getattr(args, "s", 2.0),
            rho=getattr(args, "rho", None),
            y_grid=getattr(args, "y_grid", None) or DEFAULT_Y_GRID,
            seed=getattr(args, "seed", 0),
            stream=getattr(args, "stream", 0),
            count=getattr(args, "count", 10),
            c0=getattr(args, "c0", None),
            substitute_at_one=not getattr(args, "no_s1_substitution", False),
            output=getattr(args, "output", None),
            fmt=getattr(args, "fmt", "csv"),
        )

    def require_x(self) -> int:
        if self.x is None:
            raise ValueError("this command needs --x")
        if self.x < 1:
            raise ValueError(f"--x must be >= 1, got {self.x}")
        return self.x

    def xs(self) -> Tuple[int, ...]:
        if self.x_grid:
            return self.x_grid
        if self.x is not None:
            return (self.x,)
        return DEFAULT_X_GRID


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, obj) -> None:
    _emit(cfg, json.dumps(obj, indent=2) + "\n")


def cmd_lambda0(cfg: RunConfig) -> None:
    res = lambda0(cfg.alpha, prime_cutoff=cfg.cutoff, tol=cfg.tol)
    if cfg.fmt == "json":
        _emit_json(
            cfg,
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
    _emit(cfg, "\n".join(lines) + "\n")


def cmd_psi(cfg: RunConfig) -> None:
    value = psi(cfg.alpha, cfg.z, cfg.g, prime_cutoff=cfg.cutoff, tol=cfg.tol)
    if cfg.fmt == "json":
        _emit_json(cfg, {"z_re": cfg.z.real, "z_im": cfg.z.imag, "psi_re": value.real, "psi_im": value.imag})
        return
    _emit(cfg, f"psi = {_fmt(value)}\n")


def cmd_sum(cfg: RunConfig) -> None:
    xs = sorted(cfg.x_grid or (cfg.require_x(),))
    table = multiplicative_value_table(cfg.alpha, xs[-1])
    rows = [(x, partial_sum(cfg.alpha, x, values=table)) for x in xs]
    if not cfg.x_grid:
        x, value = rows[0]
        if cfg.fmt == "json":
            _emit_json(cfg, {"x": x, "sum_re": value.real, "sum_im": value.imag})
            return
        _emit(cfg, f"sum = {_fmt(value)}\n")
        return
    if cfg.fmt == "json":
        _emit_json(cfg, {"rows": [{"x": x, "sum_re": v.real, "sum_im": v.imag} for x, v in rows]})
        return
    _emit(cfg, sums_to_csv(rows))


def cmd_mgf(cfg: RunConfig) -> None:
    x = cfg.require_x()
    if cfg.y is not None:
        y = cfg.y
    else:
        y = cmath.exp(cfg.z)
    if y == 0:
        raise ValueError("--y must be nonzero")
    value = twisted_mean(cfg.alpha, y, cfg.g, x)
    if cfg.fmt == "json":
        _emit_json(cfg, {"x": x, "y_re": y.real, "y_im": y.imag, "mgf_re": value.real, "mgf_im": value.imag})
        return
    _emit(cfg, f"mgf = {_fmt(value)}\n")


def cmd_pmf(cfg: RunConfig) -> None:
    x = cfg.require_x()
    dist = pmf(cfg.alpha, cfg.g, x)
    if cfg.fmt == "json":
        _emit_json(
            cfg,
            {
                "x": dist.x,
                "pmf": {str(m): q for m, q in dist.as_dict().items()},
                "mean": dist.mean,
                "variance": dist.variance,
            },
        )
        return
    _emit(cfg, distribution_to_csv(dist))


def cmd_sample(cfg: RunConfig) -> None:
    x = cfg.require_x()
    if cfg.count < 1:
        raise ValueError(f"--count must be >= 1, got {cfg.count}")
    draws = sample(cfg.alpha, x, cfg.seed, cfg.count, stream=cfg.stream)
    if cfg.fmt == "json":
        _emit_json(cfg, {"x": x, "seed": cfg.seed, "stream": cfg.stream, "draws": draws.tolist()})
        return
    _emit(cfg, "\n".join(str(int(n)) for n in draws.tolist()) + "\n")


def cmd_clt(cfg: RunConfig) -> None:
    x = cfg.require_x()
    report = clt_report(cfg.alpha, cfg.g, cfg.rho, x, cfg.y_grid)
    if cfg.fmt == "json":
        _emit_json(cfg, clt_report_to_dict(report))
        return
    head = f"# x={report.x} kolmogorov_distance={report.kolmogorov_distance:.15g}\n"
    _emit(cfg, head + tail_pairs_to_csv(report.tail_pairs))


def cmd_ldp(cfg: RunConfig) -> None:
    xs = sorted(cfg.x_grid or (cfg.require_x(),))
    weights = multiplicative_value_table(cfg.alpha, xs[-1])
    g_values = additive_value_table(cfg.g, xs[-1])
    rows = [
        (x, ldp_predict(
            cfg.alpha, cfg.g, cfg.rho, x, cfg.s, substitute_at_one=cfg.substitute_at_one,
            weights=weights, g_values=g_values, prime_cutoff=cfg.cutoff, tol=cfg.tol,
        ))
        for x in xs
    ]
    if not cfg.x_grid:
        pred = rows[0][1]
        if cfg.fmt == "json":
            _emit_json(cfg, ldp_prediction_to_dict(pred))
            return
        lines = [f"{key} = {value:.15g}" for key, value in ldp_prediction_to_dict(pred).items()]
        _emit(cfg, "\n".join(lines) + "\n")
        return
    if cfg.fmt == "json":
        _emit_json(cfg, {"rows": [dict(ldp_prediction_to_dict(p), x=x) for x, p in rows]})
        return
    lines = ["x,exact_tail,predicted_tail,ratio"]
    for x, pred in rows:
        lines.append(f"{x},{pred.exact_tail:.15g},{pred.predicted_tail:.15g},{pred.ratio:.15g}")
    _emit(cfg, "\n".join(lines) + "\n")


def cmd_check(cfg: RunConfig) -> None:
    c0 = cfg.c0 if cfg.c0 is not None else cfg.alpha.c0
    report = check_admissibility_pp(cfg.alpha, c0=c0, tol=cfg.tol)
    if cfg.fmt == "json":
        _emit_json(
            cfg,
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
    _emit(cfg, "\n".join(lines) + "\n")


def cmd_report(cfg: RunConfig) -> None:
    """Full convergence study: lambda0, psi grid, residual trend, CLT, LDP."""
    if cfg.fmt != "json":
        raise ValueError("report emits json only; use --format json")
    xs = tuple(sorted(cfg.xs()))
    if xs[0] < 16:
        raise ValueError(f"report x grid needs x >= 16, got {xs[0]}")
    zs = cfg.z_grid or _z_grid_arg("circle:16")
    x_max = xs[-1]
    weights = multiplicative_value_table(cfg.alpha, x_max)
    g_values = additive_value_table(cfg.g, x_max)

    lam = lambda0(cfg.alpha, prime_cutoff=cfg.cutoff, tol=cfg.tol)
    rho = cfg.rho if cfg.rho is not None else cfg.alpha.rho

    psi_values = []
    for z in zs:
        value = psi(cfg.alpha, z, cfg.g, prime_cutoff=cfg.cutoff, tol=cfg.tol)
        psi_values.append((z, value))

    # one bucketing per x serves all residuals and the pmf
    buckets = [bucket_sums(cfg.alpha, cfg.g, x, weights=weights, g_values=g_values) for x in xs]
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
            clt_report_to_dict(clt_report(cfg.alpha, cfg.g, cfg.rho, x, cfg.y_grid, dist=dist))
        )
        pred = ldp_predict(
            cfg.alpha,
            cfg.g,
            cfg.rho,
            x,
            cfg.s,
            substitute_at_one=cfg.substitute_at_one,
            dist=dist,
            prime_cutoff=cfg.cutoff,
            tol=cfg.tol,
        )
        ldp_rows.append(dict(ldp_prediction_to_dict(pred), x=x))

    payload = {
        "config": {
            "spec": cfg.spec_text,
            "g": cfg.g_text,
            "x_grid": list(xs),
            "z_grid": [[z.real, z.imag] for z in zs],
            "cutoff": cfg.cutoff,
            "tol": cfg.tol,
            "s": cfg.s,
            "y_grid": list(cfg.y_grid),
            "seed": cfg.seed,
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
    _emit_json(cfg, payload)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default="unit", help="multiplicative spec, e.g. theta_omega:2.5")
    parser.add_argument("--g", default="omega", help="additive function: omega | big_omega | table:<path>")
    parser.add_argument("--cutoff", type=_int_arg, default=DEFAULT_PRIME_CUTOFF, help="Euler product prime cutoff")
    parser.add_argument("--tol", type=float, default=DEFAULT_FACTOR_TOL, help="local factor truncation tolerance")
    parser.add_argument("--output", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sd",
        description="Distributions of additive functions under multiplicative weights: "
        "exact sieve-scale sums and Euler-product asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda0", help="Euler-product constant of a spec")
    _add_common(p)
    p.set_defaults(func=cmd_lambda0)

    p = sub.add_parser("psi", help="limiting function psi(z)")
    _add_common(p)
    p.add_argument("--z", type=_complex_arg, default=0j)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("sum", help="exact partial sum of f(n) for n <= x")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--x-grid", type=_x_grid_arg, default=None)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("mgf", help="exact E[y^{g(N)}] (or e^{z g(N)} via --z)")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--y", type=_complex_arg, default=None)
    p.add_argument("--z", type=_complex_arg, default=0j)
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("pmf", help="exact distribution of g(N) for N <= x")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("sample", help="reproducible draws of N with P(N=n) ~ alpha(n)")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--stream", type=_int_arg, default=0)
    p.add_argument("--count", type=_int_arg, default=10)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("clt", help="normal approximation report for g(N)")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--rho", type=_complex_arg, default=None)
    p.add_argument("--y-grid", type=_float_grid_arg, default=None)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("ldp", help="large-deviation prediction vs exact tail")
    _add_common(p)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--x-grid", type=_x_grid_arg, default=None)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--rho", type=_complex_arg, default=None)
    p.add_argument("--no-s1-substitution", action="store_true",
                   help="raise at s=1 instead of substituting psi'(0)")
    p.set_defaults(func=cmd_ldp)

    p = sub.add_parser("check", help="admissibility++ diagnostics")
    _add_common(p)
    p.add_argument("--c0", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="full convergence study as one JSON artifact")
    _add_common(p)
    p.add_argument("--x-grid", type=_x_grid_arg, default=None)
    p.add_argument("--x", type=_int_arg, default=None)
    p.add_argument("--z-grid", type=_z_grid_arg, default=None)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--rho", type=_complex_arg, default=None)
    p.add_argument("--y-grid", type=_float_grid_arg, default=None)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--no-s1-substitution", action="store_true")
    p.set_defaults(func=cmd_report, fmt="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        args.func(cfg)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
