"""Command-line frontend.

Orchestrates value-table construction, Euler-product evaluation, exact
distribution studies, and report emission.  Every command prints with
15 significant digits and is deterministic for a fixed configuration
and seed.  Exit codes: 0 success, 2 configuration error (bad grammar,
bad domain), 3 numeric error (pole or divergence).

Each cmd_* computes its result and returns (record, text) without any
I/O.  record is the document --format json prints (or a callable that
builds it, so sd sample lists its draws only when JSON is asked for);
text is the default rendering, a string or an iterable of chunks, or
None for a command in _JSON_ONLY.  main alone picks the format, rejects
csv for a json-only command before any work, and writes to stdout; the
CLI writes no files.  Every text rendering comes from this module:
tables through _csv and scalar results through _lines.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

from . import euler, exact, stats
from .funcs import parse_additive, parse_multiplicative

DEFAULT_X_GRID = (1000, 10000, 100000, 1000000)
DEFAULT_Y_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
# sd sample formats and writes its draws this many at a time
_DRAWS_PER_WRITE = 1 << 12
# commands whose one rendering is their JSON record
_JSON_ONLY = ("report",)


def _fmt(value) -> str:
    """15-significant-digit rendering; complex as re+imj when imag != 0."""
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _csv(header: str, rows) -> str:
    """header, then one line per row with every number at .15g (ints as plain digits)."""
    lines = [header] + [",".join(f"{v:.15g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _lines(**values) -> str:
    """One key = value line each: None as none, ints and strings as they are, other numbers by _fmt."""
    def shown(v):
        if v is None:
            return "none"
        return str(v) if isinstance(v, (int, str)) else _fmt(v)

    return "".join(f"{key} = {shown(v)}\n" for key, v in values.items())


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
        z = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number like 0.3 or 0.1+0.2j, got {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite number like 0.3 or 0.1+0.2j, got {text!r}")
    return z


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


def _xs(args: argparse.Namespace) -> List[int]:
    """The x of sum and ldp: --x-grid sorted, or --x, but not both."""
    if args.x_grid is not None and args.x is not None:
        raise ValueError("give --x or --x-grid, not both")
    return sorted(args.x_grid or (_require_x(args.x),))


def _cutoff(args: argparse.Namespace) -> int:
    """--cutoff, or euler's default when it is not given."""
    return euler.DEFAULT_PRIME_CUTOFF if args.cutoff is None else args.cutoff


def cmd_lambda0(args: argparse.Namespace):
    res = euler.lambda0(args.alpha, prime_cutoff=_cutoff(args))
    record = {
        "lambda0_re": res.value.real,
        "lambda0_im": res.value.imag,
        "tail_estimate": res.tail_estimate,
        "prime_cutoff": res.prime_cutoff,
        "k_cutoff": res.k_cutoff,
    }
    return record, _lines(lambda0=res.value, tail_estimate=res.tail_estimate, prime_cutoff=res.prime_cutoff,
                          k_cutoff=res.k_cutoff)


def cmd_psi(args: argparse.Namespace):
    value = euler.psi(args.alpha, args.z, args.additive, prime_cutoff=_cutoff(args))
    record = {"z_re": args.z.real, "z_im": args.z.imag, "psi_re": value.real, "psi_im": value.imag}
    return record, _lines(psi=value)


def cmd_sum(args: argparse.Namespace):
    xs = _xs(args)
    rows = list(zip(xs, exact.partial_sum_grid(args.alpha, xs)))
    if not args.x_grid:
        x, value = rows[0]
        return {"x": x, "sum_re": value.real, "sum_im": value.imag}, _lines(sum=value)
    text = _csv("x,sum_re,sum_im", ((x, v.real, v.imag) for x, v in rows))
    return {"rows": [{"x": x, "sum_re": v.real, "sum_im": v.imag} for x, v in rows]}, text


def cmd_mgf(args: argparse.Namespace):
    x = _require_x(args.x)
    given = f"--y = {_fmt(args.y)}" if args.y is not None else f"--z = {_fmt(args.z)}"
    try:
        y = args.y if args.y is not None else cmath.exp(args.z)
        if y == 0:
            raise ValueError("--y must be nonzero" if args.y is not None else f"{given}: e^z underflows float64 to 0")
        value = exact.bucket_sums(args.alpha, args.additive, x).mean(y)
    except OverflowError:
        raise ValueError(f"{given}: e^z or E[y^g(N)] overflows float64") from None
    record = {"x": x, "y_re": y.real, "y_im": y.imag, "mgf_re": value.real, "mgf_im": value.imag}
    return record, _lines(mgf=value)


def cmd_pmf(args: argparse.Namespace):
    x = _require_x(args.x)
    dist = exact.pmf(args.alpha, args.additive, x)
    pairs = list(zip(dist.values.tolist(), dist.probabilities.tolist()))
    record = {"x": dist.x, "pmf": {str(m): q for m, q in pairs}, "mean": dist.mean, "variance": dist.variance}
    return record, _csv("value,probability", pairs)


def cmd_sample(args: argparse.Namespace):
    x = _require_x(args.x)
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    draws = exact.sample(args.alpha, x, args.seed, args.count, stream=args.stream)

    def record():
        return {"x": x, "seed": args.seed, "stream": args.stream, "draws": draws.tolist()}

    def chunks():
        for i in range(0, draws.size, _DRAWS_PER_WRITE):
            chunk = tuple(draws[i : i + _DRAWS_PER_WRITE].tolist())
            yield ("%d\n" * len(chunk)) % chunk

    return record, chunks()


def cmd_clt(args: argparse.Namespace):
    x = _require_x(args.x)
    stats._mean_scale(args.alpha, x)  # clt_report's check, made before the table pass
    report = stats.clt_report(exact.bucket_sums(args.alpha, args.additive, x), args.y_grid)
    head = f"# x={report.x} kolmogorov_distance={report.kolmogorov_distance:.15g}\n"
    return asdict(report), head + _csv("y,exact,gaussian", report.tail_pairs)


def cmd_ldp(args: argparse.Namespace):
    xs = _xs(args)
    s = stats._checked_slope(args.s)
    for x in xs:  # ldp_predict's checks at each x, made before the table pass
        stats._checked_decay(args.alpha, args.additive, x, s)
    predictions = stats.ldp_predict(exact.bucket_sums_grid(args.alpha, args.additive, xs), args.s,
                                    prime_cutoff=_cutoff(args))
    rows = list(zip(xs, predictions))
    if not args.x_grid:
        record = asdict(rows[0][1])
        return record, _lines(**record)
    text = _csv("x,exact_tail,predicted_tail,ratio", ((x, p.exact_tail, p.predicted_tail, p.ratio) for x, p in rows))
    return {"rows": [dict(asdict(p), x=x) for x, p in rows]}, text


def cmd_check(args: argparse.Namespace):
    report = euler.check_admissibility_pp(args.alpha)
    return asdict(report), _lines(verdict=report.verdict, c0=report.c0, witness=report.witness,
                                  abscissa_estimate=report.abscissa_estimate, reason=report.reason)


def cmd_report(args: argparse.Namespace):
    """Full convergence study: lambda0, psi grid, residual trend, CLT, LDP."""
    xs = tuple(sorted(args.x_grid or DEFAULT_X_GRID))
    if xs[0] < 16:
        raise ValueError(f"report x grid needs x >= 16, got {xs[0]}")
    s = stats._checked_slope(args.s)
    for x in xs:  # ldp_predict's checks at each x, made before the table pass
        stats._checked_decay(args.alpha, args.additive, x, s)
    twisted = [euler._exp_twist(args.alpha, z, args.additive) for z in args.z_grid]  # and psi's at each z
    # one pass over the value tables serves all residuals and the pmf
    buckets = exact.bucket_sums_grid(args.alpha, args.additive, xs)

    # the grid's twists and their denominator, made once: the lambda0 block
    cutoff = _cutoff(args)
    lam, limits = euler._psi_batch(args.alpha, twisted, cutoff)
    psi_values = list(zip(args.z_grid, limits))

    residual_table = []
    for x, sums in zip(xs, buckets):
        worst = 0.0
        for z, limit in psi_values:
            worst = max(worst, abs(sums.residual(z) - limit))
        residual_table.append({"x": x, "max_abs_residual": worst})

    clt_rows = [asdict(stats.clt_report(sums, args.y_grid)) for sums in buckets]
    predictions = stats.ldp_predict(buckets, args.s, prime_cutoff=cutoff)
    ldp_rows = [dict(asdict(pred), x=x) for x, pred in zip(xs, predictions)]

    payload = {
        "config": {
            "spec": args.spec,
            "g": args.g,
            "x_grid": list(xs),
            "z_grid": [[z.real, z.imag] for z in args.z_grid],
            "cutoff": cutoff,
            "tol": euler.DEFAULT_FACTOR_TOL,
            "s": args.s,
            "y_grid": list(args.y_grid),
            "seed": 0,
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
    return payload, None


# each command registers --spec, --format and its own flags
_FLAGS = {
    "--g": dict(default="omega", help="additive function: omega | big_omega | table:<path>"),
    # None stands for euler.DEFAULT_PRIME_CUTOFF, read by _cutoff in the
    # command, so that building the parser loads no engine
    "--cutoff": dict(type=_int_arg, help="Euler product prime cutoff"),
    "--x": dict(type=_int_arg),
    "--x-grid": dict(type=_x_grid_arg),
    "--y": dict(type=_complex_arg),
    "--z": dict(type=_complex_arg, default=0j),
    "--z-grid": dict(type=_z_grid_arg, default="circle:16"),
    "--s": dict(type=float, default=2.0),
    "--y-grid": dict(type=_float_grid_arg, default=DEFAULT_Y_GRID),
    "--seed": dict(type=_int_arg, default=0),
    "--stream": dict(type=_int_arg, default=0),
    "--count": dict(type=_int_arg, default=10),
}

_COMMANDS = (
    ("lambda0", cmd_lambda0, "Euler-product constant of a spec", ("--cutoff",)),
    ("psi", cmd_psi, "limiting function psi(z)", ("--g", "--cutoff", "--z")),
    ("sum", cmd_sum, "exact partial sum of f(n) for n <= x", ("--x", "--x-grid")),
    ("mgf", cmd_mgf, "exact E[y^{g(N)}] (or e^{z g(N)} via --z)", ("--g", "--x", "--y", "--z")),
    ("pmf", cmd_pmf, "exact distribution of g(N) for N <= x", ("--g", "--x")),
    ("sample", cmd_sample, "reproducible draws of N with P(N=n) ~ alpha(n)",
     ("--x", "--seed", "--stream", "--count")),
    ("clt", cmd_clt, "normal approximation report for g(N)", ("--g", "--x", "--y-grid")),
    ("ldp", cmd_ldp, "large-deviation prediction vs exact tail", ("--g", "--cutoff", "--x", "--x-grid", "--s")),
    ("check", cmd_check, "admissibility++ diagnostics", ()),
    ("report", cmd_report, "full convergence study as one JSON artifact",
     ("--g", "--cutoff", "--x-grid", "--z-grid", "--s", "--y-grid")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sd",
        description="Distributions of additive functions under multiplicative weights: "
        "exact sieve-scale sums and Euler-product asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        # flags are spelled in full, so a deleted flag never reads as one it
        # prefixes (report's old --x as --x-grid)
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--spec", default="unit", help="multiplicative spec, e.g. theta_omega:2.5")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="json" if name in _JSON_ONLY else "csv")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fmt != "json" and args.command in _JSON_ONLY:
            raise ValueError(f"{args.command} emits json only; use --format json")
        # specs are checked before any heavy work
        args.alpha = parse_multiplicative(args.spec)
        args.additive = parse_additive(args.g) if "g" in args else None
        record, text = args.func(args)
        if args.fmt == "json":
            import json  # loaded for --format json alone

            chunks = (json.dumps(record() if callable(record) else record, indent=2) + "\n",)
        else:
            chunks = (text,) if isinstance(text, str) else text
        sys.stdout.writelines(chunks)
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
