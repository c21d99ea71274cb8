"""Output checks for the benchmark's `sd` invocations.

Each check parses one invocation's stdout, compares it with the output
the seed commit printed for the same invocation (bench/golden), and
returns (problems, digits): a list of failure messages, empty when the
output is correct, and the accuracy in decimal digits that the workload
reports as `accuracy_digits`.

Exact-side numbers (pmf, exact tails, Kolmogorov distances) must match
the golden output to a relative 1e-9.  Numbers that come from truncated
Euler products (psi grid, residuals, predicted tails) must match within
the truncation error the run prints, so an accuracy gain never fails.
"""

from __future__ import annotations

import json
import math

import numpy as np

LAMBDA0_THETA2 = 6.0 / math.pi**2  # lambda0 of theta_omega:2 is prod (1 - p^-2)

# psi'(0) for geometric_B:1.5 and big_omega, from bench/oracle.py (mpmath)
PSI_PRIME_B15 = 2.484700133266037647
PSI_PRIME_ABS_TOL = 1e-6

EXACT_REL_TOL = 1e-9
EXACT_ABS_TOL = 1e-15
# the golden and the new value may each sit up to two products' tails
# (numerator and denominator of psi) away from the limit
EULER_TAIL_FACTOR = 4.0
MAX_DIGITS = 15.0
# exact-side agreement is capped where summation order starts to show
EXACT_MAX_DIGITS = 12.0


def digits(value: float, reference: float, cap: float = MAX_DIGITS) -> float:
    """-log10 of the relative error, capped."""
    err = abs(value - reference) / abs(reference)
    return cap if err == 0.0 else min(cap, -math.log10(err))


class Comparer:
    """Collects mismatches between a new output and its golden output."""

    def __init__(self, euler_tol: float = 0.0):
        self.problems = []
        self.euler_tol = euler_tol
        self.worst_exact = 0.0

    def same(self, where, new, old):
        if new != old:
            self.problems.append(f"{where}: {new!r} != golden {old!r}")

    def exact(self, where, new, old):
        err = abs(new - old)
        if not err <= EXACT_REL_TOL * abs(old) + EXACT_ABS_TOL:
            self.problems.append(f"{where}: {new!r} differs from golden {old!r} by {err:.3g}")
        if old != 0.0:
            self.worst_exact = max(self.worst_exact, err / abs(old))

    def euler(self, where, new, old):
        err = abs(new - old)
        if not err <= self.euler_tol * max(1.0, abs(old)):
            self.problems.append(
                f"{where}: {new!r} differs from golden {old!r} by {err:.3g} > {self.euler_tol:.3g}"
            )

    def exact_digits(self) -> float:
        if self.worst_exact == 0.0:
            return EXACT_MAX_DIGITS
        return min(EXACT_MAX_DIGITS, -math.log10(self.worst_exact))


def check_report(text: str, golden: str):
    """`sd report` JSON for theta_omega:2, whose lambda0 is 6/pi^2."""
    new, old = json.loads(text), json.loads(golden)
    tail = max(new["lambda0"]["tail_estimate"], old["lambda0"]["tail_estimate"])
    c = Comparer(euler_tol=EULER_TAIL_FACTOR * tail)
    c.same("config", new["config"], old["config"])
    lam = complex(new["lambda0"]["value_re"], new["lambda0"]["value_im"])
    if not abs(lam - LAMBDA0_THETA2) <= new["lambda0"]["tail_estimate"]:
        c.problems.append(f"lambda0 {lam} is not within its tail estimate of 6/pi^2")
    c.euler("lambda0", lam, complex(old["lambda0"]["value_re"], old["lambda0"]["value_im"]))
    c.same("psi_grid length", len(new["psi_grid"]), len(old["psi_grid"]))
    for a, b in zip(new["psi_grid"], old["psi_grid"]):
        c.same("psi_grid z", (a["z_re"], a["z_im"]), (b["z_re"], b["z_im"]))
        c.euler(f"psi({b['z_re']:.3f}{b['z_im']:+.3f}j)", complex(a["psi_re"], a["psi_im"]),
                complex(b["psi_re"], b["psi_im"]))
    c.same("residual_table x", [r["x"] for r in new["residual_table"]], [r["x"] for r in old["residual_table"]])
    for a, b in zip(new["residual_table"], old["residual_table"]):
        c.euler(f"residual x={b['x']}", a["max_abs_residual"], b["max_abs_residual"])
    c.same("clt x", [r["x"] for r in new["clt"]], [r["x"] for r in old["clt"]])
    for a, b in zip(new["clt"], old["clt"]):
        c.exact(f"kolmogorov x={b['x']}", a["kolmogorov_distance"], b["kolmogorov_distance"])
        c.same(f"clt y x={b['x']}", [p[0] for p in a["tail_pairs"]], [p[0] for p in b["tail_pairs"]])
        for pa, pb in zip(a["tail_pairs"], b["tail_pairs"]):
            c.exact(f"clt tail x={b['x']} y={pb[0]}", pa[1], pb[1])
            c.exact(f"gaussian tail y={pb[0]}", pa[2], pb[2])
    c.same("ldp x", [r["x"] for r in new["ldp"]], [r["x"] for r in old["ldp"]])
    for a, b in zip(new["ldp"], old["ldp"]):
        c.same(f"ldp s x={b['x']}", a["s"], b["s"])
        c.exact(f"ldp exact_tail x={b['x']}", a["exact_tail"], b["exact_tail"])
        c.euler(f"ldp predicted_tail x={b['x']}", a["predicted_tail"], b["predicted_tail"])
        c.euler(f"ldp ratio x={b['x']}", a["ratio"], b["ratio"])
    return c.problems, digits(lam.real, LAMBDA0_THETA2)


def _csv_rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def parse_pmf(text: str):
    rows = _csv_rows(text, "value,probability")
    return [int(v) for v, _ in rows], [float(q) for _, q in rows]


def check_pmf(text: str, golden: str):
    """`sd pmf` CSV: every probability matches the golden one."""
    (values, probs), (old_values, old_probs) = parse_pmf(text), parse_pmf(golden)
    c = Comparer()
    c.same("pmf support", values, old_values)
    for m, q, old_q in zip(values, probs, old_probs):
        c.exact(f"pmf[{m}]", q, old_q)
    if abs(math.fsum(probs) - 1.0) > 1e-12:
        c.problems.append(f"pmf sums to {math.fsum(probs)!r}")
    return c.problems, c.exact_digits()


def check_ldp_s1(text: str, golden: str):
    """`sd ldp --s 1` CSV for geometric_B:1.5: predicted_tail is psi'(0)."""
    new = _csv_rows(text, "x,exact_tail,predicted_tail,ratio")
    old = _csv_rows(golden, "x,exact_tail,predicted_tail,ratio")
    c = Comparer()
    c.same("ldp x", [r[0] for r in new], [r[0] for r in old])
    for (x, exact, pred, ratio), b in zip(new, old):
        exact, pred, ratio = float(exact), float(pred), float(ratio)
        c.exact(f"ldp exact_tail x={x}", exact, float(b[1]))
        if abs(pred - PSI_PRIME_B15) > PSI_PRIME_ABS_TOL:
            c.problems.append(f"psi'(0) = {pred!r} at x={x} is off the oracle by more than 1e-6")
        if abs(ratio - exact / pred) > 1e-12 * abs(ratio):
            c.problems.append(f"ratio {ratio!r} != exact/predicted at x={x}")
    return c.problems, digits(float(new[0][2]), PSI_PRIME_B15)


def big_omega_of(n: np.ndarray) -> np.ndarray:
    """Omega(n) by trial division over primes up to sqrt(max n)."""
    limit = int(n.max())
    small = np.ones(math.isqrt(limit) + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(small.size - 1) + 1):
        if small[p]:
            small[p * p :: p] = False
    rest = n.astype(np.int64)
    count = np.zeros(n.size, dtype=np.int64)
    for p in np.flatnonzero(small).tolist():
        divides = rest % p == 0
        while divides.any():
            count += divides
            rest[divides] //= p
            divides = rest % p == 0
    return count + (rest > 1)


def check_sample(text: str, x: int, count: int, pmf_text: str):
    """`sd sample` draws: in [1, x], Omega-distributed like the pmf."""
    draws = np.array(text.split(), dtype=np.int64)
    if draws.size != count:
        return [f"{draws.size} draws printed, {count} asked for"]
    if draws.min() < 1 or draws.max() > x:
        return [f"draws outside [1, {x}]: min {draws.min()}, max {draws.max()}"]
    values, probs = (np.array(a) for a in parse_pmf(pmf_text))
    mean = float(values @ probs)
    sd = math.sqrt(float((values - mean) ** 2 @ probs))
    sample_mean = float(big_omega_of(draws).mean())
    stderr = sd / math.sqrt(count)
    if abs(sample_mean - mean) > 5.0 * stderr:
        return [
            f"sample mean of Omega {sample_mean:.6f} is more than 5 standard errors "
            f"({stderr:.2g}) from the pmf mean {mean:.6f}"
        ]
    return []
