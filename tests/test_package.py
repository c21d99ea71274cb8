import os
import subprocess
import sys
from pathlib import Path

import pytest

import selberg_delange
from selberg_delange import exact

PUBLIC_NAMES = [
    "AdditiveSpec", "AdmissibilityReport", "BIG_OMEGA", "BucketSums", "CltReport", "DegenerateSpecError",
    "DistributionTable", "DivergentLocalFactorError", "DomainError", "EulerProductResult", "FULL_PLANE",
    "GrowthBound", "LdpPrediction", "LocalSeries", "MultiplicativeSpec", "OMEGA", "PoleError", "SpecGrammarError",
    "StripDomain", "bucket_sums", "bucket_sums_grid", "cexpm1", "check_admissibility_pp", "clog1p", "clt_report",
    "cpow", "eta", "eta_star", "euler_phi_over_n", "g_compensated", "gamma", "geometric_B", "lambda0",
    "ldp_predict", "normal_cdf", "parse_additive", "parse_multiplicative", "partial_sum_grid", "perturbed", "pmf",
    "prime_array", "psi", "psi_grid", "psi_prime_at_zero", "sample", "tabulated_additive",
    "tabulated_multiplicative", "tau_rho", "theta_omega", "twist", "unit", "zeta",
]

# each restated a BucketSums method, a one-line call or the streamed tables
DELETED = [
    "multiplicative_value_table", "additive_value_table", "partial_sum", "twisted_sum", "mgf_exact",
    "mod_poisson_residual", "compensated_sum", "compensated_cumsum", "twisted_mean",
]


def test_the_package_exports_exactly_its_public_names():
    assert len(PUBLIC_NAMES) == 52
    assert sorted(selberg_delange.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(selberg_delange))


def test_a_bare_import_runs_no_engine():
    # euler, exact and stats sit in sys.modules as lazy modules, whose
    # class becomes ModuleType when their code runs
    probe = (
        "import sys, types, selberg_delange\n"
        "print([type(sys.modules['selberg_delange.' + m]) is types.ModuleType for m in ('euler', 'exact', 'stats')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (result.stdout, result.stderr) == ("[False, False, False]\n", "")


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(selberg_delange, name)
    assert not hasattr(exact, name)


def test_each_exported_name_imports():
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from selberg_delange import {name}", namespace)
        assert namespace[name] is getattr(selberg_delange, name)
