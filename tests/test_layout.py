"""The layout states each implemented scheme's exact accounting once: the
catalog and the verifiers both read it, and it loads without numpy."""
import subprocess
import sys

import pytest

from ndtcache import layout
from ndtcache.bounds import achievable_catalog
from ndtcache.model import NetworkConfig
from ndtcache.verify import verify_corner, verify_m1k3


def run_verifier(label, M, K, mu):
    if label == "zf-ia-m1k3":
        return verify_m1k3(0, 2)
    return verify_corner(0, 2, NetworkConfig(M=M, K=K, N=M + K, mu=mu))


@pytest.mark.parametrize("M, K", [(M, K) for M in range(1, 4) for K in range(1, 5)])
def test_catalog_and_verifiers_agree(M, K):
    schemes = layout.accounting(M, K)
    points = [p for p in achievable_catalog(M, K) if p.scheme_label in schemes]
    assert sorted(p.scheme_label for p in points) == sorted(schemes)
    assert {p.mu for p in points} >= {0, 1}
    for p in points:
        mu, *fields = schemes[p.scheme_label]
        report = run_verifier(p.scheme_label, M, K, p.mu)
        assert (p.mu, p.ndt) == (mu, report.ndt)
        assert [report.ndt, report.per_ue_dof, report.rn_dof, report.sum_dof] == fields
        # each user gets one file in the NDT, and the sum DoF adds up the receivers'
        assert report.per_ue_dof == 1 / report.ndt
        assert report.sum_dof == K * report.per_ue_dof + M * report.rn_dof
        assert [r.receiver for r in report.ue_reports] == [f"ue{k}" for k in range(1, K + 1)]
        assert [r.receiver for r in report.rn_reports] == (
            [f"rn{m}" for m in range(1, M + 1)] if report.rn_dof else [])


def test_layout_loads_without_numpy():
    script = f"""
import importlib.util, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
spec = importlib.util.spec_from_file_location("layout", {layout.__file__!r})
module = importlib.util.module_from_spec(spec)
sys.modules["layout"] = module
spec.loader.exec_module(module)
print(module.accounting(1, 3)["zf-ia-m1k3"][:2])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(Fraction(4, 5), Fraction(8, 5))\n"
