"""The benchmark's golden outputs, checked in the test suite.

Every `serve_estimate`, `mc_table` and `oracle_sweep` pool entry of
``perfbench/`` is run once and compared with its stored golden fingerprint
(exact ``k_hat``, densities to 1e-9, MISE rows to their printed digits),
and the Hermitian probe must refuse its lopsided product.  A change that flips a selected
level fails here, before any benchmark run.  ``perfbench/workloads.py`` is
imported as it stands and is not modified.
"""

import sys
from pathlib import Path

import pytest

import mellin_deconv as md
import mellin_deconv.cli  # noqa: F401  (the mc_table workload drives the CLI)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["serve_estimate", "mc_table", "oracle_sweep"])
def test_every_pool_entry_matches_its_golden(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path)
    golden = workload.load_golden(workloads.GOLDEN_DIR)
    pool = workload.pool()
    assert {op.key for op in pool} == set(golden)
    workload.prepare(pool)
    failures = {}
    for op in pool:
        errs = workload.compare(workload.fingerprint(workload.run(md, op)), golden[op.key])
        if errs:
            failures[op.key] = errs
    assert not failures, failures


def test_hermitian_probe_refuses_lopsided_product(tmp_path):
    assert workloads.ServeEstimate(tmp_path).probes(md) == [None]
