"""Every fiber report of the benchmark's fixed model pool, byte for byte.

The 1,200 models of ``perfbench/workloads.py:fiber_pool()`` are analysed
and each ``as_report()`` is compared, by digest, with the one recorded in
``perfbench/golden/fibers.json``.  The pool, the timed op and the digest
are imported read-only from the benchmark, so this test and the benchmark
check the same thing.
"""

import types

import pytest

from helpers import load_workloads
from k3auto import ellsurf, parsing, polyfield

workloads = load_workloads()
K3 = types.SimpleNamespace(polyfield=polyfield, ellsurf=ellsurf, parsing=parsing)
POOL = workloads.fiber_pool()
GOLDEN = workloads.load_golden("fibers.json")


@pytest.mark.parametrize("field, cap", workloads.FIBER_STRATA)
def test_pool_reports_match_golden_digests(field, cap):
    models = POOL[(field, cap)]
    entries = GOLDEN["strata"][f"{field}/{cap}"]
    assert len(models) == len(entries) == workloads.FIBER_POOL_SIZE
    for (a, b), (expected, _cost) in zip(models, entries):
        _, text = workloads.fiber_op_runner(K3, field, a, b)()
        assert workloads.digest(text) == expected, (field, a, b)
