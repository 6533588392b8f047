"""Every fiber report of the benchmark's fixed model pool, byte for byte.

The 1,200 models of ``perfbench/workloads.py:fiber_pool()`` are analysed
and each ``as_report()`` is compared, by digest, with the one recorded in
``perfbench/golden/fibers.json``.  The pool, the timed op and the digest
are imported read-only from the benchmark, so this test and the benchmark
check the same thing.

The a = 0 and b = 0 variants of every pool model, where Delta is 27b^2 or
4a^3 and every gcd of the analysis is nontrivial, are compared with one
digest per stratum in ``tests/golden_variants.json``; an invalid variant is
recorded as its exception's class name.
"""

import json
import types
from pathlib import Path

import pytest

from helpers import load_perfbench
from k3auto import ellsurf, parsing, polyfield

workloads = load_perfbench("workloads")
K3 = types.SimpleNamespace(polyfield=polyfield, ellsurf=ellsurf, parsing=parsing)
POOL = workloads.fiber_pool()
GOLDEN = workloads.load_golden("fibers.json")
VARIANT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_variants.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("field, cap", workloads.FIBER_STRATA)
def test_pool_reports_match_golden_digests(field, cap):
    models = POOL[(field, cap)]
    entries = GOLDEN["strata"][f"{field}/{cap}"]
    assert len(models) == len(entries) == workloads.FIBER_POOL_SIZE
    for (a, b), (expected, _cost) in zip(models, entries):
        _, text = workloads.fiber_op_runner(K3, field, a, b)()
        assert workloads.digest(text) == expected, (field, a, b)


@pytest.mark.parametrize("field, cap", workloads.FIBER_STRATA)
def test_variant_reports_match_golden_digests(field, cap):
    texts = []
    for a, b in POOL[(field, cap)]:
        for variant in (("0", b), (a, "0")):
            try:
                _, text = workloads.fiber_op_runner(K3, field, *variant)()
            except Exception as exc:  # an invalid model, e.g. a = b = 0
                text = type(exc).__name__
            texts.append(text)
    assert workloads.digest("\n".join(texts)) == VARIANT_GOLDEN["strata"][f"{field}/{cap}"]
