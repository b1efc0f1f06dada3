"""The benchmark under perfbench/ wraps program functions at their module
attributes; every attribute it patches must still exist and keep a
compatible call signature.  This only reads perfbench/."""

import os

import pytest

from noisy_sqp import harness
from noisy_sqp.harness import VariantSpec

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import workloads
    return tracer, workloads


def test_patch_sites_exist_and_run(perfbench):
    tracer, workloads = perfbench
    tr = tracer.Tracer()
    trace_patches = tracer.Patches()
    hook_patches = tracer.Patches()
    keeper = workloads.Keeper()
    tracer.install(tr, trace_patches)
    trace_patches.wrap(harness, "solve", keeper.wrap)
    hook = workloads.CellHook(tr, trace_patches, keeper, budget_iters=8)
    hook_patches.wrap(harness, "_run_cell", hook.wrap)

    task = ("unit-circle", VariantSpec("ada", "opt"), 1e-2, 1e-2, 0, "original", (8, 200))
    trace_patches.on()
    hook_patches.on()
    try:
        rec = harness._run_cell(task)
    finally:
        hook_patches.off()
        trace_patches.off()
    assert rec._perfbench["failures"] == []
    assert rec._perfbench["spans"]["counts"]
