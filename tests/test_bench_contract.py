"""The names and the warm-up items of the benchmark in ``perfbench/`` must
keep working against the library: a refactor that deletes or renames a
function the benchmark traces, or breaks a workload, fails here first.
Nothing under ``perfbench/`` is changed."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, imported with
    ``perfbench/`` on ``sys.path``; both are restored afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("checks", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    yield tracing, workloads
    for name in ("checks", "tracing", "workloads"):
        sys.modules.pop(name, None)


def test_traced_functions_resolve(bench):
    tracing, _ = bench
    for module, name, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, name)), (module.__name__, name)


def test_traced_methods_are_defined_on_their_classes(bench):
    tracing, _ = bench
    for cls, name, _ in tracing.METHODS:
        assert name in cls.__dict__, (cls.__name__, name)


@pytest.mark.parametrize("workload", ["pptes_6q", "subtract_2xn", "template_scan"])
def test_warmup_item_passes_its_check(bench, workload):
    _, workloads = bench
    w = workloads.WORKLOADS[workload]()
    inp = w.materialize(w.spec(0, workloads.WARMUP))
    w.check(inp, w.run(inp))
