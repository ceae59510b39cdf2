"""Tests of the benchmark's tracing harness.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import sys
import types

import numpy as np
import pytest

from busemann_lab import busemann, cif, cli, lattice, seqmaps, special_functions, stats
from busemann_lab.special_functions import Rng
from layers import LAYERS, Layer, Tracer


def _package_functions():
    """(module, name, value) for every function-valued name in the package."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("busemann_lab."):
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType):
                    out.append((mod, attr, value))
    return out


def test_every_alias_is_patched_and_originals_restored():
    before = _package_functions()
    methods = {m: lattice.WeightField.__dict__[m]
               for m in ("log_weight", "log_weight_block", "log_weight_row")}
    originals = {
        "update_raw": seqmaps.update_raw,
        "keys_for_sites": special_functions.keys_for_sites,
        "ks_one_sample": stats.ks_one_sample,
    }
    with Tracer():
        assert busemann.update_raw is seqmaps.update_raw is not originals["update_raw"]
        assert (lattice.keys_for_sites is special_functions.keys_for_sites
                is cif.keys_for_sites is not originals["keys_for_sites"])
        assert cli.ks_one_sample is stats.ks_one_sample is not originals["ks_one_sample"]
        # No module keeps an unwrapped alias of any wrapped module function.
        wrapped = {
            id(value) for mod, attr, value in before
            for layer in LAYERS for target in layer.targets
            if target == f"{mod.__name__.split('.')[-1]}:{attr}"
        }
        for mod, attr, value in before:
            if id(value) in wrapped:
                assert getattr(mod, attr) is not value, f"{mod.__name__}.{attr}"
        for m, fn in methods.items():
            assert lattice.WeightField.__dict__[m] is not fn
    for mod, attr, value in before:
        assert getattr(mod, attr) is value, f"{mod.__name__}.{attr} not restored"
    for m, fn in methods.items():
        assert lattice.WeightField.__dict__[m] is fn


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")
    mod.clock = clock
    exec(
        "def inner():\n"
        "    clock.advance(2.0)\n"
        "def outer():\n"
        "    clock.advance(1.0)\n"
        "    inner()\n"
        "    clock.advance(0.5)\n"
        "    inner()\n",
        mod.__dict__,
    )
    alias = types.ModuleType("fakepkg.alias")
    alias.inner = mod.inner
    for m in (pkg, mod, alias):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    layers = [Layer("outer", ("calls",), {"work:outer": None}),
              Layer("inner", ("calls",), {"work:inner": None})]
    return Tracer(layers, package="fakepkg", clock=clock), mod, alias, clock


def test_self_time_on_synthetic_nested_call(fake_package):
    tracer, mod, alias, clock = fake_package
    with tracer:
        assert alias.inner is mod.inner
        with tracer.step("root", "cli"):
            clock.advance(0.25)
            mod.outer()
    st = tracer.stats
    assert st["outer"].self_s == pytest.approx(1.5)
    assert st["outer"].total_s == pytest.approx(5.5)
    assert st["inner"].self_s == pytest.approx(4.0)
    assert st["inner"].counts == {"calls": 2}
    assert st["cli"].self_s == pytest.approx(0.25)
    assert st["cli"].total_s == pytest.approx(5.75)
    # Spans: the step and its direct children; the inner calls are aggregated.
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("root", None), ("fakepkg.work.outer", 0)]
    assert tracer.spans[1].end - tracer.spans[1].start == pytest.approx(5.5)


def test_exception_in_wrapped_call_keeps_the_stack_balanced(fake_package):
    tracer, mod, _, clock = fake_package

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    mod.inner = boom
    tracer.layers = (Layer("inner", ("calls",), {"work:inner": None}),)
    with tracer:
        with pytest.raises(ValueError):
            mod.inner()
    assert tracer._stack == []
    assert tracer.stats["inner"].self_s == pytest.approx(1.0)


def test_element_counts_equal_input_sizes():
    rng = np.random.default_rng(0)
    with Tracer() as tracer:
        seqmaps.update_raw(rng.normal(size=17), rng.normal(size=17), 0.0)
        lattice.WeightField(2.0, 1).log_weight_row(0, 9, 1)
        lattice.log_partition(lattice.WeightField(2.0, 1), (0, 0), (3, 4))
        stats.ks_one_sample(rng.uniform(size=25), lambda v: v)
        special_functions.sample_poisson(Rng(3), 2.0, size=7)
        cif._ratio_samples(2.0, 1.0, 3, Rng(5, 1), indicator=False)
    counts = tracer.counts()
    width = busemann._margin(2.0, 1.0) + 3
    assert counts["seqmaps.update_raw.elements"] == 17 + 3 * width
    assert counts["seqmaps.update_raw.calls"] == 1 + 3
    # 10 row sites, the 4 x 5 block of log_partition, 3 rows of width sites.
    assert counts["lattice.weights.sites"] == 10 + 20 + 3 * width
    assert counts["lattice.log_partition.cells"] == 20
    assert counts["stats.ks.samples"] == 25
    assert counts["special_functions.poisson.draws"] == 7
    assert counts["cif.replicas"] == 3
    assert counts["busemann.grids"] == 3
    assert counts["busemann.sites"] == 3 * width
    # Every weight site is one gamma draw from one site key.
    assert counts["special_functions.gamma.elements"] >= counts["lattice.weights.sites"]
