"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import gc
import random
import statistics
import sys
import types

import pytest

import run as bench
import speed
import tracing
from workloads import WORKLOADS, Op, canonical_digest, strip_timing, stratified_sample


def test_p90_has_ten_samples_beyond_from_92_samples():
    assert bench.samples_beyond(100, 0.9) == 10
    assert bench.samples_beyond(92, 0.9) == 10
    assert bench.samples_beyond(91, 0.9) == 9
    assert bench.samples_beyond(12, 0.9) == 2


def test_percentile_interpolates_like_statistics_inclusive():
    data = [float(x * x) for x in range(37)]
    assert bench.percentile(data, 0.9) == pytest.approx(
        statistics.quantiles(data, n=10, method="inclusive")[8])
    assert bench.percentile(data, 0.5) == statistics.median(data)


def test_sampler_leaves_out_probes_and_scales_by_their_mean(monkeypatch):
    clock = [0.0]
    took = iter([2.0, 4.0, 6.0])  # before the call, inside it, after it

    def probe():
        seconds = next(took)
        clock[0] += seconds
        return seconds

    monkeypatch.setattr(speed, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(speed, "probe_seconds", probe)
    sampler = speed.Sampler()

    def work():
        clock[0] += 10.0
        sampler._on_timer(None, None)  # the timer interrupts the call once
        clock[0] += 5.0
        return "done"

    assert sampler.time(work) == ("done", 15.0, speed.REF_S / 4.0)


def test_probe_keeps_the_collector_as_it_was():
    assert speed.probe_seconds() > 0 and gc.isenabled()
    gc.disable()
    try:
        speed.probe_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_coefficient_bits():
    assert bench.coefficient_bits([(-255, 4), (1, 6)]) == (8, 4)  # lcm(4, 6) = 12
    assert bench.coefficient_bits([]) == (0, 0)


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.inner.f, re-exported by fakepkg.outer under the alias g, and
    a class whose __radd__ is its __add__.  Each call advances a fake clock."""
    clock = [0]
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: clock[0])

    def tick(ns):
        clock[0] += ns

    inner = types.ModuleType("fakepkg.inner")

    def f():
        tick(20)

    class Num:
        def __add__(self, other):
            tick(5)
            return self

        __radd__ = __add__

    inner.f, inner.Num = f, Num
    outer = types.ModuleType("fakepkg.outer")
    outer.g = f

    def h():
        tick(10)
        outer.g()
        tick(3)
        inner.f()

    outer.h = h
    package = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", package), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    traced = (
        ("inner", "f", "inner.f", None, None),
        ("inner", "Num.__add__", "inner.add", None, None),
        ("outer", "h", "outer.h", None, None),
    )
    return types.SimpleNamespace(inner=inner, outer=outer, tick=tick, traced=traced, f=f, h=h)


def test_self_time_of_nested_and_aliased_spans(fake_package):
    pkg = fake_package
    tracer = tracing.Tracer()
    tracer.install(package="fakepkg", traced=pkg.traced)
    tracer.enter(tracer.name_id(tracing.OP_SPAN))
    pkg.tick(7)
    pkg.outer.h()
    1 + pkg.inner.Num()  # reaches __add__ through the __radd__ alias
    tracer.exit()
    tracer.uninstall()
    # h calls f once by its alias g and once as inner.f: both are caught
    assert tracer.totals("inner.f") == (2, 40e-9)
    assert tracer.totals("outer.h") == (1, 13e-9)
    assert tracer.totals("inner.add") == (1, 5e-9)
    assert tracer.totals(tracing.OP_SPAN) == (1, 7e-9)
    assert tracer.span_count() == 5
    parents = {tracer.names[tracer.span_name[i]]: tracer.span_parent[i] for i in range(5)}
    assert parents["outer.h"] == 0 and parents["inner.add"] == 0


def test_uninstall_restores_every_alias(fake_package):
    pkg = fake_package
    add = pkg.inner.Num.__dict__["__add__"]
    tracer = tracing.Tracer()
    tracer.install(package="fakepkg", traced=pkg.traced)
    assert pkg.outer.g is not pkg.f and pkg.inner.Num.__dict__["__radd__"] is not add
    tracer.uninstall()
    assert pkg.outer.g is pkg.f and pkg.inner.f is pkg.f and pkg.outer.h is pkg.h
    assert pkg.inner.Num.__dict__["__add__"] is add and pkg.inner.Num.__dict__["__radd__"] is add


def _pass(name, seed):
    pool, _ = bench.load_reference(name)
    return [(op.key, op.kind, op.args) for op in WORKLOADS[name].pass_ops(pool, seed)]


@pytest.mark.parametrize("name", ["loop-invariant", "certify", "cli"])
def test_seed_fixes_the_inputs(name):
    assert _pass(name, 1) == _pass(name, 1)
    assert _pass(name, 1) != _pass(name, 2)


def test_every_drawn_op_has_a_pinned_digest():
    for name in WORKLOADS:
        _, expected = bench.load_reference(name)
        assert all(key in expected for key, _, _ in _pass(name, 5))


def test_loop_invariant_pass_shape_is_fixed():
    for seed in (1, 2):
        ops = _pass("loop-invariant", seed)
        assert len(ops) == 48
        assert sorted(kind for _, kind, _ in ops) == sorted(["w", "conj", "inv"] * 16)


@pytest.mark.parametrize("name", ["loop-invariant", "cli"])
def test_pass_cost_hardly_depends_on_the_seed(name):
    pool, _ = bench.load_reference(name)
    cost = {(e["key"], kind): c for e in pool for kind, c in e["cost_s"].items()}
    totals = []
    for seed in range(10):
        ops = WORKLOADS[name].pass_ops(pool, seed)
        totals.append(sum(cost[op.key, op.kind] for op in ops))
    assert max(totals) / min(totals) < 1.1


def test_stratified_sample_takes_one_op_per_cost_group():
    ops = [(float(c), Op(f"k{c:02d}", "x", ())) for c in range(12)]
    for seed in range(5):
        drawn = stratified_sample(random.Random(seed), ops, 4)
        assert [int(op.key[1:]) // 3 for op in drawn] == [0, 1, 2, 3]


def test_cli_pass_runs_the_costliest_command_of_each_kind():
    pool, _ = bench.load_reference("cli")
    top = {}
    for entry in pool:
        cost = entry["cost_s"][entry["kind"]]
        if entry["kind"] != "heavy" and cost > top.get(entry["kind"], ("", -1))[1]:
            top[entry["kind"]] = entry["key"], cost
    for seed in range(5):
        keys = {key for key, _, _ in _pass("cli", seed)}
        assert all(key in keys for key, _ in top.values())


def test_cli_pass_builds_before_checking():
    for seed in range(20):
        keys = [key for key, _, _ in _pass("cli", seed)]
        assert keys.index("build-expansion") < keys.index("check-expansion")


def test_digest_ignores_timing_params():
    def cert(**params):
        return {"check": "builder", "status": "pass", "params": params}

    a = cert(truncation=6, genus1_seconds=0.12, genus3_seconds=4.1, seconds=0.5)
    b = cert(truncation=6, genus1_seconds=0.31, genus3_seconds=9.9, seconds=0.7)
    c = cert(truncation=5, genus1_seconds=0.12, genus3_seconds=4.1, seconds=0.5)
    assert canonical_digest(strip_timing(a)) == canonical_digest(strip_timing(b))
    assert canonical_digest(strip_timing(a)) != canonical_digest(strip_timing(c))
    assert strip_timing(a)["params"] == {"truncation": 6}
