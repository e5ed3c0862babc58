"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import seeds  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_seed_zero_is_the_paper_config_and_seeds_repeat():
    assert seeds.inputs_for_seed(0) == seeds.Inputs(97, 1, 1)
    assert seeds.inputs_for_seed(0).sequence == ("x", "y")
    primes = set(seeds.primes_between(2, seeds.P_MAX))
    for seed in (1, 2, 12345, 2**40):
        a, b = seeds.inputs_for_seed(seed), seeds.inputs_for_seed(seed)
        assert a == b
        assert seeds.P_MIN <= a.prime <= seeds.P_MAX and a.prime in primes
        assert 0 < a.a < a.prime and 0 < a.b < a.prime
        assert a.sequence == tuple(v if c == 1 else f"{c}*{v}" for c, v in ((a.a, "x"), (a.b, "y")))
    assert len({seeds.inputs_for_seed(s) for s in range(1, 30)}) > 25


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return g(x) + 1

    def g(x):
        if x < 0:
            raise ValueError(x)
        return x

    class C:
        def m(self):
            return 7

    a.f, a.g, a.C = f, g, C
    b.f = f  # bound by "from .a import f"
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_tracer_rebinds_every_alias_and_restores_it(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    a, b = mods["fakepkg.a"], mods["fakepkg.b"]
    f, C, m = a.f, a.C, a.C.__dict__["m"]
    tr = Tracer("fakepkg")
    tr.wrap_function(a, "f", "a.f")
    tr.wrap_method(C, "m", "a.C.m", count_only=True)
    assert a.f is not f and b.f is a.f
    assert b.f(2) == 3 and C().m() == 7
    assert [s.name for s in tr.spans] == ["a.f"] and tr.calls["a.C.m"] == 1
    try:
        b.f(-1)
    except ValueError:
        pass
    assert tr.errors["a.f"] == 1
    tr.restore()
    assert a.f is f and b.f is f and C.__dict__["m"] is m


def test_dflab_tracing_restores_every_patched_attribute():
    import layers

    def snapshot():
        owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("dflab")]
        owners += [cls for cls, _, _ in layers.COUNTED] + [layers.fieldla.ColumnSpace]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    tr = Tracer("dflab")
    layers.install(tr)
    during = snapshot()
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) >= len(layers.FUNCTIONS) + len(layers.COUNTED)
    tr.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_plus_children_is_duration():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, None),
        Span("a", 1.0, 4.0, 0, 1, None),
        Span("b", 5.0, 9.0, 0, 1, None),
        Span("c", 6.0, 7.5, 2, 1, None),
        Span("d", 7.5, 8.0, 2, 1, None),
    ]
    own = self_times(spans)
    assert own == [3.0, 3.0, 2.0, 1.5, 0.5]
    for i, s in enumerate(spans):
        kids = sum(c.end - c.start for c in spans if c.parent == i)
        assert own[i] + kids == s.end - s.start


def test_failing_calls_count_against_pass_ratio(monkeypatch):
    outcomes = iter([([], "ok"), RuntimeError("boom"), (["pass = false"], "ok")])

    def fake(workload, cfg):
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(worker, "check_call", fake)
    calls = [c for _ in range(3) for c in worker.closed_loop("cube", None, 0)]
    assert [bool(c["failed"]) for c in calls] == [False, True, True]
    assert "boom" in calls[1]["failed"][0] and calls[2]["failed"] == ["pass = false"]
    metrics = run.end_to_end([0.2], {"calls": calls, "peak_rss_mb": 1.0})
    assert metrics["pass_ratio"] == 1 / 3


def test_a_changed_dims_table_fails_the_call(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "cube", lambda cfg: ([], "0" * 16))
    reasons, digest = workloads.check_call("cube", None)
    assert digest == "0" * 16 and reasons and "digest" in reasons[0]


def test_tail_needs_ten_samples_beyond_it_or_a_quarter():
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
    for n, beyond in ((8, 2), (39, 9), (40, 10), (100, 10)):
        samples = [float(i) for i in range(n)]
        t = run.tail(samples)
        assert sum(s > t for s in samples) == beyond
