"""Tests of the benchmark itself: generators, reference checks, tracing.

    python -m pytest perfbench/tests -q
"""
import math
import sys

import numpy as np
import pytest

import nuext
import reference as ref
import tracing
import worker
from nuext.closedforms import radius_block, radius_collinear, radius_johnson
from nuext.witness import selfadjoint_split
from workloads import WORKLOADS, rounds


def _first_rounds(workload, seed, k=2):
    it = rounds(workload, seed)
    return [op for _ in range(k) for op in next(it)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_byte_identical_for_one_seed(workload):
    a = _first_rounds(workload, 7)
    b = _first_rounds(workload, 7)
    assert [(o.kind, o.family, o.label, o.t.tobytes()) for o in a] == [
        (o.kind, o.family, o.label, o.t.tobytes()) for o in b
    ]
    c = _first_rounds(workload, 8)
    assert [o.t.tobytes() for o in a] != [o.t.tobytes() for o in c]


def _upper(l1, l2, z):
    return np.array([[l1, z], [0.0, l2]], dtype=complex)


def _closed_form_cases():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(5):
        phi = rng.uniform(0, 2 * math.pi)
        l1, l2 = rng.uniform(-2, 2, 2) * np.exp(1j * phi)
        z = complex(rng.standard_normal(), rng.standard_normal())
        cases.append((radius_collinear(l1, l2, z), _upper(l1, l2, z)))
        r = rng.uniform(0.2, 2.0)
        e1, e2 = r * np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
        cases.append((radius_johnson(e1, e2, z), _upper(e1, e2, z)))
        b1, b2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        block = np.block([[b1 * np.eye(2), a], [np.zeros((2, 2)), b2 * np.eye(2)]])
        cases.append((radius_block(b1, b2, np.linalg.norm(a, 2))[0], block))
    return cases


@pytest.mark.parametrize("value,m", _closed_form_cases())
def test_enclosure_brackets_closed_forms_and_flags_perturbation(value, m):
    enc = ref.radius_enclosure(m)
    assert ref.check_radius(value, enc) == []
    assert ref.check_radius(value * (1 + 1e-4), enc)
    assert ref.check_radius(value * (1 - 1e-4), enc)


def test_witness_recheck_rejects_tampered_witnesses():
    t = np.diag([1.0, -1.0]).astype(complex)
    enc = ref.radius_enclosure(t)
    w = selfadjoint_split(1.0, -1.0)
    assert ref.check_witness(t, enc, w.t, w.A, w.B) == []
    assert ref.check_witness(t, enc, w.t, 1.1 * w.A, w.B)
    assert ref.check_witness(t, enc, 0.4, w.A, w.B)
    # a part of larger radius that still reproduces the midpoint
    bump = 0.3 * np.eye(2)
    assert ref.check_witness(t, enc, 0.5, t + bump, t - bump)
    assert ref.check_witness(t, enc, 0.5, t, t)


def test_verdict_check_uses_label_and_witness():
    t = 2.0 * np.diag([1.0, -1.0]).astype(complex)
    enc = ref.radius_enclosure(t)
    v = nuext.classify(t)
    parts = (v.witness.t, v.witness.A, v.witness.B)
    ok = ref.check_verdict(t, enc, {"NotExtreme"}, v.kind, v.scale, parts)
    assert ok == []
    assert ref.check_verdict(t, enc, {"Extreme"}, v.kind, v.scale, parts)
    assert ref.check_verdict(t, enc, {"NotExtreme"}, v.kind, v.scale * 1.01, parts)
    assert ref.check_verdict(t, enc, {"NotExtreme"}, v.kind, v.scale, None)
    assert ref.check_verdict(t, enc, {"Extreme"}, "Unknown", v.scale, None) == []


def _bindings():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "nuext" or name.startswith("nuext.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_tracing_patches_every_binding_and_restores_them():
    import nuext.cli  # noqa: F401  (the cli module is patched too)

    before = _bindings()
    t = np.array([[1.0, 0.5], [-0.5, -1.0]], dtype=complex)
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tr:
            for mod in ("nuext", "nuext.classify", "nuext.witness", "nuext.radius"):
                assert hasattr(getattr(sys.modules[mod], "radius_value"), "__wrapped__")
            root = tr.start_op(0, "classify")
            nuext.classify(t)
            tr.end(root)
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    names = {s[1] for s in tr.spans}
    assert {"radius.value", "radius.sweep", "radius.grid", "radius.refine",
            "witness.verify", "classify.dispatch"} <= names
    assert tr.counts["radius.sweeps"] >= 3
    assert tr.counts["radius.refine.kernel_calls"] > 0


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [[0, "a", 0, 100, None, 0], [1, "b", 10, 40, 0, 0], [2, "c", 50, 60, 1, 0]]
    assert tr.self_times_ns() == [70, 20, 10]


def test_one_round_of_classify_2x2_is_correct(tmp_path):
    runner = worker.Runner(tmp_path)
    runner.load()
    tally = worker.closed_loop(runner, "classify-2x2", 3, 0.0)
    assert tally.ops == 9 and tally.failed == 0, tally.problems
    summary = worker.loop_summary(tally)
    assert len(tally.cal_ms) == tally.ops + 1
    assert summary["op_cost_cal"] > 0 and summary["route_cost_gmean_cal"] > 0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "flat-support"]
