"""Tests of the benchmark itself: seeded inputs, the tracer and the checks.

    python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

import layers
import workloads
from extremal_marginals import channels, cli, families
from tracer import Tracer


def _snapshot() -> dict:
    out = {(m.__name__, k): v for m in layers.MODULES + [workloads] for k, v in vars(m).items()}
    out[("Report", "to_json")] = vars(cli.Report)["to_json"]
    out[("json", "dumps")] = json.dumps
    return out


def test_same_seed_same_random_mixed_families_and_counts():
    a = workloads.build_random_mixed(11, count=40)
    b = workloads.build_random_mixed(11, count=40)
    assert [i.label for i in a] == [i.label for i in b]
    for x, y in zip(a, b):
        assert all(np.array_equal(p, q) for p, q in zip(x.family.ops, y.family.ops))
        assert (x.family.exact_ops is None) == (y.family.exact_ops is None)
    ra, rb = workloads.run_pass(a), workloads.run_pass(b)
    assert ra.failures == rb.failures == []
    assert ra.counts == rb.counts
    other = workloads.build_random_mixed(12, count=40)
    assert any(not np.array_equal(x.family.ops[0], y.family.ops[0]) for x, y in zip(a, other))


def test_random_mixed_has_both_verdicts_and_both_modes():
    counts = workloads.run_pass(workloads.build_random_mixed(3, count=200)).counts
    for key in ("integer/extremal", "integer/non-extremal", "gaussian/extremal",
                "gaussian/non-extremal", "mode/exact", "mode/numerical"):
        assert counts[key] > 0, key


def test_tracer_restores_every_wrapped_function():
    before = _snapshot()
    with Tracer() as tr:
        layers.install_layers(tr)
        layers.install_cli(tr)
        during = _snapshot()
        assert sum(during[k] is not v for k, v in before.items()) >= 20
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_on_error():
    before = _snapshot()
    with pytest.raises(RuntimeError), Tracer() as tr:
        layers.install_layers(tr)
        raise RuntimeError("boom")
    after = _snapshot()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    outer = tr._open("outer")
    inner = tr._open("inner")
    tr._close(inner)
    same = tr._open("outer")
    tr._close(same)
    tr._close(outer)
    # The nested "outer" span is not counted twice in busy time.
    assert tr.busy_ms() == {"outer": 10000.0, "inner": 2000.0}
    # Self times: outer 10 - 2 - 2 = 6 s, plus 2 s of the nested outer span.
    assert tr.self_ms() == {"outer": 8000.0, "inner": 2000.0}
    assert tr.top_level_s() == 10.0


def test_traced_pass_sees_the_layers():
    items = workloads.build_random_mixed(5, count=30)
    with Tracer() as tr:
        layers.install_layers(tr)
        res = workloads.run_pass(items)
    m = layers.pass_metrics(tr, res.seconds)
    assert res.failures == []
    assert m["linalg.rank_exact_calls"] > 0 and m["linalg.rank_numerical_calls"] > 0
    assert 0 < m["extremality.exact_share"] < 1
    assert m["channels.json_roundtrip_ms"] > 0 and m["reductions.adjoint_check_ms"] > 0
    assert 0.5 < m["trace.top_level_share"] <= 1.0


def _paper_item(choi_rank: int) -> workloads.Item:
    targets = channels.MarginalPair(rho1=workloads._z1(3, 2), rho2=np.eye(5) / 5)
    expect = {"targets": targets, "choi_rank": choi_rank, "separable": True}
    return workloads.Item("paper 3 2", "builtin", families.shift_family(3, 2), expect)


def test_injected_wrong_expectation_raises_error_rate():
    assert workloads.run_pass([_paper_item(5)]).failures == []
    items = [_paper_item(5), _paper_item(6)]
    res = workloads.run_pass(items)
    assert len(res.failures) / len(items) == 0.5
    assert "choi rank 5" in res.failures[0]


def test_gaussian_item_breaking_the_generic_rule_fails():
    # Two equal operators: r^2 = 4 <= 7 says extremal, but the family is not.
    k = np.array([[1.0, 0.0], [0.0, 0.5j]])
    f = channels.KrausFamily(d_in=2, d_out=2, ops=(k, k))
    res = workloads.run_pass([workloads.Item("gaussian 0", "gaussian", f)])
    assert len(res.failures) == 1 and "generic rule" in res.failures[0]


def test_cli_check_needs_exit_zero_and_passed():
    assert workloads.check_cli(0, json.dumps({"passed": True})) == []
    assert workloads.check_cli(0, json.dumps({"passed": False}))
    assert workloads.check_cli(1, json.dumps({"passed": True}))
    assert workloads.check_cli(0, "not json")


def test_compare_verdicts():
    import compare

    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [x * 0.8 for x in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, lower=True, bound=0.1) == ("improved", 10)
    slower = [x * 1.3 for x in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), lower=True, bound=0.1)[0] == "worse"
    same = parent[::-1]
    assert compare.verdict(parent, same, list(zip(parent, same)), lower=True, bound=0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])), lower=True, bound=0.1)[0] == "unresolved"
