"""Tests of the benchmark's instance builder, counters and answer checker.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from build import Spec, build_case  # noqa: E402
from workloads import Workload  # noqa: E402

FREE_PACK = Workload(("pack",), ((1, Spec(6, "free", 2, 2, 3)),))
MIXED_PACK = Workload(("pack",), (
    (1, Spec(6, "uniform", 3, 2, 3)),
    (1, Spec(6, "free", 2, 2, 3, negative=True)),
))
MINCOST = Workload(("mincost",), ((2, Spec(5, "free", 2, 2, 3, costs=True)),))


def traced_pass(workload, tmp_path, seed=3):
    _, cases, paths = run.set_up(workload, seed, tmp_path / "work")
    tracer = spans.Tracer()
    tracer.install()
    try:
        ps = run.run_pass(list(workload.argv), paths, tracer)
    finally:
        tracer.uninstall()
    return cases, ps, tracer.summary(per_request=[run.ORIENT_CHECK])


def test_builder_is_seeded():
    spec = Spec(8, "partition", 4, 3, 5, directed=False)
    assert build_case(5, "x", spec).text == build_case(5, "x", spec).text
    assert build_case(5, "x", spec).text != build_case(6, "x", spec).text


def test_counts_repeat_exactly(tmp_path):
    first = traced_pass(MIXED_PACK, tmp_path)[2]
    second = traced_pass(MIXED_PACK, tmp_path)[2]
    assert run.span_counts(first) == run.span_counts(second)
    assert first["calls"]["cli.run_command"] == 2


def test_free_pack_one_sfm_call_per_step(tmp_path):
    cases, ps, summary = traced_pass(FREE_PACK, tmp_path)
    assert ps.outcomes[0][1] == 0
    spec = cases[0].spec
    steps = summary["events"]["packing.steps"]
    # each step adds one root; the base case has a base, k roots, everywhere
    assert steps == spec.k * spec.n - spec.t
    calls = summary["calls"]
    assert calls["sfm.minimize"] == steps + 1
    assert calls["packing.find_reduction"] == steps + 1
    # brute force evaluates every nonempty subset of the 6 vertices
    assert calls["sfm.evaluate"] == calls["sfm.minimize"] * (2 ** 6 - 1)
    metrics = run.layer_metrics(summary, cases, 0.0)
    assert metrics["packing.candidates"][0] == steps
    assert metrics["packing.candidate_yield"][0] == 1.0


def test_mincost_separates_once_per_lp(tmp_path):
    cases, ps, summary = traced_pass(MINCOST, tmp_path)
    assert [o[1] for o in ps.outcomes] == [0, 0]
    calls = summary["calls"]
    assert calls["lp.solve_lp"] >= 2
    assert calls["polytope.separate"] == calls["lp.solve_lp"]


def _answer(workload, tmp_path, index):
    _, cases, paths = run.set_up(workload, 3, tmp_path / "work")
    ps = run.run_pass(list(workload.argv), paths)
    case = cases[index]
    _, code, out = ps.outcomes[index]
    inst, costs = check.parse_case(case)
    return case, inst, costs, code, json.loads(out)


def test_checker_flags_tampered_packing(tmp_path):
    case, inst, costs, code, doc = _answer(MIXED_PACK, tmp_path, 0)
    assert check.check_answer(case, inst, costs, code, doc) is None
    tree = max(doc["payload"]["trees"], key=lambda t: len(t["arcs"]))
    tree["arcs"].pop()
    assert check.check_answer(case, inst, costs, code, doc) is not None


def test_checker_flags_tampered_certificate(tmp_path):
    case, inst, costs, code, doc = _answer(MIXED_PACK, tmp_path, 1)
    assert code == 2
    assert check.check_answer(case, inst, costs, code, doc) is None
    # the whole vertex set has deficiency 0, so it certifies nothing
    doc["payload"]["vertex_set"] = list(inst.vertices)
    assert check.check_answer(case, inst, costs, code, doc) is not None


def test_checker_flags_wrong_verdict(tmp_path):
    case, inst, costs, code, doc = _answer(MIXED_PACK, tmp_path, 1)
    assert check.check_answer(case, inst, costs, 0, doc) is not None
