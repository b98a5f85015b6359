import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    cut_copy,
    cut_graph,
    planted_digraph,
    planted_graph,
    primed_path,
)
from arbopack import instances
from arbopack.cli import run_command
from arbopack.graphs import RootedDigraph, RootedGraph
from arbopack.matroid import LinearMatroid, MatroidError
from arbopack.instances import (
    ParseError,
    emit_instance,
    generate_instance,
    parse_instance,
)

MINIMAL_DIRECTED = {
    "version": 1,
    "vertices": ["a", "b"],
    "arcs": [{"id": "a1", "tail": "a", "head": "b"}],
    "roots": [{"element": "s1", "vertex": "a"}],
    "matroid": {"type": "free"},
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


def run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -- parsing -----------------------------------------------------------------------


def test_parse_minimal_directed():
    inst, extras = parse_instance(json.dumps(MINIMAL_DIRECTED))
    assert isinstance(inst, RootedDigraph)
    assert len(inst.vertices) == 2 and len(inst.arcs) == 1
    assert extras == {}


def test_parse_unknown_matroid_type():
    doc = dict(MINIMAL_DIRECTED, matroid={"type": "transversal"})
    with pytest.raises(ParseError, match="unknown matroid type"):
        parse_instance(json.dumps(doc))


def test_parse_duplicate_arc_id():
    doc = dict(MINIMAL_DIRECTED)
    doc["arcs"] = doc["arcs"] + [{"id": "a1", "tail": "b", "head": "a"}]
    with pytest.raises(ParseError, match="duplicate arc ids"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_both_arcs_and_edges():
    doc = dict(MINIMAL_DIRECTED, edges=[])
    with pytest.raises(ParseError, match="exactly one"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_unknown_fields():
    doc = dict(MINIMAL_DIRECTED, shenanigans=1)
    with pytest.raises(ParseError, match="unknown fields"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("change, where", [
    ({"matroid": {"type": "linear", "prime": 3, "columns": {"s1": 5}}},
     "matroid.columns.s1"),
    ({"matroid": {"type": "partition",
                  "blocks": [{"elements": 5, "cap": 1}]}},
     "matroid.blocks[0].elements"),
    ({"matroid": {"type": "graphic", "edges": [5]}}, "matroid.edges[0]"),
    ({"matroid": {"type": "explicit", "bases": [5]}}, "matroid.bases[0]"),
    ({"version": True}, "version"),
    ({"matroid": {"type": "uniform", "rank": True}}, "matroid.rank"),
    ({"matroid": {"type": "partition",
                  "blocks": [{"elements": ["s1"], "cap": False}]}},
     "matroid.blocks[0].cap"),
    ({"matroid": {"type": "linear", "prime": True, "columns": {"s1": [1]}}},
     "matroid.prime"),
    ({"bound": True}, "bound"),
    ({"arcs": [5]}, "arcs[0]"),
], ids=["linear-column", "partition-elements", "graphic-edge", "explicit-base",
        "version-bool", "rank-bool", "cap-bool", "prime-bool", "bound-bool",
        "arc"])
def test_parse_rejects_malformed_fragments(tmp_path, capsys, change, where):
    doc = dict(MINIMAL_DIRECTED, **change)
    with pytest.raises(ParseError) as info:
        parse_instance(json.dumps(doc))
    assert info.value.path == where
    code, out = run(capsys, ["check", write(tmp_path, "i.json", doc)])
    assert code == 1 and out["payload"]["kind"] == "ParseError"
    assert out["payload"]["message"].startswith(where + ": ")


MINIMAL_UNDIRECTED = dict(
    {k: v for k, v in MINIMAL_DIRECTED.items() if k != "arcs"},
    edges=[{"id": "e1", "ends": ["a", "b"]}])


@pytest.mark.parametrize("doc, field, where", [
    (MINIMAL_DIRECTED, ("roots", "element"), "roots[0].element"),
    (MINIMAL_DIRECTED, ("roots", "vertex"), "roots[0].vertex"),
    (MINIMAL_DIRECTED, ("arcs", "id"), "arcs[0].id"),
    (MINIMAL_DIRECTED, ("arcs", "tail"), "arcs[0].tail"),
    (MINIMAL_DIRECTED, ("arcs", "head"), "arcs[0].head"),
    (MINIMAL_UNDIRECTED, ("edges", "id"), "edges[0].id"),
    (MINIMAL_UNDIRECTED, ("edges", "ends", 0), "edges[0].ends[0]"),
    (MINIMAL_UNDIRECTED, ("edges", "ends", 1), "edges[0].ends[1]"),
])
@pytest.mark.parametrize("value", [None, 7])
def test_parse_rejects_ids_that_are_not_strings(tmp_path, capsys, doc, field,
                                                where, value):
    doc = json.loads(json.dumps(doc))
    item = doc[field[0]][0]
    for key in field[1:-1]:
        item = item[key]
    item[field[-1]] = value
    with pytest.raises(ParseError) as info:
        parse_instance(json.dumps(doc))
    assert info.value.path == where
    cmd = "pack" if "arcs" in doc else "pack-undirected"
    code, out = run(capsys, [cmd, write(tmp_path, "i.json", doc)])
    assert code == 1 and out["payload"]["kind"] == "ParseError"
    assert out["payload"]["message"] == where + ": must be a string"


@pytest.mark.parametrize("prime", [561, 3215031751, 318665857834031151167461,
                                   (2 ** 13 - 1) * (2 ** 61 - 1)],
                         ids=["carmichael", "strong-pseudoprime",
                              "pseudoprime-to-bases-2-to-37", "large"])
def test_composite_modulus_is_rejected(prime):
    with pytest.raises(MatroidError, match="is not prime"):
        LinearMatroid(prime, {"s1": [1]})


def test_large_prime_parses_quickly():
    doc = dict(MINIMAL_DIRECTED, matroid={"type": "linear",
                                          "prime": 2 ** 61 - 1,
                                          "columns": {"s1": [1]}})
    start = time.perf_counter()
    inst, _ = parse_instance(json.dumps(doc))
    assert time.perf_counter() - start < 0.5
    assert inst.matroid.prime == 2 ** 61 - 1


def test_modulus_above_the_primality_bound_is_rejected():
    with pytest.raises(MatroidError, match="above the primality test's bound"):
        LinearMatroid(2 ** 89 - 1, {"s1": [1]})


def test_huge_prime_is_an_error_envelope(tmp_path, capsys):
    # a modulus beyond float range is tested for primality in integers
    doc = dict(MINIMAL_DIRECTED, matroid={"type": "linear", "prime": 10 ** 400,
                                          "columns": {"s1": [1]}})
    code, out = run(capsys, ["check", write(tmp_path, "i.json", doc)])
    assert code == 1 and out["payload"]["kind"] == "MatroidError"
    assert "is not prime" in out["payload"]["message"]


def test_round_trip_identity():
    for seed in range(20):
        text = generate_instance(seed, n=4, m=5, t=2, matroid_kind="free",
                                 directed=seed % 2 == 0)
        inst, extras = parse_instance(text)
        again = emit_instance(inst, costs=extras.get("costs"),
                              bound=extras.get("bound"))
        inst2, _ = parse_instance(again)
        assert inst.vertices == inst2.vertices
        assert inst.roots == inst2.roots
        if isinstance(inst, RootedDigraph):
            assert inst.arcs == inst2.arcs
        else:
            assert inst.edges == inst2.edges
        assert emit_instance(inst2) == emit_instance(inst)


# -- generator ----------------------------------------------------------------------


def test_generator_deterministic():
    a = generate_instance(42, n=4, m=6, t=2)
    b = generate_instance(42, n=4, m=6, t=2)
    assert a == b


def test_generator_parameter_echo():
    inst, _ = parse_instance(generate_instance(7, n=4, m=6, t=2))
    assert len(inst.vertices) == 4
    assert len(inst.arcs) == 6
    assert len(inst.roots) == 2


def test_generator_feasible_bias():
    from arbopack.connectivity import check_m_connected

    for seed in range(100):
        text = generate_instance(seed, n=4, m=7, t=2, feasible_bias=True)
        inst, _ = parse_instance(text)
        assert check_m_connected(inst).ok, "seed %d" % seed


def test_gen_corpus_script_runs_from_a_plain_checkout(tmp_path):
    # no install and no PYTHONPATH: the script finds src/ next to itself
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
        "gen_corpus.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), "out", "--count", "6"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    files = sorted((tmp_path / "out").iterdir())
    assert len(files) == 6
    for f in files:
        inst, _ = parse_instance(f.read_text())
        assert isinstance(inst, RootedGraph if f.name.startswith("graph")
                          else RootedDigraph), f.name


@pytest.mark.parametrize("script, call", [
    ("bench_pack", "run_one(src, 'pack', 256)"),
    ("bench_pack", "run_one(src, 'pack-undirected', 256)"),
    ("bench_mincost", "run_fresh(src, 8, 'planted')"),
    ("bench_mincost", "run_fresh(src, 8, 'noise-first')"),
])
def test_scale_scripts_run_their_smallest_size(script, call):
    # the scripts rebind private library functions to time them, so a
    # changed signature breaks them; each runs in a process of its own,
    # with the library of this checkout and no PYTHONPATH
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("import json, sys; sys.path.insert(0, %r); import %s as bench; "
            "src = %r; print(json.dumps(bench.%s))"
            % (str(root / "scripts"), script, str(root / "src"), call))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)
    assert "stop" not in row and ("trees" in row or "cost" in row), row


def test_gen_matroid_kind_is_free_uniform_or_uniform_digits(capsys):
    # uniform-1 used to write rank -1, which no command reads back, and
    # int() let "uniform 2" through
    base = ["gen", "--seed", "1", "--n", "3", "--m", "3", "--t", "2"]
    for kind in ("uniform-1", "uniform 2", "uniform+2", "uniform\u00b2",
                 "uniformx", "partition", "Uniform2"):
        code, out = run(capsys, base + ["--matroid", kind])
        assert code == 1 and out["status"] == "error", kind
        assert out["payload"]["kind"] == "GenerationError", kind
    for kind, rank in (("free", None), ("uniform", None), ("uniform0", 0),
                       ("uniform2", 2), ("uniform007", 7)):
        for extra in ([], ["--undirected"]):
            code, doc = run(capsys, base + extra + ["--matroid", kind])
            assert code == 0, (kind, extra)
            inst, _ = parse_instance(json.dumps(doc))
            assert len(inst.vertices) == 3 and len(inst.roots) == 2
            if rank is not None:
                assert doc["matroid"] == {"type": "uniform", "rank": rank}


# -- CLI ---------------------------------------------------------------------------------


def test_check_feasible_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    code, doc = run(capsys, ["check", path])
    assert code == 0
    assert doc["status"] == "ok"


def test_pack_infeasible_exit_two(tmp_path, capsys):
    bad = dict(MINIMAL_DIRECTED, arcs=[])
    path = write(tmp_path, "i.json", bad)
    code, doc = run(capsys, ["pack", path])
    assert code == 2
    assert doc["status"] == "certificate"
    assert doc["payload"]["kind"] == "violated-set"


def test_pack_then_verify(tmp_path, capsys):
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    code, doc = run(capsys, ["pack", path])
    assert code == 0 and doc["status"] == "packing"
    rpath = write(tmp_path, "r.json", json.dumps(doc))
    code, vdoc = run(capsys, ["verify", path, rpath])
    assert code == 0 and vdoc["status"] == "ok"


def test_verify_tampered_packing(tmp_path, capsys):
    doc = {
        "version": 1,
        "vertices": ["a", "b"],
        "arcs": [{"id": "a1", "tail": "a", "head": "b"}],
        "roots": [{"element": "s1", "vertex": "a"},
                  {"element": "s2", "vertex": "a"}],
        "matroid": {"type": "uniform", "rank": 1},
    }
    path = write(tmp_path, "i.json", doc)
    tampered = {"payload": {"trees": [
        {"root_element": "s1", "root_vertex": "a", "arcs": ["a1"]},
        {"root_element": "s2", "root_vertex": "a", "arcs": ["a1"]},
    ]}}
    rpath = write(tmp_path, "r.json", json.dumps(tampered))
    code, vdoc = run(capsys, ["verify", path, rpath])
    assert code == 2
    assert vdoc["payload"]["reason"] == "duplicate-arc"


@pytest.mark.parametrize("trees, reason, detail", [
    ([("s1", "a", ["e1", "e2", "e3"])], "not-a-tree", "s1"),  # a cycle
    ([("s1", "a", ["e2"])], "not-a-tree", "s1"),  # b-c misses the root a
    ([("s1", "a", ["e1", "e9"])], "unknown-edge", "e9"),
], ids=["cycle", "misses-its-root", "unknown-edge"])
def test_verify_undirected_failures(tmp_path, capsys, trees, reason, detail):
    doc = {"version": 1, "vertices": ["a", "b", "c"],
           "edges": [{"id": "e1", "ends": ["a", "b"]},
                     {"id": "e2", "ends": ["b", "c"]},
                     {"id": "e3", "ends": ["c", "a"]}],
           "roots": [{"element": "s1", "vertex": "a"}],
           "matroid": {"type": "free"}}
    packing_doc = {"payload": {"trees": [
        {"root_element": e, "root_vertex": v, "edges": ids}
        for e, v, ids in trees]}}
    code, out = run(capsys, ["verify", write(tmp_path, "i.json", doc),
                             write(tmp_path, "r.json", packing_doc)])
    assert code == 2 and out["status"] == "certificate"
    assert out["payload"] == {"kind": "invalid-packing", "reason": reason,
                              "detail": detail}


@pytest.mark.parametrize("packing_doc", [
    [{"root_element": "s1", "root_vertex": "a", "arcs": ["a1"]}],
    {"payload": {"trees": [{"root_element": "s1", "arcs": ["a1"]}]}},
    {"payload": {"trees": [{"root_element": "s1", "root_vertex": "a",
                            "arcs": 5}]}},
], ids=["top-level-list", "no-root-vertex", "arcs-not-a-list"])
def test_verify_malformed_packing_is_parse_error(tmp_path, capsys, packing_doc):
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    rpath = write(tmp_path, "r.json", json.dumps(packing_doc))
    code, doc = run(capsys, ["verify", path, rpath])
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["kind"] == "ParseError"


@pytest.mark.parametrize("key", ["arcs", "edges"])
def test_verify_rejects_a_repeated_id_in_one_tree(tmp_path, capsys, key):
    import jsonschema

    if key == "arcs":
        doc = MINIMAL_DIRECTED
    else:
        doc = {"version": 1, "vertices": ["a", "b"],
               "edges": [{"id": "a1", "ends": ["a", "b"]}],
               "roots": [{"element": "s1", "vertex": "a"}],
               "matroid": {"type": "free"}}
    path = write(tmp_path, "i.json", doc)
    _, packed = run(capsys, ["pack" if key == "arcs" else "pack-undirected",
                             path])
    schema = json.loads((pathlib.Path(__file__).resolve().parents[1] / "docs"
                         / "result-schema.json").read_text())
    jsonschema.validate(packed, schema)
    assert packed["payload"]["trees"][0][key] == ["a1"]
    packed["payload"]["trees"][0][key] = ["a1", "a1"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(packed, schema)
    code, out = run(capsys, ["verify", path,
                             write(tmp_path, "r.json", packed)])
    assert code == 1 and out["status"] == "error"
    assert out["payload"] == {
        "kind": "ParseError",
        "message": "payload.trees[0].%s: repeats the id 'a1'" % key}


def test_pack_is_the_same_under_every_engine(tmp_path, capsys):
    # the engine decides the input check only: stdout, less provenance, and
    # the --trace steps on stderr agree, on positives and on negatives
    rng = random.Random(808)
    cases = [planted_digraph(rng, n, kind) for n in (4, 6, 9)
             for kind in ("free", "uniform", "partition", "graphic", "linear")]
    cases += [cut_copy(inst) for inst in cases[::3]]
    codes = set()
    for i, inst in enumerate(cases):
        path = str(tmp_path / ("i%d.json" % i))
        pathlib.Path(path).write_text(emit_instance(inst))
        seen = []
        for engine in ("flow", "brute", "min-norm-point"):
            code = run_command(["--engine", engine, "--trace", "pack", path])
            out, err = capsys.readouterr()
            doc = json.loads(out)
            assert doc["provenance"].pop("engine") == engine
            doc["provenance"]["command"].remove(engine)
            seen.append((code, doc, err))
        assert seen[1] == seen[0] and seen[2] == seen[0], inst
        code, _, err = seen[0]
        assert bool(err) == (code == 0), inst
        codes.add(code)
    assert codes == {0, 2}


def test_undirected_answers_are_the_same_under_every_engine(tmp_path, capsys):
    # the orientation greedy's steps are flows under every engine, which
    # decides the check of a positive only: stdout agrees, less provenance
    rng = random.Random(809)
    cases = [planted_graph(rng, n, kind) for n in (4, 6, 9)
             for kind in ("free", "uniform", "partition", "graphic", "linear")]
    cases += [cut_graph(g) for g in cases]
    codes = set()
    for i, g in enumerate(cases):
        path = str(tmp_path / ("g%d.json" % i))
        pathlib.Path(path).write_text(emit_instance(g))
        for cmd in ("pack-undirected", "orient"):
            seen = []
            for engine in ("flow", "brute", "min-norm-point"):
                code, doc = run(capsys, ["--engine", engine, cmd, path])
                assert doc["provenance"].pop("engine") == engine
                doc["provenance"]["command"].remove(engine)
                seen.append((code, doc))
            assert seen[1] == seen[0] and seen[2] == seen[0], (cmd, g)
            codes.add(seen[0][0])
    assert codes == {0, 2}


def test_parse_error_exit_one(tmp_path, capsys):
    path = write(tmp_path, "i.json", "{not json")
    code, doc = run(capsys, ["check", path])
    assert code == 1
    assert doc["status"] == "error"


@pytest.mark.parametrize("argv, kind", [
    (["pack", "{missing}"], "FileNotFoundError"),
    (["pack", "{dir}"], "IsADirectoryError"),
    (["verify", "{instance}", "{missing}"], "FileNotFoundError"),
])
def test_unreadable_file_is_an_error_envelope(tmp_path, capsys, argv, kind):
    names = {"missing": str(tmp_path / "missing.json"), "dir": str(tmp_path),
             "instance": write(tmp_path, "i.json", MINIMAL_DIRECTED)}
    argv = [a.format(**names) for a in argv]
    code, doc = run(capsys, argv)
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["kind"] == kind
    assert doc["provenance"] == {"command": argv}


@pytest.mark.parametrize("argv, message", [
    (["--engine", "foo", "pack", "x"], "arbopack: argument --engine: invalid "
     "choice: 'foo' (choose from 'flow', 'brute', 'min-norm-point')"),
    (["pack"], "arbopack pack: the following arguments are required: "
     "instance"),
])
def test_argument_error_is_an_error_envelope(capsys, argv, message):
    # not argparse's usage text and exit 2, the certified-negative code
    code = run_command(argv)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "status": "error", "payload": {"kind": "UsageError",
                                       "message": message},
        "provenance": {"command": argv}}


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        run_command(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: arbopack")


def test_mincost_cli(tmp_path, capsys):
    doc = {
        "version": 1,
        "vertices": ["a", "b"],
        "arcs": [{"id": "r1", "tail": "a", "head": "b"},
                 {"id": "r2", "tail": "a", "head": "b"},
                 {"id": "r3", "tail": "a", "head": "b"}],
        "roots": [{"element": "s1", "vertex": "a"},
                  {"element": "s2", "vertex": "a"}],
        "matroid": {"type": "free"},
        "costs": {"r1": 1, "r2": 5, "r3": 2},
    }
    path = write(tmp_path, "i.json", doc)
    code, out = run(capsys, ["mincost", path])
    assert code == 0
    assert out["payload"]["cost"] == 3


MINCOST_DOC = {
    "version": 1,
    "vertices": ["a", "b"],
    "arcs": [{"id": "r1", "tail": "a", "head": "b"},
             {"id": "r2", "tail": "a", "head": "b"},
             {"id": "r3", "tail": "a", "head": "b"}],
    "roots": [{"element": "s1", "vertex": "a"},
              {"element": "s2", "vertex": "a"}],
    "matroid": {"type": "free"},
    "costs": {"r1": 1, "r2": 5, "r3": 2},
}


# the d(v) cheapest arcs into a and b form the cycle a-b, which the cut
# on {a, b} rejects
CYCLE_FIRST_DOC = {
    "version": 1,
    "vertices": ["r", "a", "b"],
    "arcs": [{"id": "ra", "tail": "r", "head": "a"},
             {"id": "rb", "tail": "r", "head": "b"},
             {"id": "ab", "tail": "a", "head": "b"},
             {"id": "ba", "tail": "b", "head": "a"}],
    "roots": [{"element": "s1", "vertex": "r"}],
    "matroid": {"type": "free"},
    "costs": {"ra": 10, "rb": 10, "ab": 1, "ba": 1},
}


def test_mincost_lp_trace_reports_pivots(tmp_path, capsys):
    for doc, objectives in ((MINCOST_DOC, ["3"]),
                            (CYCLE_FIRST_DOC, ["2", "11"])):
        path = write(tmp_path, "i.json", doc)
        assert run_command(["mincost", path]) == 0
        plain = capsys.readouterr()
        assert run_command(["--lp-trace", "mincost", path]) == 0
        traced = capsys.readouterr()
        assert plain.err == ""
        assert (json.loads(traced.out)["payload"]
                == json.loads(plain.out)["payload"])
        lines = [json.loads(line) for line in traced.err.splitlines()]
        assert lines and all(set(line) == {"objective", "pivots", "x"}
                             for line in lines)
        assert [line["objective"] for line in lines] == objectives
        assert lines[0]["pivots"] == 0  # the greedy point solves no LP
        assert all(line["pivots"] > 0 for line in lines[1:])  # cut off


def test_mincost_lp_trace_is_the_same_under_every_engine(tmp_path, capsys):
    # the engine decides mincost's check of its input alone: separation
    # runs flows on 0/1 points and min-norm-point on fractional ones
    # whatever it is, so the payload and the --lp-trace lines are the same
    # bytes; only the provenance names the engine.  Noise-first instances
    # (one root, 4n arcs, the planted arcs dearest) reach fractional LP
    # points
    fractional = 0
    for seed in (7, 8, 9):
        for n in (8, 12, 16):
            doc = json.loads(instances._generate_raw(
                random.Random(seed), n, 4 * n, 1, "free", True, True, True))
            for a in range(n - 1):
                doc["costs"]["a%d" % a] += 1000
            path = write(tmp_path, "i.json", doc)
            runs = []
            for engine in ("flow", "brute", "min-norm-point"):
                argv = ["--engine", engine, "--lp-trace", "mincost", path]
                assert run_command(argv) == 0
                out, err = capsys.readouterr()
                result = json.loads(out)
                assert result.pop("provenance") == {"command": argv,
                                                    "engine": engine}
                runs.append((json.dumps(result, sort_keys=True), err))
            assert runs[1:] == runs[:1] * 2, (seed, n)
            fractional += sum("/" in "".join(json.loads(line)["x"].values())
                              for line in runs[0][1].splitlines())
    assert fractional > 0


@pytest.mark.parametrize("value, cost", [
    (7, 7), (-3, -3), ("12", 12), ("007", 7), ("5/3", Fraction(5, 3)),
    ("-4/6", Fraction(-2, 3)),
    (1.5, None), (True, None), (None, None), ([1], None), ("1e5", None),
    (" 3 ", None), ("3\n", None), ("1.5", None), ("+3", None),
    ("\u0663", None), ("3/-4", None), ("5/0", None),
], ids=["int", "negative-int", "string", "leading-zeros", "fraction",
        "negative-fraction", "float", "bool", "null", "list", "exponent",
        "spaces", "newline", "decimal", "plus", "arabic-indic-digit",
        "negative-denominator", "zero-denominator"])
def test_costs_are_json_integers_or_p_q_strings(tmp_path, capsys, value,
                                                cost):
    # the schema's integers and p/q strings, and nothing else.  The schema
    # admits "5/0", which has no value; and jsonschema admits "3\n", as
    # Python's $ matches before a final newline (ECMA-262's does not)
    import pathlib

    import jsonschema

    schema = json.loads((pathlib.Path(__file__).resolve().parents[1]
                         / "docs" / "instance-schema.json").read_text())
    entry = schema["properties"]["costs"]["additionalProperties"]
    valid = jsonschema.validators.validator_for(schema)(entry).is_valid(value)
    assert valid == (cost is not None or value in ("5/0", "3\n"))
    # r2 alone costs value, and the two cheapest of the three arcs pack
    doc = dict(MINCOST_DOC, costs={"r1": 10, "r2": value, "r3": 20})
    code, out = run(capsys, ["mincost", write(tmp_path, "i.json", doc)])
    if cost is None:
        assert code == 1 and out["payload"] == {
            "kind": "ParseError",
            "message": "costs.r2: must be an integer or a 'p/q' string"}
    else:
        total = 10 + cost
        assert code == 0 and out["payload"]["cost"] == (
            total if total.denominator == 1 else str(total))


@pytest.mark.parametrize("cmd", ["check", "pack", "mincost", "orient"])
def test_empty_vertex_list_is_a_parse_error(tmp_path, capsys, cmd):
    doc = {"version": 1, "vertices": [], "roots": [],
           "matroid": {"type": "free"}, "costs": {}}
    if cmd == "orient":
        doc = dict(doc, edges=[])
        del doc["costs"]
    else:
        doc["arcs"] = []
    code, out = run(capsys, [cmd, write(tmp_path, "i.json", doc)])
    assert code == 1 and out["payload"] == {
        "kind": "ParseError", "message": "vertices: must not be empty"}


@pytest.mark.parametrize("arcs, costs, status", [
    (MINCOST_DOC["arcs"], {"r1": 1, "r2": 5}, "packing"),
    (MINCOST_DOC["arcs"][:1], {}, "certificate"),
], ids=["positive", "negative"])
def test_mincost_partial_cost_table_is_rejected_first(tmp_path, capsys, arcs,
                                                      costs, status):
    # the same error on a feasible and on an infeasible instance, before
    # any feasibility check
    full = dict(MINCOST_DOC, arcs=arcs,
                costs={a["id"]: 1 for a in arcs})
    code, out = run(capsys, ["mincost", write(tmp_path, "full.json", full)])
    assert out["status"] == status
    doc = dict(MINCOST_DOC, arcs=arcs, costs=costs)
    code, out = run(capsys, ["mincost", write(tmp_path, "i.json", doc)])
    assert code == 1 and out["status"] == "error"
    missing = sorted({a["id"] for a in arcs} - set(costs))
    assert out["payload"] == {"kind": "ValueError",
                              "message": "missing costs for arcs %s" % missing}


def test_cutting_plane_tripwire_is_an_error_envelope(tmp_path, capsys,
                                                     monkeypatch):
    from arbopack import polytope

    def no_split(inst):
        raise polytope.TheoremViolation("no split")

    # a split that always fails, and a separator that returns the same
    # (valid) cut every time
    monkeypatch.setattr(polytope, "_construct", no_split)
    monkeypatch.setattr(polytope, "separate", lambda inst, x: (
        polytope.PolytopeConstraint(
            "cut", vertex_set=frozenset(inst.vertices), rhs=0)))
    path = write(tmp_path, "i.json", MINCOST_DOC)
    code, out = run(capsys, ["mincost", path])
    assert code == 1 and out["status"] == "error"
    assert out["payload"]["kind"] == "RuntimeError"
    assert out["payload"]["message"] == (
        "min_cost_packing: separation returned the cut on ['a', 'b'] again "
        "(tripwire): cuts 1, vertices 2, arcs 3")


def test_greedy_step_tripwire_is_an_error_envelope(tmp_path, capsys,
                                                  monkeypatch):
    from arbopack import polytope
    from arbopack.connectivity import Certificate

    # a check that passes an instance where b has no entering arc
    monkeypatch.setattr(polytope, "check_m_connected",
                        lambda inst, engine: Certificate("ok"))
    doc = dict(MINCOST_DOC, arcs=[], costs={})
    code, out = run(capsys, ["mincost", write(tmp_path, "i.json", doc)])
    assert code == 1 and out["status"] == "error"
    assert out["payload"] == {
        "kind": "TheoremViolation",
        "message": "min_cost_packing: vertex b has 0 entering arcs, fewer "
                   "than d(b)=2 (tripwire): cuts 0, vertices 2, arcs 0"}


def test_orient_and_pack_undirected_cli(tmp_path, capsys):
    doc = {
        "version": 1,
        "vertices": ["a", "b", "c"],
        "edges": [{"id": "e1", "ends": ["a", "b"]},
                  {"id": "e2", "ends": ["b", "c"]}],
        "roots": [{"element": "s1", "vertex": "a"}],
        "matroid": {"type": "free"},
    }
    path = write(tmp_path, "i.json", doc)
    code, out = run(capsys, ["check", path])
    assert code == 0 and out["status"] == "ok"
    code, out = run(capsys, ["orient", path])
    assert code == 0 and out["status"] == "orientation"
    code, out = run(capsys, ["pack-undirected", path])
    assert code == 0 and out["status"] == "packing"
    code, out = run(capsys, ["decompose", path])
    assert code == 0
    covered = set()
    for t in out["payload"]["trees"]:
        covered.update(t["edges"])
    assert covered == {"e1", "e2"}
    cut = write(tmp_path, "cut.json", dict(doc, edges=doc["edges"][:1]))
    code, out = run(capsys, ["check", cut])
    assert code == 2 and out["payload"]["kind"] == "violated-partition"
    assert out["payload"]["deficiency"] == -1


@pytest.mark.parametrize("key", ["arcs", "edges"])
def test_check_above_the_brute_cap_is_an_error_envelope(tmp_path, capsys, key):
    verts = ["v%d" % i for i in range(25)]
    if key == "arcs":
        links = [{"id": "a%d" % i, "tail": u, "head": w}
                 for i, (u, w) in enumerate(zip(verts, verts[1:]))]
    else:
        links = [{"id": "e%d" % i, "ends": [u, w]}
                 for i, (u, w) in enumerate(zip(verts, verts[1:]))]
    doc = {"version": 1, "vertices": verts, key: links,
           "roots": [{"element": "s1", "vertex": "v0"}],
           "matroid": {"type": "free"}}
    # the cap is the brute engine's, read by check on a directed file
    # alone: flow, the default, has none, and an undirected file is
    # decided by flows whatever the engine
    code, out = run(capsys, ["--engine", "brute", "check",
                             write(tmp_path, "i.json", doc)])
    if key == "edges":
        assert code == 0 and out["status"] == "ok"
        assert out["provenance"]["engine"] == "brute"
    else:
        assert code == 1 and out["status"] == "error"
        assert out["payload"]["kind"] == "SfmSizeError"


@pytest.mark.parametrize("back", [False, True])
def test_brute_mincost_above_its_cap_checks_only_where_it_must(tmp_path,
                                                               capsys, back):
    # a 25-vertex path: its greedy vertex is the whole path, whose
    # separation by flow proves the instance M-connected, so brute's check
    # never runs.  With a cheaper arc back from v2 into v1, the greedy
    # vertex is cut and the instance itself is checked: brute stops at
    # its cap there, and flow answers
    verts = ["v%d" % i for i in range(25)]
    arcs = [{"id": "a%d" % i, "tail": u, "head": w}
            for i, (u, w) in enumerate(zip(verts, verts[1:]))]
    if back:
        arcs.append({"id": "back", "tail": "v2", "head": "v1"})
    doc = {"version": 1, "vertices": verts, "arcs": arcs,
           "roots": [{"element": "s1", "vertex": "v0"}],
           "matroid": {"type": "free"},
           "costs": {a["id"]: 0 if a["id"] == "back" else 1 for a in arcs}}
    path = write(tmp_path, "i.json", doc)
    code, out = run(capsys, ["--engine", "brute", "mincost", path])
    if back:
        assert code == 1 and out["payload"]["kind"] == "SfmSizeError"
        code, out = run(capsys, ["mincost", path])
    assert code == 0 and out["status"] == "packing"
    assert out["payload"]["cost"] == 24


@pytest.mark.parametrize("argv, networks", [
    (["pack"], 1),
    (["mincost"], 1),
    (["pack-undirected"], 2),
])
def test_a_positive_builds_one_network_per_digraph(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   networks):
    # pack: the input check's network is the reduction loop's; mincost:
    # the greedy vertex is the optimum, and its support splits on the
    # loop's network with no check of the support or of the instance;
    # pack-undirected: the all-forward digraph's network for the greedy,
    # and the oriented digraph's for the loop, with no check of the
    # orientation
    from arbopack import connectivity, flow, orientation, packing, polytope

    built, checked = [], []
    init, check = flow.Network.__init__, connectivity.check_m_connected

    def counted_init(net, inst):
        built.append(inst)
        init(net, inst)

    def counted_check(inst, *args, **kwargs):
        checked.append(inst)
        return check(inst, *args, **kwargs)

    monkeypatch.setattr(flow.Network, "__init__", counted_init)
    for module in (orientation, packing, polytope):
        monkeypatch.setattr(module, "check_m_connected", counted_check)
    directed = argv != ["pack-undirected"]
    text = instances.generate_instance(5, 8, 20, 2, feasible_bias=True,
                                       directed=directed, costs=directed)
    path = write(tmp_path, "i.json", text)
    if argv == ["mincost"]:
        assert run_command(["--lp-trace", "mincost", path]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        built.clear()
        checked.clear()
    code, out = run(capsys, argv + [path])
    assert code == 0 and out["status"] == "packing"
    assert len(built) == networks
    # pack's one check is on the last network's digraph
    assert checked == (built[-1:] if argv == ["pack"] else [])


def test_tripwire_is_an_error_envelope(tmp_path, capsys, monkeypatch):
    from arbopack import packing

    # a pinned check that rejects every candidate trips find_reduction
    monkeypatch.setattr(packing, "_keeps_connected", lambda *args: False)
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    code, out = run(capsys, ["pack", path])
    assert code == 1 and out["status"] == "error"
    assert out["payload"]["kind"] == "TheoremViolation"
    message = out["payload"]["message"]
    assert message.startswith("find_reduction:")
    assert "engine flow, bad arcs ['a1'], candidates tried 1" in message


# the --trace pack lines of primed_path: (removed arc, primes on the
# element s, primes on the new element s), as extend_parallel names them
PRIMED_PATH_TRACE = [
    ("a0_0", 0, 2), ("a0_1", 1, 4), ("a0_2", 3, 5),
    ("a1_0", 2, 6), ("a1_1", 4, 7), ("a1_2", 5, 8),
    ("a2_0", 6, 9), ("a2_1", 7, 10), ("a2_2", 8, 11),
    ("a3_0", 9, 12), ("a3_1", 10, 13), ("a3_2", 11, 14),
    ("a4_0", 12, 15), ("a4_1", 13, 16), ("a4_2", 14, 17),
    ("a5_0", 15, 18), ("a5_1", 16, 19), ("a5_2", 17, 20),
    ("a6_0", 18, 21), ("a6_1", 19, 22), ("a6_2", 20, 23),
    ("a7_0", 21, 24), ("a7_1", 22, 25), ("a7_2", 23, 26),
    ("a8_0", 24, 27), ("a8_1", 25, 28), ("a8_2", 26, 29),
    ("a9_0", 27, 30), ("a9_1", 28, 31), ("a9_2", 29, 32),
    ("a10_0", 30, 33), ("a10_1", 31, 34), ("a10_2", 32, 35),
]


def trace_lines(rows) -> str:
    return "".join(json.dumps({"removed_arc": a, "element": "s" + "'" * e,
                               "new_element": "s" + "'" * t}) + "\n"
                   for a, e, t in rows)


def test_trace_names_the_twins_of_twins(tmp_path, capsys):
    path = write(tmp_path, "i.json", emit_instance(primed_path()))
    code, out = run_command(["--trace", "pack", path]), capsys.readouterr()
    assert code == 0 and json.loads(out.out)["status"] == "packing"
    assert out.err == trace_lines(PRIMED_PATH_TRACE)


def test_trace_keeps_the_steps_before_a_tripwire(tmp_path, capsys,
                                                 monkeypatch):
    from arbopack import packing

    find = packing.find_reduction
    calls = []

    def two_steps(red):
        if len(calls) == 2:
            raise packing.TheoremViolation("find_reduction: stopped")
        calls.append(red)
        return find(red)

    monkeypatch.setattr(packing, "find_reduction", two_steps)
    path = write(tmp_path, "i.json", emit_instance(primed_path()))
    code, out = run_command(["--trace", "pack", path]), capsys.readouterr()
    assert code == 1
    doc = json.loads(out.out)
    assert doc["status"] == "error" and doc["payload"] == {
        "kind": "TheoremViolation", "message": "find_reduction: stopped"}
    assert out.err == trace_lines(PRIMED_PATH_TRACE[:2])


def test_orientation_tripwire_is_an_error_envelope(tmp_path, capsys,
                                                  monkeypatch):
    from arbopack import orientation

    # a merged partition that does not recheck trips orient_m_connected
    monkeypatch.setattr(orientation, "recheck_certificate", lambda *a: False)
    doc = {"version": 1, "vertices": ["a", "b", "c"],
           "edges": [{"id": "e1", "ends": ["a", "b"]}],
           "roots": [{"element": "s1", "vertex": "a"}],
           "matroid": {"type": "free"}}
    code, out = run(capsys, ["pack-undirected", write(tmp_path, "i.json", doc)])
    assert code == 1 and out["status"] == "error"
    assert out["payload"]["kind"] == "TheoremViolation"
    assert out["payload"]["message"] == (
        "orient_m_connected: the tight sets of greedy steps 1 to 3, merged "
        "into [['a'], ['b'], ['c']], are not a violated partition (tripwire): "
        "engine flow, deficiency -1, vertices 3, edges 1")


def test_realized_orientation_tripwire_survives_the_split(tmp_path, capsys,
                                                         monkeypatch):
    # a path whose edges point away from the root, so the last greedy step
    # reverses one path into its vertex: a mutant that counts that
    # reversal but leaves it out hands pack-undirected an orientation that
    # is not M-connected.  Its split fails, and the check then names the
    # same violated set as orient's tripwire
    from arbopack import orientation

    reverse = orientation._reverse_path

    def one_short(net, i, surplus):
        if i < len(net.pos) - 1:
            return reverse(net, i, surplus)
        cap = list(net.cap)
        u = reverse(net, i, surplus)
        net.cap[:] = cap
        return u

    monkeypatch.setattr(orientation, "_reverse_path", one_short)
    doc = {"version": 1, "vertices": ["a", "b", "c"],
           "edges": [{"id": "e1", "ends": ["a", "b"]},
                     {"id": "e2", "ends": ["b", "c"]}],
           "roots": [{"element": "s1", "vertex": "c"}],
           "matroid": {"type": "free"}}
    path = write(tmp_path, "i.json", doc)
    for command in ("orient", "pack-undirected", "decompose"):
        code, out = run(capsys, [command, path])
        assert code == 1 and out["status"] == "error", command
        assert out["payload"] == {
            "kind": "TheoremViolation",
            "message": "orient_m_connected: the in-degree vector realized "
                       "after 3 greedy steps and 1 path reversals is not "
                       "M-connected (tripwire): engine flow, violated set "
                       "['a'], deficiency -1, vertices 3, edges 2"}, \
            command


@pytest.mark.parametrize("error", ["TheoremViolation", "FlowViolation"])
@pytest.mark.parametrize("command", ["mincost", "pack-undirected"])
def test_a_failed_split_of_a_connected_digraph_is_the_answer(
        tmp_path, capsys, monkeypatch, command, error):
    # a mutant split that fails on every digraph.  After a
    # TheoremViolation the digraph is checked (in mincost, the point is
    # separated), and where it is M-connected the split's own error is the
    # answer, never a cut, a certificate or a packing: mincost re-raises
    # it at the greedy vertex (MINCOST_DOC) or at the optimum after a cut
    # (CYCLE_FIRST_DOC).  Any other error propagates before any check
    from arbopack import connectivity, flow, orientation, packing, polytope

    raised = {"TheoremViolation": packing.TheoremViolation,
              "FlowViolation": flow.FlowViolation}[error]
    checked = []

    def no_split(inst):
        raise raised("no split")

    def counted(check):
        def spy(inst, *args, **kwargs):
            checked.append(inst)
            return check(inst, *args, **kwargs)
        return spy

    for module in (orientation, polytope):
        monkeypatch.setattr(module, "_construct", no_split)
        monkeypatch.setattr(module, "check_m_connected",
                            counted(connectivity.check_m_connected))
    monkeypatch.setattr(polytope, "separate", counted(polytope.separate))
    directed = command == "mincost"
    docs = [generate_instance(5, 8, 20, 2, feasible_bias=True,
                              directed=directed, costs=directed)]
    if directed:
        docs += [MINCOST_DOC, CYCLE_FIRST_DOC]
    for i, doc in enumerate(docs):
        checked.clear()
        code, out = run(capsys, [command, write(tmp_path, "%d.json" % i, doc)])
        assert code == 1 and out["payload"] == {
            "kind": error, "message": "no split"}, doc
        assert bool(checked) == (error == "TheoremViolation"), doc


def test_plain_runtime_tripwire_is_an_error_envelope(tmp_path, capsys,
                                                     monkeypatch):
    from arbopack import sfm

    monkeypatch.setattr(sfm, "_MNP_ITER_CAP", 0)
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    code, out = run(capsys, ["--engine", "min-norm-point", "check", path])
    assert code == 1 and out["status"] == "error"
    assert out["payload"] == {
        "kind": "RuntimeError",
        "message": "min-norm-point failed to converge (tripwire): free "
                   "ground 1, pinned [0], excluded [], major cycles 0, |S| 1"}


def test_pack_bounded_cli(tmp_path, capsys):
    doc = dict(MINIMAL_DIRECTED, bound=1)
    path = write(tmp_path, "i.json", doc)
    code, out = run(capsys, ["pack-bounded", path])
    assert code == 0 and out["status"] == "packing"
    code, out = run(capsys, ["pack-bounded", "--bound", "2", path])
    assert code == 2
    assert out["payload"]["kind"] == "infeasible-bound"


def test_gen_cli_deterministic(capsys):
    code1 = run_command(["gen", "--seed", "5", "--n", "3", "--m", "4", "--t", "1"])
    out1 = capsys.readouterr().out
    code2 = run_command(["gen", "--seed", "5", "--n", "3", "--m", "4", "--t", "1"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    inst, _ = parse_instance(out1)
    assert len(inst.vertices) == 3


def test_documents_match_shipped_schemas(tmp_path, capsys):
    import pathlib

    import jsonschema

    docs = pathlib.Path(__file__).resolve().parents[1] / "docs"
    inst_schema = json.loads((docs / "instance-schema.json").read_text())
    result_schema = json.loads((docs / "result-schema.json").read_text())

    for seed in range(10):
        text = generate_instance(seed, n=4, m=6, t=2, feasible_bias=True,
                                 costs=seed % 2 == 0, directed=seed % 3 != 0)
        jsonschema.validate(json.loads(text), inst_schema)

    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    for argv in (["check", path], ["pack", path], ["pack-bounded",
                                                   "--bound", "2", path]):
        _, doc = run(capsys, argv)
        jsonschema.validate(doc, result_schema)
    bad = dict(MINIMAL_DIRECTED, arcs=[])
    _, doc = run(capsys, ["pack", write(tmp_path, "bad.json", bad)])
    jsonschema.validate(doc, result_schema)


def test_exit_code_is_function_of_status(tmp_path, capsys):
    path = write(tmp_path, "i.json", MINIMAL_DIRECTED)
    for argv, expected_status, expected_code in [
        (["check", path], "ok", 0),
        (["pack", path], "packing", 0),
    ]:
        code, doc = run(capsys, argv)
        assert doc["status"] == expected_status and code == expected_code
