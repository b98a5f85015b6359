"""Mutated instance and packing documents always end in one JSON envelope.

Valid documents, covering all six matroid kinds, arcs and edges, costs
and a bound, have random subtrees replaced by random JSON values (or
dropped).  Whatever the parser and the solvers make of the result,
``run_command`` must return 0, 1 or 2 and print exactly one envelope.
"""

import contextlib
import copy
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from arbopack.cli import run_command

MATROIDS = [
    {"type": "free"},
    {"type": "uniform", "rank": 2},
    {"type": "partition", "blocks": [{"elements": ["s1", "s2"], "cap": 1},
                                     {"elements": ["s3"], "cap": 1}]},
    {"type": "graphic", "edges": [["x", "y"], ["y", "z"], ["x", "z"]]},
    {"type": "linear", "prime": 3,
     "columns": {"s1": [1, 0], "s2": [0, 1], "s3": [1, 1]}},
    {"type": "explicit", "bases": [["s1", "s2"], ["s1", "s3"], ["s2", "s3"]]},
]
ARCS = [{"id": "a%d" % i, "tail": t, "head": h} for i, (t, h) in
        enumerate([("a", "b"), ("b", "c"), ("a", "c"), ("c", "b"),
                   ("b", "a"), ("b", "c")], 1)]
EDGES = [{"id": "e%d" % i, "ends": [u, v]} for i, (u, v) in
         enumerate([("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"),
                    ("a", "c"), ("a", "c")], 1)]


def instance_doc(key: str, matroid: dict) -> dict:
    links = ARCS if key == "arcs" else EDGES
    return {"version": 1, "vertices": ["a", "b", "c"], key: links,
            "roots": [{"element": "s1", "vertex": "a"},
                      {"element": "s2", "vertex": "a"},
                      {"element": "s3", "vertex": "b"}],
            "matroid": matroid,
            "costs": {lk["id"]: i % 3 + 1 for i, lk in enumerate(links)},
            "bound": 2}


def packing_doc(key: str, trees) -> dict:
    """A packing of the free instance, as ``pack`` prints it."""
    return {"status": "packing", "payload": {"trees": [
        {"root_element": e, "root_vertex": v, key: ids}
        for e, v, ids in trees]}}


PACKINGS = {
    "arcs": packing_doc("arcs", [("s1", "a", ["a1", "a2"]),
                                 ("s2", "a", ["a3", "a4"]),
                                 ("s3", "b", ["a5", "a6"])]),
    "edges": packing_doc("edges", [("s1", "a", ["e1", "e3"]),
                                   ("s2", "a", ["e2", "e5"]),
                                   ("s3", "b", ["e4", "e6"])]),
}
COMMANDS = ["check", "pack", "pack-bounded", "mincost", "orient",
            "pack-undirected", "decompose"]

NAMES = st.sampled_from(["a", "b", "c", "z", "s1", "s3", "s9", "a1", "e1",
                         "x", "free", "linear", "1/0", "-2", ""])
KEYS = NAMES | st.sampled_from(["id", "tail", "head", "ends", "element",
                                "vertex", "type", "rank", "blocks", "elements",
                                "cap", "edges", "prime", "columns", "bases",
                                "trees", "payload", "root_element",
                                "root_vertex", "arcs"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-3, 3) | NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6)


def subtree_paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, child in items:
        yield from subtree_paths(child, prefix + (k,))


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(subtree_paths(doc))[1:]  # the top level stays an object
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON)
        else:
            del parent[path[-1]]
    return doc


def run_one(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    assert code in (0, 1, 2), (argv, code)
    doc = json.loads(out.getvalue())  # exactly one JSON document
    assert isinstance(doc, dict) and set(doc) == {"status", "payload",
                                                  "provenance"}, doc
    return code, doc


FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)


@FUZZ
@given(st.sampled_from(["arcs", "edges"]).flatmap(
           lambda key: st.sampled_from(MATROIDS).flatmap(
               lambda m: mutated(instance_doc(key, m)))),
       st.sampled_from(COMMANDS))
def test_mutated_instances_end_in_an_envelope(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(doc))
    code, out = run_one([command, str(path)])
    event("%s exit %d" % (command, code))


@FUZZ
@given(st.data())
def test_mutated_packings_end_in_an_envelope(tmp_path_factory, data):
    key = data.draw(st.sampled_from(["arcs", "edges"]))
    matroid = data.draw(st.sampled_from(MATROIDS))
    doc = data.draw(mutated(PACKINGS[key]))
    work = tmp_path_factory.mktemp("fuzz")
    inst = work / "instance.json"
    inst.write_text(json.dumps(instance_doc(key, matroid)))
    pk = work / "packing.json"
    pk.write_text(json.dumps(doc))
    _, out = run_one(["verify", str(inst), str(pk)])
    assert out["status"] in ("ok", "certificate", "error"), out
    event(out["payload"].get("reason") or out["payload"]["kind"])


def test_the_unmutated_documents_answer(tmp_path):
    for key, command in (("arcs", "pack"), ("edges", "pack-undirected")):
        inst = tmp_path / ("%s.json" % key)
        inst.write_text(json.dumps(instance_doc(key, MATROIDS[0])))
        pk = tmp_path / ("%s-packing.json" % key)
        pk.write_text(json.dumps(PACKINGS[key]))
        assert run_one(["verify", str(inst), str(pk)])[0] == 0
        for matroid in MATROIDS:
            inst.write_text(json.dumps(instance_doc(key, matroid)))
            assert run_one([command, str(inst)])[0] in (0, 2)
