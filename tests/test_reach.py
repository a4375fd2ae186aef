"""Every function in the package is reached by some pipeline or CLI command.

Small specs of all five pipelines (both prune modes, budget-exhausted
prune and combine runs, string vertex labels) and every CLI subcommand
run under sys.setprofile; each function defined in src/hdxcover/ must be
called, apart from the entries of UNREACHED, each with its reason.
"""
import ast
import itertools
import json
import re
import shutil
import sys
from pathlib import Path

import hdxcover
from hdxcover import cli
from hdxcover.harness import EXIT_BUDGET, EXIT_CLEAN

UNREACHED = {
    # perfbench calls or wraps these by name
    "pruning.PruneConfig.empirical": "perfbench/selftest.py builds its config with it",
    "pruning.Sampler.eval_event": "perfbench/selftest.py replays the loop event by event",
    "pruning.Pruner.eval_ec": "reached through Sampler.eval_event in perfbench/selftest.py",
    "complexes.PureComplex.face_measure": "a traced span of perfbench/tracing.py",
    "graphs.WGraph.sides": "perfbench/tracing.py's bipartite_lambda hook reads the side sizes",
    "harness.RunReport.to_json_bytes": "perfbench/worker.py compares report bytes through it",
    # kept for library callers and the tests: the scans and audits read the
    # satisfaction arrays, and perfbench/tracing.py wraps each sampler's copy
    "pruning.Sampler.face_satisfied": "only tests check one face alone",
    "pruning.Sampler.satisfaction_graph": "only tests build one face's graphs",
    # error paths and reprs
    "errors.WitnessedError.__init__": "raised only as NotACocycle, NotPure or "
                                      "Unmeasurable, on inputs no run has",
    "complexes.PureComplex.__repr__": "repr",
    "graphs.WGraph.__repr__": "repr",
    "groups.GroupTable.__repr__": "repr",
    "harness._jsonify": "serializes numpy values a library caller puts in a spec; "
                        "JSON specs hold none",
}

K30 = json.dumps({"kind": "complete", "n": 30, "dim": 2})
K12 = json.dumps({"kind": "complete", "n": 12, "dim": 2})
K5 = json.dumps({"kind": "complete", "n": 5, "dim": 2})
K8, K3 = (json.dumps({"kind": "complete", "n": n, "dim": 2}) for n in (8, 3))
K10_3, K5_3 = (json.dumps({"kind": "complete", "n": n, "dim": 3}) for n in (10, 5))
K6_4 = json.dumps({"kind": "complete", "n": 6, "dim": 4})
Z5 = json.dumps({"kind": "cyclic", "n": 5})
Z5_TABLE = json.dumps({"kind": "table", "mul": [[(a + b) % 5 for b in range(5)]
                                                for a in range(5)]})
Z2_Z3 = json.dumps({"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                                   {"kind": "cyclic", "n": 3}]})
EDGES = json.dumps({"edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 1.0], [2, 3, 1.0]]})
Z3_Z4 = json.dumps({"kind": "product", "factors": [{"kind": "cyclic", "n": 3},
                                                   {"kind": "cyclic", "n": 4}]})
# every sampled pair of the path's sides has a zero mixing denominator
PATH_SIDES = json.dumps({"edges": [[0, 1, 1.0], [1, 2, 1.0]], "sides": [[0, 2], [1]]})


def named(n, prefix):
    """The complete 2-complex on n vertices labelled by strings."""
    faces = itertools.combinations([f"{prefix}{v:02d}" for v in range(n)], 3)
    return json.dumps({"dim": 2, "faces": [list(f) for f in faces]})


C4_SIDES = json.dumps({"edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 3.0]],
                       "sides": [[0, 2], [1, 3]]})


def runs(tmp):
    """(argv, expected exit code) of every run."""
    k7 = str(tmp / "k7.json")
    return [
        (["build-complete", "--n", "7", "--dim", "2", "--out", k7], EXIT_CLEAN),
        (["tensor", "--complex", k7, "--t", "4", "--out", str(tmp / "t.json")], EXIT_CLEAN),
        (["check-suitable", "--complex", k7], EXIT_CLEAN),
        (["verify-hdx", "--complex", k7, "--lambda", "0.9"], EXIT_CLEAN),
        (["eml", "--graph", '{"kind": "complete", "n": 6}'], EXIT_CLEAN),
        (["eml", "--graph", EDGES, "--samples", "50"], EXIT_CLEAN),
        (["eml", "--graph", C4_SIDES], EXIT_CLEAN),
        (["eml", "--graph", PATH_SIDES, "--samples", "30"], EXIT_CLEAN),
        (["prune", "--complex", K30, "--group", Z5_TABLE, "--genset", "[1, 2, 3, 4]",
          "--seed", "2"], EXIT_CLEAN),
        (["prune", "--complex", K30, "--group", Z5, "--genset", "[1, 2, 3, 4]",
          "--mode", "formula", "--max-resamples", "5"], EXIT_BUDGET),
        # resamples an NE event
        (["prune", "--complex", K30, "--group", Z5, "--genset", "[1, 2, 3, 4]",
          "--seed", "3"], EXIT_CLEAN),
        (["prune", "--complex", named(30, "v"), "--group", Z5, "--genset", "[1, 2, 3, 4]",
          "--seed", "2"], EXIT_CLEAN),
        # its remaining violations sweep NE over triangles with none satisfied
        (["prune", "--complex", K6_4, "--group", Z5, "--genset", "[1, 2, 3, 4]",
          "--max-resamples", "3"], EXIT_BUDGET),
        (["cover-family", "--complex", K30, "--group", Z2_Z3, "--genset", "[1, 2, 3, 4, 5]",
          "--seed", "2"], EXIT_CLEAN),
        (["sparsify", "--graph", '{"kind": "complete", "n": 30}', "--trials", "3"],
         EXIT_CLEAN),
        (["combine", "--complex", K12, "--target", K5], EXIT_CLEAN),
        (["combine", "--complex", named(12, "v"), "--target", named(5, "c")], EXIT_CLEAN),
        (["combine", "--complex", K12, "--target", K5, "--lambda", "0.001",
          "--max-resamples", "2"], EXIT_BUDGET),
        # sweeps NE at dimensions 0 and 1
        (["combine", "--complex", K10_3, "--target", K5_3], EXIT_CLEAN),
        # exhausts its budget on NE resamples
        (["combine", "--complex", K8, "--target", K3, "--max-resamples", "200"],
         EXIT_BUDGET),
        (["scan-gensets", "--group", '{"kind": "symmetric", "k": 3}', "--max-size", "4"],
         EXIT_CLEAN),
        (["scan-gensets", "--group", '{"kind": "dihedral", "n": 4}', "--max-size", "4"],
         EXIT_CLEAN),
        (["scan-gensets", "--group", '{"kind": "cyclic", "n": 7}', "--max-size", "4"],
         EXIT_CLEAN),
        (["scan-gensets", "--group", Z3_Z4, "--max-size", "5"], EXIT_CLEAN),
    ]


def defined_functions():
    """{(file, first line of the def or its first decorator): qualified name}
    of every def in the package, nested ones included."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), line] = f"{prefix}{child.name}"
                walk(path, child, f"{prefix}{child.name}.")

    for path in sorted(Path(hdxcover.__file__).parent.glob("*.py")):
        walk(path, ast.parse(path.read_text()), f"{path.stem}.")
    return out


def test_every_function_is_reached(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the pipelines write into ./out
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(argv[0], cli.main(argv), want) for argv, want in runs(tmp_path)]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert [(cmd, got) for cmd, got, want in codes if got != want] == []

    unreached = {name for key, name in defined_functions().items() if key not in called}
    missing, stale = sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)
    assert not missing, f"functions no run reaches: {missing}"
    assert not stale, f"UNREACHED entries that a run reaches: {stale}"


def _no_constant(token):
    raise ValueError(f"{token} is no JSON value")


def test_outputs_are_strict_json(tmp_path, monkeypatch, capsys):
    """No run prints or writes NaN or Infinity: the JSON a command prints and
    every JSON file it writes parse as strict JSON, and its other files hold
    no nan or inf."""
    monkeypatch.chdir(tmp_path)  # the pipelines write into ./out
    for argv, want in runs(tmp_path):
        shutil.rmtree("out", ignore_errors=True)
        assert cli.main(argv) == want, argv
        out = capsys.readouterr().out
        if argv[0] in ("check-suitable", "verify-hdx", "eml"):
            json.loads(out, parse_constant=_no_constant)
        for path in sorted(tmp_path.rglob("*.*")):
            text = path.read_text()
            if path.suffix == ".json":
                json.loads(text, parse_constant=_no_constant)
            else:
                assert not re.search(r"\b(nan|inf)\b", text, re.I), (argv, path.name)
