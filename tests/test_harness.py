import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hdxcover import cli, combine, covers, groups, harness, pruning
from hdxcover.cli import main
from hdxcover.complexes import PureComplex, build_complex, check_suitable, complete_complex
from hdxcover.covers import CoverComplex, build_cover
from hdxcover.groups import cyclic
from hdxcover.harness import (
    EXIT_AUDIT,
    EXIT_BUDGET,
    EXIT_CLEAN,
    EXIT_INPUT,
    cover_link_gap,
    emit_report,
    run_experiment,
    stage_seed,
)
from hdxcover.spectral import is_hdx

from helpers import coboundary_labeling

PRUNE_SPEC = {
    "kind": "prune",
    "params": {
        "complex": {"kind": "complete", "n": 30, "dim": 2},
        "group": {"kind": "cyclic", "n": 5},
        "genset": [1, 2, 3, 4],
        "lambda": 0.9,
        "mode": "empirical",
        "max_resamples": 10_000,
    },
    "seed": 2,
}


# params each pipeline runs on but for the count under test
COUNT_BASE = {
    "prune": PRUNE_SPEC["params"],
    "cover-family": PRUNE_SPEC["params"],
    "sparsify": {"graph": {"kind": "complete", "n": 20}},
    "combine": {"complex": {"kind": "complete", "n": 8, "dim": 2},
                "target": {"kind": "complete", "n": 5, "dim": 2}},
    "scan": {"group": {"kind": "cyclic", "n": 5}},
}


@pytest.fixture(scope="module")
def prune_report():
    return run_experiment(PRUNE_SPEC)


class TestPrunePipeline:
    def test_clean_and_audited(self, prune_report):
        rep = prune_report
        assert rep.status == "clean"
        assert rep.exit_code == EXIT_CLEAN
        names = {a["name"] for a in rep.audits}
        assert {
            "y_is_hdx",
            "face_fraction",
            "holonomy_full",
            "cover_connected",
            "verify_cover",
            "cover_link_spectra",
            "pruned_measure_total",
            "measure_ratio",
        } <= names
        assert all(a["ok"] for a in rep.audits)

    def test_budget_exit_code(self):
        spec = json.loads(json.dumps(PRUNE_SPEC))
        spec["params"]["max_resamples"] = 1
        spec["seed"] = 0
        rep = run_experiment(spec)
        assert rep.status == "budget_exhausted"
        assert rep.exit_code == EXIT_BUDGET

    def test_deterministic_bytes(self, prune_report):
        again = run_experiment(PRUNE_SPEC)
        assert again.to_json_bytes() == prune_report.to_json_bytes()

    def test_spectra_csv_row_count(self, prune_report):
        # one certified link per vertex plus the empty face
        rows = prune_report.spectra.strip().splitlines()
        assert len(rows) == 1 + 1 + 30

    def test_emission_idempotent(self, prune_report, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        emit_report(prune_report, d1)
        emit_report(prune_report, d2)
        b1 = (d1 / "report.json").read_bytes()
        b2 = (d2 / "report.json").read_bytes()
        assert b1 == b2
        assert (d1 / "spectra.csv").read_bytes() == (d2 / "spectra.csv").read_bytes()
        assert (d1 / "lambda_series.dat").read_bytes() == (
            d2 / "lambda_series.dat"
        ).read_bytes()

    def test_outcome_and_cover_files(self, prune_report, tmp_path):
        emit_report(prune_report, tmp_path)
        outcome = json.loads((tmp_path / "outcome.json").read_text())
        assert outcome["status"] == "clean"
        assert len(outcome["labeling"]) == 30 * 29 // 2
        assert outcome["y_top_faces"]
        cover = json.loads((tmp_path / "cover.json").read_text())
        assert cover["group"]["kind"] == "table"
        assert len(cover["faces"]) == 5 * len(outcome["y_top_faces"])

    @pytest.mark.parametrize("kind", ["prune", "cover-family"])
    def test_streamed_files_equal_their_texts(self, kind, tmp_path):
        """Each JSON file emit_report streams holds the JSON text of its
        payload as json.dumps gives it whole, report.json the report's
        to_json_bytes."""

        def json_text(obj):
            return json.dumps(obj, sort_keys=True, indent=2, default=harness._jsonify) + "\n"

        rep = run_experiment({"kind": kind, "params": PRUNE_SPEC["params"], "seed": 2})
        want = {
            "report.json": rep.to_json_bytes().decode(),
            "spectra.csv": rep.spectra,
            "outcome.json": json_text(rep.outcome),
            "cover.json": json_text(rep.cover_export),
            "lambda_series.dat": "".join(f"{i} {v!r}\n" for i, v in enumerate(rep.lambda_series)),
            "timings.json": json_text(rep.timings),
        }
        assert want["report.json"] == json_text(rep.payload())
        assert all(want.values()) and rep.cover_export["faces"]
        written = emit_report(rep, tmp_path)
        assert written == [str(tmp_path / name) for name in want]
        for name, text in want.items():
            assert (tmp_path / name).read_text() == text, name


class TestCoverFamily:
    def test_z6_quotient_family(self):
        spec = {
            "kind": "cover-family",
            "params": {
                "complex": {"kind": "complete", "n": 30, "dim": 2},
                "group": {"kind": "cyclic", "n": 6},
                "genset": [1, 2, 3, 4, 5],
                "lambda": 0.9,
                "r": 2.0,
                "mode": "empirical",
                "max_resamples": 10_000,
            },
            "seed": 1,
        }
        rep = run_experiment(spec)
        assert rep.status == "clean", rep.stages
        fam = next(s for s in rep.stages if s["name"] == "cover_family")
        members = fam["result"]["members"]
        assert sorted(m["quotient_order"] for m in members) == [1, 2, 3, 6]
        for m in members:
            assert m["cover_vertices"] == 30 * m["quotient_order"]
            assert m["components"] == 1
            assert m["verified"]


class TestOneSamplerPerExperiment:
    """An experiment builds its sampler once, and a prune experiment its
    Cayley clique complex at most once."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"Pruner": 0, "Combiner": 0, "cayley": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for cls in (pruning.Pruner, combine.Combiner):
            monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
        cayley = counting("cayley", groups.cayley_clique_complex)
        monkeypatch.setattr(groups, "cayley_clique_complex", cayley)
        monkeypatch.setattr(pruning, "cayley_clique_complex", cayley)
        return counts

    @pytest.mark.parametrize("kind", ["prune", "cover-family"])
    def test_prune_experiments(self, built, kind):
        rep = run_experiment(dict(PRUNE_SPEC, kind=kind))
        assert rep.status == "clean"
        assert built["Pruner"] == 1
        assert built["cayley"] <= 1
        assert built["Combiner"] == 0

    def test_combine_experiment(self, built):
        params = {"complex": {"kind": "complete", "n": 12, "dim": 2},
                  "target": {"kind": "complete", "n": 5, "dim": 2}}
        rep = run_experiment({"kind": "combine", "params": params, "seed": 0})
        assert rep.stages[0]["name"] == "combine"
        assert built == {"Pruner": 0, "Combiner": 1, "cayley": 0}


class TestCleanPruneAudit:
    """The clean-prune audit computes the holonomy once and checks each
    measure-ratio face once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(["holonomy_subgroup", "face_satisfied", "satisfaction_graph",
                                "satisfaction_arrays", "eval_ne"], 0)

        def counting(name, real):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(covers, "holonomy_subgroup", counting(
            "holonomy_subgroup", covers.holonomy_subgroup))
        for name in ("face_satisfied", "satisfaction_graph", "satisfaction_arrays", "eval_ne"):
            real = getattr(pruning.Pruner, name)
            monkeypatch.setattr(pruning.Pruner, name, counting(name, real))
        return counts

    def test_holonomy_computed_once(self, calls):
        rep = run_experiment(PRUNE_SPEC)
        assert rep.status == "clean"
        assert calls["holonomy_subgroup"] == 1
        (audit,) = [a for a in rep.audits if a["name"] == "holonomy_full"]
        assert audit["detail"] == {"subgroup_order": 5} and audit["ok"]

    def test_each_face_checked_once(self, calls):
        # every base face is checked once, by the satisfaction_arrays call
        # that reads its graph: the one scan reaching NE decides its 30
        # vertices in runs of 1, 2, 4, 8 and 16, and the measure-ratio audit
        # reads the level in one more call; no face is checked or built alone
        assert run_experiment(PRUNE_SPEC).status == "clean"
        assert calls["face_satisfied"] == calls["satisfaction_graph"] == 0
        assert calls["eval_ne"] == 30 and calls["satisfaction_arrays"] == 5 + 1

    def test_no_per_face_skeletons(self, benchmark_prunes, monkeypatch):
        # the audits read Y's links by the level and the satisfied top faces
        # once per measure-ratio level, never a skeleton per face
        pruner, outcome = benchmark_prunes["prune-k30"]
        counts = {"link_skeleton": 0, "satisfied_mask": 0}
        for cls, name in ((PureComplex, "link_skeleton"), (pruning.Pruner, "satisfied_mask")):
            def wrapped(*args, _real=getattr(cls, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(cls, name, wrapped)
        report = harness.RunReport(spec={})
        harness._audit_clean_prune(report, pruner, outcome)
        assert all(a["ok"] for a in report.finish().audits)
        assert counts == {"link_skeleton": 0, "satisfied_mask": pruner.d - 1}

    def test_unmeasurable_is_a_failing_audit(self, monkeypatch):
        # one triangle under a coboundary labeling is clean, but it realizes
        # 3 of the identity link's 6 patterns, and each vertex link, one edge,
        # covers one of its target link's 6 edges
        spec = json.loads(json.dumps(PRUNE_SPEC))
        spec["params"]["complex"] = {"dim": 2, "faces": [[0, 1, 2]]}

        def crafted_run(self, rng):
            return pruning.PruneOutcome("clean", np.array([0, 1, 0]), self.X, (), 0, (),
                                        (), self.config)

        monkeypatch.setattr(pruning.Pruner, "run", crafted_run)
        rep = run_experiment(spec)
        assert (rep.status, rep.exit_code) == ("audit_failure", EXIT_AUDIT)
        audits = {a["name"]: a for a in rep.audits}
        for name, witness in (("pruned_measure_total", [1, 3]), ("measure_ratio", [0])):
            assert not audits[name]["ok"]
            assert audits[name]["detail"]["error"] == "Unmeasurable"
            assert audits[name]["detail"]["witness"] == witness
        assert "audit.measure_ratio" in rep.timings


class TestTimings:
    def test_every_audit_and_stage_is_timed(self, prune_report):
        assert set(prune_report.timings) == {
            "suitability", "prune", "total", "audit.y_is_hdx", "audit.face_fraction",
            "audit.build_cover", "audit.cover_components", "audit.verify_cover",
            "audit.cover_export", "audit.cover_link_spectra",
            "audit.pruned_measure_total", "audit.measure_ratio",
        }
        assert "timings" not in prune_report.payload()

    def test_combine_scan_and_cover_family(self):
        params = {"complex": {"kind": "complete", "n": 12, "dim": 2},
                  "target": {"kind": "complete", "n": 5, "dim": 2}}
        rep = run_experiment({"kind": "combine", "params": params, "seed": 0})
        assert {"combine", "audit.verify_combine", "total"} <= set(rep.timings)
        rep = run_experiment({"kind": "scan", "params": {
            "group": {"kind": "cyclic", "n": 13}, "max_size": 4}, "seed": 0})
        assert {"scan", "audit.scan_reverification"} <= set(rep.timings)
        spec = json.loads(json.dumps(PRUNE_SPEC))
        spec["kind"] = "cover-family"
        rep = run_experiment(spec)
        members = [k for k in rep.timings if k.startswith("cover_family.index_")]
        assert sorted(members) == ["cover_family.index_1", "cover_family.index_5"]


class TestSparsifyPipeline:
    def test_audit_failure_exit_code(self):
        spec = {
            "kind": "sparsify",
            "params": {
                "graph": {"kind": "complete", "n": 50},
                "trials": 5,
                "edge_threshold": 1e-9,  # unreachable: forces an audit failure
            },
            "seed": 0,
        }
        rep = run_experiment(spec)
        assert rep.exit_code == EXIT_AUDIT
        assert rep.status == "audit_failure"

    def test_small_run(self):
        spec = {
            "kind": "sparsify",
            "params": {
                "graph": {"kind": "complete", "n": 60},
                "p_split": 0.3,
                "p_edge": 0.5,
                "trials": 8,
            },
            "seed": 0,
        }
        rep = run_experiment(spec)
        assert rep.status in ("clean", "audit_failure")
        stage = next(s for s in rep.stages if s["name"] == "sparsify")
        assert stage["result"]["trials"] == 8

    def test_deterministic(self):
        spec = {
            "kind": "sparsify",
            "params": {"graph": {"kind": "complete", "n": 40}, "trials": 5},
            "seed": 9,
        }
        assert (
            run_experiment(spec).to_json_bytes()
            == run_experiment(spec).to_json_bytes()
        )


class TestCombinePipeline:
    def test_complete_fixture(self):
        spec = {
            "kind": "combine",
            "params": {
                "complex": {"kind": "complete", "n": 20, "dim": 2},
                "target": {"kind": "complete", "n": 5, "dim": 2},
            },
            "seed": 0,
        }
        rep = run_experiment(spec)
        assert rep.status == "clean"
        assert all(a["ok"] for a in rep.audits)


class TestScanPipeline:
    def test_z13(self):
        spec = {
            "kind": "scan",
            "params": {"group": {"kind": "cyclic", "n": 13}, "dim": 2,
                       "max_size": 6},
            "seed": 0,
        }
        rep = run_experiment(spec)
        stage = next(s for s in rep.stages if s["name"] == "scan")
        assert stage["result"]["candidates"]

    def test_s4_counts_and_reverification(self):
        spec = {"kind": "scan", "seed": 0,
                "params": {"group": {"kind": "symmetric", "k": 4}, "dim": 2,
                           "max_size": 6}}
        rep = run_experiment(spec)
        assert rep.exit_code == EXIT_CLEAN
        result = rep.stages[0]["result"]
        assert result["counts"] == {"enumerated": 3258, "not_generating": 47,
                                    "duplicate": 3011, "impure": 184, "scored": 16}
        assert sum(c["orbit_size"] for c in result["candidates"]) == 240
        assert len(rep.lambda_series) == 16
        (audit,) = rep.audits
        detail = audit["detail"]
        best = result["candidates"][0]
        assert audit["name"] == "scan_reverification" and audit["ok"]
        assert detail["gens"] == best["gens"]
        assert detail["lambda"] == best["worst_link_lambda"]
        assert detail["bound"] == 1e-9
        assert detail["slack"] == pytest.approx(
            1e-9 - abs(detail["observed"] - best["worst_link_lambda"]), abs=1e-24)
        assert detail["slack"] >= 0
        assert rep.to_json_bytes() == run_experiment(spec).to_json_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [("dim", 1), ("dim", 0), ("dim", "two"), ("dim", 2.0), ("dim", True),
         ("max_size", 0), ("max_size", "6"), ("eta", "x"), ("eta", float("nan")),
         ("eta", float("inf")), ("eta", False)],
    )
    def test_bad_scan_values_are_input_errors(self, key, value):
        params = {"group": {"kind": "cyclic", "n": 5}, key: value}
        rep = run_experiment({"kind": "scan", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert f"scan {key} must be" in rep.stages[-1]["result"]["message"]

    def test_scan_eta_null_and_integer_pass(self):
        for eta in (None, 1):
            params = {"group": {"kind": "cyclic", "n": 5}, "eta": eta, "max_size": 4}
            rep = run_experiment({"kind": "scan", "params": params, "seed": 0})
            assert rep.exit_code == EXIT_CLEAN

    def test_cli_scan_dim_one_exit_code(self, tmp_path):
        code = main(["scan-gensets", "--group", '{"kind": "cyclic", "n": 5}',
                     "--dim", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        report = json.loads((tmp_path / "report.json").read_text())
        assert "scan dim must be" in report["stages"][-1]["result"]["message"]


class TestErrors:
    def test_unknown_pipeline(self):
        from hdxcover.errors import InputError

        with pytest.raises(InputError):
            run_experiment({"kind": "nope"})

    def test_missing_file_is_input_error(self):
        spec = {
            "kind": "prune",
            "params": {
                "complex": "/nonexistent/x.json",
                "group": {"kind": "cyclic", "n": 5},
                "genset": [1, 2, 3, 4],
            },
            "seed": 0,
        }
        rep = run_experiment(spec)
        assert rep.exit_code == EXIT_INPUT

    def test_invalid_complex_rejected_before_compute(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "faces": [[0, 1, 2, 3]]}))
        spec = {
            "kind": "prune",
            "params": {
                "complex": str(bad),
                "group": {"kind": "cyclic", "n": 5},
                "genset": [1, 2, 3, 4],
            },
            "seed": 0,
        }
        rep = run_experiment(spec)
        assert rep.exit_code == EXIT_INPUT

    @pytest.mark.parametrize(
        "key, value, text",
        [
            ("complex", {"dim": 2, "faces": [[0, 1, 2], [0, 1, 3]],
                         "weights": [1.0, -1.0]}, "negative face weight"),
            ("genset", ["a"], "invalid literal"),
            ("group", {"kind": "cyclic", "n": "x"}, "invalid literal"),
            ("c", 0.5, "need c > 1, r > 1, eta > 0"),
            ("eta", 0.0, "need c > 1, r > 1, eta > 0"),
            ("c", "x", "bad parameter: could not convert"),
            ("eta", [1], "bad parameter: float() argument"),
        ],
    )
    def test_bad_spec_value_is_input_error(self, key, value, text):
        params = dict(PRUNE_SPEC["params"], **{key: value})
        rep = run_experiment({"kind": "prune", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert text in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize(
        "kind, key, value, text",
        [
            ("prune", "complex", "[[0,1,2]]", "a complex is a JSON object"),
            ("prune", "group", [[0]], "a group is a JSON object"),
            ("scan", "group", [[0]], "a group is a JSON object"),
            ("combine", "target", [[0, 1, 2]], "a complex is a JSON object"),
        ],
    )
    def test_array_input_is_input_error(self, kind, key, value, text):
        params = {
            "prune": PRUNE_SPEC["params"],
            "scan": {"group": {"kind": "cyclic", "n": 5}},
            "combine": {"complex": {"kind": "complete", "n": 8, "dim": 2},
                        "target": {"kind": "complete", "n": 5, "dim": 2}},
        }[kind]
        params = dict(params, **{key: value})
        rep = run_experiment({"kind": kind, "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert text in rep.stages[-1]["result"]["message"]

    def test_one_dimensional_prune_is_input_error(self):
        params = dict(PRUNE_SPEC["params"], complex={"kind": "complete", "n": 6, "dim": 1})
        rep = run_experiment({"kind": "prune", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert "dimension >= 2" in rep.stages[-1]["result"]["message"]

    def test_missing_spec_key_is_input_error(self):
        params = dict(PRUNE_SPEC["params"])
        del params["genset"]
        rep = run_experiment({"kind": "prune", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert "genset" in rep.stages[-1]["result"]["message"]

    def test_missing_group_key_is_input_error(self):
        params = dict(PRUNE_SPEC["params"], group={"kind": "cyclic"})
        rep = run_experiment({"kind": "prune", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT

    def test_internal_key_error_propagates(self, monkeypatch):
        def broken(report, params, seed):
            return {}["missing"]

        monkeypatch.setitem(harness.PIPELINES, "prune", broken)
        with pytest.raises(KeyError):
            run_experiment(PRUNE_SPEC)

    @pytest.mark.parametrize("kind", ["prune", "combine"])
    def test_lambda_out_of_range_is_input_error(self, kind):
        params = dict(PRUNE_SPEC["params"], **{"lambda": 1.5})
        if kind == "combine":
            params = {"complex": {"kind": "complete", "n": 8, "dim": 2},
                      "target": {"kind": "complete", "n": 5, "dim": 2},
                      "lambda": 1.5}
        rep = run_experiment({"kind": kind, "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert "lambda_target" in rep.stages[-1]["result"]["message"]

    def test_combine_empty_budget_is_input_error(self):
        params = {"complex": {"kind": "complete", "n": 8, "dim": 2},
                  "target": {"kind": "complete", "n": 5, "dim": 2},
                  "max_resamples": 0}
        rep = run_experiment({"kind": "combine", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT

    @pytest.mark.parametrize(
        "key, value", [("p_split", 0), ("p_split", 0.5), ("p_edge", 0), ("trials", 0)]
    )
    def test_bad_sparsify_numbers_are_input_errors(self, key, value):
        params = {"graph": {"kind": "complete", "n": 20}, "trials": 2, key: value}
        rep = run_experiment({"kind": "sparsify", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert key in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_sparsify_weight_is_input_error(self, weight):
        edges = [[0, 1, weight], [1, 2, 1.0], [0, 2, 1.0]]
        params = {"graph": {"edges": edges}, "trials": 2}
        rep = run_experiment({"kind": "sparsify", "params": params, "seed": 0})
        assert (rep.status, rep.exit_code) == ("input_error", EXIT_INPUT)
        assert "non-finite weight" in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize(
        "key, value",
        [("p_split", "x"), ("trials", "x"), ("split_factor", "x"), ("p_edge", None)],
    )
    def test_unreadable_sparsify_values_are_input_errors(self, key, value):
        params = {"graph": {"kind": "complete", "n": 20}, "trials": 2, key: value}
        rep = run_experiment({"kind": "sparsify", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert "bad parameter" in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize("value", ["x", None])
    def test_bad_seed_is_input_error(self, value):
        params = {"graph": {"kind": "complete", "n": 20}, "trials": 2}
        rep = run_experiment({"kind": "sparsify", "params": params, "seed": value})
        assert (rep.status, rep.exit_code) == ("input_error", EXIT_INPUT)
        assert rep.stages == [rep.stages[-1]]  # rejected before any stage ran
        assert "bad parameter" in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize("value", ["x", None, 0, -3, 2.0, True])
    def test_bad_index_cap_is_input_error(self, value):
        params = dict(PRUNE_SPEC["params"], index_cap=value)
        rep = run_experiment({"kind": "cover-family", "params": params, "seed": 2})
        assert rep.exit_code == EXIT_INPUT
        assert rep.stages == [rep.stages[-1]]  # rejected before pruning
        assert "index_cap must be" in rep.stages[-1]["result"]["message"]

    @pytest.mark.parametrize("value", [2.7, True, "5"])
    @pytest.mark.parametrize("kind, key", [
        ("prune", "max_resamples"), ("cover-family", "max_resamples"),
        ("sparsify", "trials"), ("combine", "max_resamples"), ("scan", "max_size"),
    ])
    def test_counts_that_are_not_integers_are_input_errors(self, kind, key, value):
        params = dict(COUNT_BASE[kind], **{key: value})
        rep = run_experiment({"kind": kind, "params": params, "seed": 0})
        assert (rep.status, rep.exit_code) == ("input_error", EXIT_INPUT)
        assert rep.stages == [rep.stages[-1]]  # rejected before any stage ran
        assert (f"{key} must be an integer >= 1, got {value!r}"
                in rep.stages[-1]["result"]["message"])


class TestPruneModes:
    """A spec's prune mode against the regime the resampling loop runs."""

    @pytest.mark.parametrize("command", ["prune", "cover-family"])
    def test_cli_default_mode_is_the_spec_default(self, command):
        args = cli.build_parser().parse_args(
            [command, "--complex", "x", "--group", "g", "--genset", "s"])
        params = {k: v for k, v in PRUNE_SPEC["params"].items() if k != "mode"}
        assert args.mode == harness._prune_config(params).mode

    def test_unknown_mode_is_input_error(self):
        params = dict(PRUNE_SPEC["params"], mode="exact")
        rep = run_experiment({"kind": "prune", "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert rep.stages[-1]["result"]["message"] == "unknown prune mode 'exact'"

    @pytest.mark.parametrize(
        "mode, kinds, at_dims, ne",
        [
            ("formula", {"AT", "BC", "NE"}, {0, 1}, (0.9 / 2, False)),
            ("empirical", {"AT", "BC", "EC", "NE"}, {0}, (0.9, True)),
        ],
        ids=pruning.MODES,
    )
    def test_mode_picks_events_and_ne_threshold(self, monkeypatch, mode, kinds, at_dims, ne):
        pruners, thresholds = [], set()
        run, ne_verdicts = pruning.Pruner.run, pruning.ne_verdicts

        def spy_run(self, rng):
            pruners.append(self)
            return run(self, rng)

        def spy_ne(sa, threshold, link_measure=False):
            thresholds.add((threshold, link_measure))
            return ne_verdicts(sa, threshold, link_measure)

        monkeypatch.setattr(pruning.Pruner, "run", spy_run)
        monkeypatch.setattr(pruning, "ne_verdicts", spy_ne)
        params = dict(PRUNE_SPEC["params"], complex={"kind": "complete", "n": 8, "dim": 2},
                      mode=mode, max_resamples=1)
        # an exhausted budget evaluates every event, NE included
        assert run_experiment({"kind": "prune", "params": params, "seed": 0}).exit_code \
            == EXIT_BUDGET
        (pruner,) = pruners
        assert pruner.config.mode == mode
        assert {kind for kind, _ in pruner.events()} == kinds
        assert {len(face) - 1 for kind, face in pruner.events() if kind == "AT"} == at_dims
        assert thresholds == {ne}


def spy_specs(monkeypatch):
    """The specs the CLI hands to run_experiment, run on none of them."""
    specs = []

    def spy(spec):
        specs.append(spec)
        return harness.RunReport(spec=spec)

    monkeypatch.setattr(cli, "run_experiment", spy)
    return specs


def subcommands():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return commands


class TestParamTable:
    """harness.PARAMS is the one list of pipeline keys and defaults."""

    @pytest.mark.parametrize("command, kind", cli.PIPELINE_COMMANDS.items())
    def test_flags_are_the_table_keys(self, command, kind):
        dests = {a.dest for a in subcommands()[command]._actions}
        assert dests - {"help", "seed", "out_dir"} == set(harness.PARAMS[kind])

    @pytest.mark.parametrize("command, kind", cli.PIPELINE_COMMANDS.items())
    def test_bare_cli_run_sends_the_table_defaults(self, tmp_path, monkeypatch,
                                                   command, kind):
        table = harness.PARAMS[kind]
        inputs = [a for key, v in table.items() if v is harness.INPUT
                  for a in ("--" + key, "x")]
        specs = spy_specs(monkeypatch)
        main([command, *inputs, "--out-dir", str(tmp_path)])
        (spec,) = specs
        assert spec["kind"] == kind
        assert spec["params"] == {key: "x" if v is harness.INPUT else v
                                  for key, v in table.items() if v is not harness.DERIVED}

    @pytest.mark.parametrize("command, kind", cli.PIPELINE_COMMANDS.items())
    def test_every_flag_reaches_the_spec(self, tmp_path, monkeypatch, command, kind):
        given = {key: "formula" if key == "mode" else "x" if v is harness.INPUT else 7
                 for key, v in harness.PARAMS[kind].items()}
        specs = spy_specs(monkeypatch)
        main([command, *(a for key, v in given.items()
                         for a in ("--" + key.replace("_", "-"), str(v))),
              "--out-dir", str(tmp_path)])
        (spec,) = specs
        assert spec["params"] == given  # 7.0 == 7 for the float keys

    def test_config_readers_take_the_table_defaults(self):
        table = harness.PARAMS
        config = harness._prune_config({})
        assert (config.lambda_target, config.r, config.mode,
                config.max_resamples) == tuple(table["prune"][key] for key in (
                    "lambda", "r", "mode", "max_resamples"))
        assert harness._suitability_config({}) == (table["prune"]["c"],
                                                    table["prune"]["eta"])
        assert harness._combine_config({}, 0.5).max_resamples \
            == table["combine"]["max_resamples"]
        assert harness._sparsify_config({}) == {
            key: v for key, v in table["sparsify"].items() if key != "graph"}
        assert harness._scan_config({}) == tuple(
            table["scan"][key] for key in ("dim", "max_size", "eta"))

    def test_check_suitable_defaults_are_the_prune_defaults(self):
        args = cli.build_parser().parse_args(["check-suitable", "--complex", "x"])
        assert (args.c, args.r, args.eta) == tuple(
            harness.PARAMS["prune"][key] for key in ("c", "r", "eta"))


class TestStrictSpecKeys:
    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("prune", dict(PRUNE_SPEC["params"], lamda=0.5), "lamda"),
            ("sparsify", {"graph": {"kind": "complete", "n": 20}, "p_splt": 0.3},
             "p_splt"),
        ],
    )
    def test_unknown_key_is_input_error(self, kind, params, key):
        rep = run_experiment({"kind": kind, "params": params, "seed": 0})
        assert rep.exit_code == EXIT_INPUT
        assert rep.stages == [rep.stages[-1]]  # rejected before any stage ran
        assert repr(key) in rep.stages[-1]["result"]["message"]

    def test_cli_specs_pass(self, tmp_path, monkeypatch):
        specs = spy_specs(monkeypatch)
        prune = ["--complex", "x", "--group", "g", "--genset", "s"]
        for argv in (
            ["prune", *prune],
            ["cover-family", *prune],
            ["sparsify", "--graph", "g"],
            ["combine", "--complex", "x", "--target", "t", "--lambda", "0.5"],
            ["scan-gensets", "--group", "g", "--eta", "0.5"],
        ):
            main([*argv, "--out-dir", str(tmp_path)])
        assert len(specs) == 5
        for spec in specs:
            harness._check_param_keys(spec["kind"], spec["params"])

    def test_benchmark_specs_pass(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for seed_set in workloads.SEED_SETS:
                for spec in workloads.specs(name, seed_set):
                    harness._check_param_keys(spec["kind"], spec["params"])


class TestLinkSkeletonPath:
    def test_certifiers_build_no_complex_per_link(self, monkeypatch):
        X = complete_complex(9, 3)
        g = cyclic(3)
        f = coboundary_labeling(X, g, [v % 3 for v in X.vertices])
        cover = build_cover(X, f, g)
        built = []
        init = PureComplex.__init__

        def counting_init(self, *args):
            built.append(args[1])
            init(self, *args)

        monkeypatch.setattr(PureComplex, "__init__", counting_init)
        assert is_hdx(X, 0.9).passes
        check_suitable(X, c=1.1, r=1.5, eta=0.9)
        gap, mismatch = cover_link_gap(cover)
        assert gap <= 1e-9 and mismatch is None
        assert built == []


class TestCoverLinkSpectra:
    def test_link_size_mismatch_is_witnessed(self):
        # not a cover: vertex 2's link is one edge, its image's a triangle
        base = complete_complex(4, 2)
        bad = build_complex(2, [(0, 1, 2), (0, 1, 3)])
        cover = CoverComplex(bad, base, cyclic(1), np.zeros(6, dtype=np.int64),
                             {v: (v, 0) for v in bad.vertices})
        gap, mismatch = cover_link_gap(cover)
        assert mismatch == 2
        # vertices 0 and 1 link a path (spectrum 1, 0, -1) over a triangle's
        # (1, -1/2, -1/2)
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_mismatch_fails_the_audit(self, monkeypatch):
        monkeypatch.setattr(harness, "cover_link_gap", lambda cover: (0.0, 17))
        rep = run_experiment(PRUNE_SPEC)
        audit = next(a for a in rep.audits if a["name"] == "cover_link_spectra")
        assert not audit["ok"]
        assert audit["detail"] == {"worst_gap": 0.0, "size_mismatch": 17}
        assert rep.exit_code == EXIT_AUDIT


class TestStageSeeds:
    def test_distinct_per_stage(self):
        assert stage_seed(0, "prune") != stage_seed(0, "sparsify")

    def test_stable(self):
        assert stage_seed(7, "prune") == stage_seed(7, "prune")


class TestCli:
    def test_build_and_verify(self, tmp_path):
        out = tmp_path / "k6.json"
        assert main(["build-complete", "--n", "6", "--dim", "2",
                     "--out", str(out)]) == 0
        assert main(["verify-hdx", "--complex", str(out),
                     "--lambda", "0.5"]) == 0
        assert main(["verify-hdx", "--complex", str(out),
                     "--lambda", "0.1"]) == 3

    def test_check_suitable(self, tmp_path, capsys):
        out = tmp_path / "k12.json"
        main(["build-complete", "--n", "12", "--dim", "2", "--out", str(out)])
        assert main(["check-suitable", "--complex", str(out),
                     "--c", "1.1", "--r", "1.01", "--eta", "0.4"]) == 0

    def test_tensor(self, tmp_path):
        src = tmp_path / "tri.json"
        src.write_text(json.dumps({"dim": 2, "faces": [[0, 1, 2]]}))
        out = tmp_path / "tensored.json"
        assert main(["tensor", "--complex", str(src), "--t", "3",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["faces"]) == 6

    def test_eml(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        edges = [[i, j, 1.0] for i in range(6) for j in range(i + 1, 6)]
        graph.write_text(json.dumps({"edges": edges}))
        assert main(["eml", "--graph", str(graph)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"]
        assert out["eml_ratio"] <= out["two_sided_lambda"] + 1e-9

    def test_eml_inline_and_complete_graphs(self, capsys):
        assert main(["eml", "--graph", '{"kind": "complete", "n": 6}']) == 0
        complete = json.loads(capsys.readouterr().out)
        edges = [[i, j, 1.0] for i in range(6) for j in range(i + 1, 6)]
        assert main(["eml", "--graph", json.dumps({"edges": edges})]) == 0
        assert json.loads(capsys.readouterr().out) == complete

    @pytest.mark.parametrize("text", ['{"nodes": [1, 2]}', "{not json", "[[0, 1, 1.0]]"])
    def test_eml_bad_graph_exit_code(self, tmp_path, text):
        graph = tmp_path / "g.json"
        graph.write_text(text)
        assert main(["eml", "--graph", str(graph)]) == 4

    def test_sparsify_loop_edge_exit_code(self, tmp_path):
        graph = json.dumps({"edges": [[0, 1, 1.0], [1, 1, 1.0]]})
        code = main(["sparsify", "--graph", graph, "--trials", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert "loop edge" in report["stages"][-1]["result"]["message"]

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_eml_non_finite_weight_exit_code(self, capsys, weight):
        graph = f'{{"edges": [[0, 1, {weight}], [1, 2, 1.0], [0, 2, 1.0]]}}'
        assert main(["eml", "--graph", graph]) == 4
        assert "non-finite weight" in capsys.readouterr().err

    def test_eml_graph_sides_mix_side_against_side(self, capsys):
        # the path 0-1-2: as a general graph {0, 2} against {1} is a pair
        # with discrepancy; as the bipartite graph with those sides it is
        # complete bipartite and mixes perfectly
        edges = [[0, 1, 1.0], [1, 2, 1.0]]
        for sides, alpha in ((None, 0.5), ([[0, 2], [1]], 0.0)):
            graph = {"edges": edges} if sides is None else {"edges": edges, "sides": sides}
            assert main(["eml", "--graph", json.dumps(graph)]) == 0
            assert json.loads(capsys.readouterr().out)["alpha"] == alpha
        G = harness.load_graph_input(json.dumps({"edges": edges, "sides": [[0, 2], [1]]}))
        assert G.sides == (frozenset({0, 2}), frozenset({1}))

    @pytest.mark.parametrize("sides, message", [
        ([[0, 2], [1, 2]], "sides overlap"),
        ([[0, 1], [2]], "does not cross the partition"),
        ([[0], [1]], "vertices outside both sides"),
        ([[0, 2]], "bad parameter: not enough values to unpack"),
        (5, "bad parameter"),
    ])
    def test_eml_bad_graph_sides_exit_code(self, capsys, sides, message):
        graph = json.dumps({"edges": [[0, 1, 1.0], [1, 2, 1.0]], "sides": sides})
        assert main(["eml", "--graph", graph]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["-1", "nan"])
    def test_verify_hdx_bad_lambda_exit_code(self, capsys, lam):
        k6 = json.dumps({"kind": "complete", "n": 6, "dim": 2})
        assert main(["verify-hdx", "--complex", k6, "--lambda", lam]) == 4
        assert f"lambda must be a number >= 0, got {float(lam)}" in capsys.readouterr().err

    def test_verify_hdx_infinite_lambda_exit_code(self, capsys):
        # an infinite threshold would pass any complex and print the
        # non-JSON token Infinity
        k6 = json.dumps({"kind": "complete", "n": 6, "dim": 2})
        assert main(["verify-hdx", "--complex", k6, "--lambda", "inf"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "lambda must be finite, got inf" in err

    def test_mode_choices_are_the_prune_modes(self):
        for command in ("prune", "cover-family"):
            (mode,) = [a for a in subcommands()[command]._actions if a.dest == "mode"]
            assert tuple(mode.choices) == pruning.MODES

    def test_cover_subcommand_removed(self):
        with pytest.raises(SystemExit):
            main(["cover", "--complex", "x", "--group", "g", "--genset", "s"])

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["verify-hdx", "--complex", "/nope.json",
                     "--lambda", "0.5"]) == 4

    @staticmethod
    def complex_commands(path, tmp_path):
        return [
            ["tensor", "--complex", path, "--t", "3", "--out", str(tmp_path / "t.json")],
            ["check-suitable", "--complex", path, "--eta", "0.9"],
            ["verify-hdx", "--complex", path, "--lambda", "0.9"],
        ]

    @pytest.mark.parametrize("obj", [{"kind": "complete", "n": 6, "dim": 2},
                                     {"dim": 2, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3],
                                                          [1, 2, 3]]}])
    def test_complex_commands_read_inline_json(self, tmp_path, capsys, obj):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(obj))
        for inline, from_file in zip(self.complex_commands(json.dumps(obj), tmp_path),
                                     self.complex_commands(str(path), tmp_path)):
            code = main(inline)
            assert code in (EXIT_CLEAN, EXIT_AUDIT), inline
            out = capsys.readouterr().out
            assert (main(from_file), capsys.readouterr().out) == (code, out)

    @pytest.mark.parametrize("obj, text", [
        ({"dim": 2, "faces": [[0, 1, 2]], "weights": "ab"}, "could not convert"),
        ({"dim": "x", "faces": [[0, 1, 2]]}, "invalid literal"),
    ])
    def test_malformed_complex_file_exit_code(self, tmp_path, capsys, obj, text):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        for argv in self.complex_commands(str(path), tmp_path):
            assert main(argv) == EXIT_INPUT, argv
            assert text in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["check-suitable", "--complex", '{"kind": "complete", "n": 6, "dim": 2}',
          "--c", "0.5"], "need c > 1"),
        (["build-complete", "--n", "6", "--dim", "-3", "--out", "x.json"],
         "dimension >= 0"),
        (["eml", "--graph", '{"kind": "complete", "n": 6}', "--samples", "-3"],
         "samples >= 1"),
    ])
    def test_bad_flag_value_exit_code(self, tmp_path, monkeypatch, capsys, argv, text):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and text in out.err

    def test_prune_cli(self, tmp_path):
        cx = tmp_path / "x.json"
        grp = tmp_path / "g.json"
        gens = tmp_path / "s.json"
        cx.write_text(json.dumps({"kind": "complete", "n": 12, "dim": 2}))
        grp.write_text(json.dumps({"kind": "cyclic", "n": 5}))
        gens.write_text(json.dumps([1, 2, 3, 4]))
        code = main([
            "prune", "--complex", str(cx), "--group", str(grp),
            "--genset", str(gens), "--lambda", "0.9",
            "--max-resamples", "50", "--seed", "0",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code in (EXIT_CLEAN, EXIT_BUDGET)
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "timings.json").exists()


def test_benchmark_selftest_passes():
    """The benchmark's tracing self-test: every traced name still resolves on
    its own class, and a brute-force replay reproduces the loop's path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
