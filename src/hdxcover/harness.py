"""Experiment orchestration: pipelines, audits, and report emission.

A spec is a plain dict (usually parsed from CLI flags or a JSON file)
naming a pipeline and its inputs.  Reports are emitted as deterministic
JSON (stable key order, no timestamps); wall times go to a separate file
so identical seeds reproduce identical report bytes.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import combine as combine_mod
from . import covers as covers_mod
from . import groups as groups_mod
from . import pruning as pruning_mod
from . import sparsify as sparsify_mod
from .complexes import check_suitable, complete_complex, complex_from_dict
from .errors import HdxError, InputError, Unmeasurable
from .graphs import WGraph, complete_graph
from .spectral import adjacency_spectrum, is_hdx, link_spectra, spectra_csv

EXIT_CLEAN = 0
EXIT_BUDGET = 2
EXIT_AUDIT = 3
EXIT_INPUT = 4


def stage_seed(master, stage):
    """Deterministic per-stage seed: the stage name hashed into the stream."""
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunReport:
    spec: dict
    stages: list = field(default_factory=list)
    audits: list = field(default_factory=list)
    status: str = "clean"
    exit_code: int = EXIT_CLEAN
    timings: dict = field(default_factory=dict)
    spectra: str | None = None
    lambda_series: list = field(default_factory=list)
    outcome: dict | None = None
    cover_export: dict | None = None

    def add_stage(self, name, payload):
        self.stages.append({"name": name, "result": payload})

    def add_audit(self, name, ok, detail):
        self.audits.append({"name": name, "ok": bool(ok), "detail": detail})

    def finish(self):
        if any(not a["ok"] for a in self.audits) and self.exit_code == EXIT_CLEAN:
            self.exit_code = EXIT_AUDIT
            self.status = "audit_failure"
        return self

    def payload(self):
        # timings are deliberately left out: identical seeds must yield
        # identical bytes
        return {
            "spec": self.spec,
            "stages": self.stages,
            "audits": self.audits,
            "status": self.status,
            "exit_code": self.exit_code,
        }

    def to_json_bytes(self):
        return (
            json.dumps(self.payload(), sort_keys=True, indent=2, default=_jsonify)
            + "\n"
        ).encode()


@contextlib.contextmanager
def timed(report, name):
    """Record the wall time of the with-block as report.timings[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.timings[name] = time.perf_counter() - t0


@contextlib.contextmanager
def _audit(report, name):
    """Time a measure audit as audit.<name>; an Unmeasurable raised in it
    fails the audit with the exception's witness."""
    with timed(report, f"audit.{name}"):
        try:
            yield
        except Unmeasurable as exc:
            report.add_audit(name, False, {"error": type(exc).__name__, "message": str(exc),
                                           "witness": list(exc.witness)})


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# --- input loading ---


def _field(obj, key):
    """obj[key] for a spec object; a missing key is bad input."""
    try:
        return obj[key]
    except KeyError:
        raise InputError(f"spec object is missing {key!r}") from None


def _read_input(obj):
    """A spec value as parsed JSON: inline JSON when the string looks like
    JSON, else a file path to read; other values pass through."""
    if isinstance(obj, str) and obj.lstrip()[:1] in ("{", "["):
        return json.loads(obj)
    if isinstance(obj, str):
        with open(obj) as fh:
            return json.load(fh)
    return obj


def _spec_config(build):
    """Wrap a spec reader so that a value it rejects is bad input."""

    @functools.wraps(build)
    def wrapped(*args):
        try:
            return build(*args)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad parameter: {exc}") from None

    return wrapped


@_spec_config
def _load_complex_input(obj):
    obj = _read_input(obj)
    if not isinstance(obj, dict):
        raise InputError("a complex is a JSON object")
    if obj.get("kind") == "complete":
        return complete_complex(int(_field(obj, "n")), int(_field(obj, "dim")))
    return complex_from_dict(obj)


@_spec_config
def _load_group_input(obj):
    obj = _read_input(obj)
    if not isinstance(obj, dict):
        raise InputError("a group is a JSON object")
    return groups_mod.make_group(obj)


@_spec_config
def _load_graph_input(obj):
    obj = _read_input(obj)
    if not isinstance(obj, dict):
        raise InputError("a graph is a JSON object")
    if obj.get("kind") == "complete":
        return complete_graph(int(_field(obj, "n")))
    if obj.get("kind") == "edges" or "edges" in obj:
        return WGraph([tuple(e) for e in _field(obj, "edges")])
    raise InputError(f"unrecognized graph object: {sorted(obj)}")


@_spec_config
def _load_genset_input(obj):
    obj = _read_input(obj)
    if isinstance(obj, dict):
        obj = _field(obj, "generators")
    return [int(x) for x in obj]


# --- pipelines ---


@_spec_config
def _prune_config(params):
    mode = params.get("mode", "empirical")
    kw = dict(
        lambda_target=float(params.get("lambda", 0.9)),
        r=float(params.get("r", 1.5)),
        c=float(params.get("c", 1.1)),
        eta=float(params.get("eta", 0.3)),
        max_resamples=int(params.get("max_resamples", 10_000)),
    )
    if mode == "formula":
        return pruning_mod.PruneConfig.formula(**kw)
    if mode == "empirical":
        return pruning_mod.PruneConfig.empirical(**kw)
    raise InputError(f"unknown prune mode {mode!r}")


@_spec_config
def _combine_config(params, lam):
    return combine_mod.CombineConfig(
        lambda_target=float(lam),
        max_resamples=int(params.get("max_resamples", 10_000)),
    )


def _index_cap(params):
    cap = params.get("index_cap", 64)
    if type(cap) is not int or cap < 1:
        raise InputError(f"cover-family index_cap must be an integer >= 1, got {cap!r}")
    return cap


@_spec_config
def _sparsify_config(params):
    """The sparsify_trial arguments of a sparsify spec but the seed, each
    read as the type of its default."""
    defaults = {"p_split": 0.3, "p_edge": 0.5, "trials": 50, "split_factor": 100.0,
                "edge_threshold": 0.95}
    return {key: type(v)(params.get(key, v)) for key, v in defaults.items()}


def _transcript_digest(transcript):
    h = hashlib.sha256()
    for entry in transcript:
        h.update(repr(entry).encode())
    return h.hexdigest()


def _prune_stages(report, params, seed):
    X = _load_complex_input(_field(params, "complex"))
    if X.dim < 2:
        raise InputError(f"prune needs a complex of dimension >= 2, got {X.dim}")
    group = _load_group_input(_field(params, "group"))
    gens = groups_mod.validate_genset(
        group, _load_genset_input(_field(params, "genset"))
    )
    config = _prune_config(params)

    with timed(report, "suitability"):
        suit = check_suitable(X, config.c, config.r, config.eta)
    report.add_stage("suitability", suit.to_dict())

    report.add_stage(
        "cayley",
        {
            "group": group.name,
            "gens": list(gens),
            "worst_link_lambda": groups_mod.identity_star_lambda(group, gens, X.dim),
        },
    )

    with timed(report, "prune"):
        pruner = pruning_mod.Pruner(X, group, gens, config)
        outcome = pruner.run(stage_seed(seed, "prune"))
    report.add_stage(
        "prune",
        {
            "status": outcome.status,
            "resamples": outcome.resamples,
            "transcript_digest": _transcript_digest(outcome.transcript),
            "kept_top_faces": 0 if outcome.y is None else len(outcome.y.top_faces),
            "isolated_vertices": list(outcome.isolated_vertices),
            "violations_remaining": [
                [k, list(f)] for k, f in outcome.violations_remaining
            ],
        },
    )
    report.outcome = {
        "labeling": [
            [int(u), int(v), int(l)]
            for (u, v), l in zip(pruner.edges, outcome.labeling)
        ],
        "y_top_faces": []
        if outcome.y is None
        else [list(f) for f in outcome.y.top_faces],
        "transcript": [
            [it, kind, list(face), len(scope)]
            for it, kind, face, scope in outcome.transcript
        ],
        "status": outcome.status,
    }
    return pruner, outcome


def cover_link_gap(cover):
    """Largest eigenvalue gap between a cover vertex's link skeleton and
    the link skeleton of its image in the base, and the first cover vertex
    whose link has another vertex count than its image's (its gap is not
    taken), or None."""
    def spectra(X):  # each vertex link's eigenvalues, in vertex order
        return [ev for _, _, vlink, ends, mass in X.link_blocks(0)
                for ev in link_spectra(vlink, ends, mass)[2]]

    base_spec = dict(zip(cover.base.vertices, spectra(cover.base)))
    worst_gap, mismatch = 0.0, None
    for vid, ev in zip(cover.complex.vertices, spectra(cover.complex)):
        down = base_spec[cover.phi(vid)]
        if len(ev) == len(down):
            worst_gap = max(worst_gap, float(np.abs(ev - down).max()))
        elif mismatch is None:
            mismatch = vid
    return worst_gap, mismatch


def _audit_clean_prune(report, pruner, outcome):
    X, group, gens, config = pruner.X, pruner.group, pruner.gens, pruner.config
    y, f = outcome.y, outcome.labeling
    lam = config.lambda_target
    with timed(report, "audit.y_is_hdx"):
        hdx = is_hdx(y, lam)
    report.add_audit("y_is_hdx", hdx.passes, hdx.to_dict())
    report.spectra = spectra_csv(hdx)
    report.lambda_series = sorted(row.value for row in hdx.rows)

    m = len(gens)
    d = X.dim
    uniform_bound = (1.0 / (2 * m**d)) ** d
    with timed(report, "audit.face_fraction"):
        fractions = pruning_mod.face_fraction_report(X, y)
    frac_ok = all(v >= uniform_bound for v in fractions.values())
    for ell in range(0, d):
        frac_ok = frac_ok and fractions[ell] >= (1.0 / (2 * m**d)) ** (d - ell)
    report.add_audit(
        "face_fraction",
        frac_ok,
        {"fractions": {str(k): v for k, v in fractions.items()}, "bound": uniform_bound},
    )

    with timed(report, "audit.build_cover"):
        cover = covers_mod.build_cover(y, pruner.elements_on(y, f), group)
        cover.complex.level(1)  # read by both audits below, so built here
    with timed(report, "audit.cover_components"):
        comp = covers_mod.cover_components(cover)
    hol_order = group.order // comp.expected_index
    report.add_audit(
        "holonomy_full", hol_order == group.order, {"subgroup_order": hol_order}
    )
    report.add_audit(
        "cover_connected",
        comp.count == 1 and comp.matches,
        {"components": comp.count, "expected_index": comp.expected_index},
    )
    with timed(report, "audit.verify_cover"):
        cover_report = covers_mod.verify_cover(cover)
    report.add_audit(
        "verify_cover",
        cover_report.ok,
        {"faces_checked": cover_report.faces_checked,
         "violations": len(cover_report.violations)},
    )
    with timed(report, "audit.cover_export"):
        report.cover_export = covers_mod.cover_to_dict(cover)

    with timed(report, "audit.cover_link_spectra"):
        worst_gap, mismatch = cover_link_gap(cover)
    detail = {"worst_gap": worst_gap}
    if mismatch is not None:
        detail["size_mismatch"] = mismatch
    report.add_audit(
        "cover_link_spectra", mismatch is None and worst_gap <= 1e-9, detail)

    with _audit(report, "pruned_measure_total"):
        pm = pruning_mod.pruned_measure(pruner, y, f)
        report.add_audit(
            "pruned_measure_total", abs(pm.total - 1.0) <= 1e-9, {"total": pm.total}
        )

    with _audit(report, "measure_ratio"):
        worst_ratio = 1.0
        bound = config.r ** (15 * d)
        for ell in range(0, d - 1):
            for ratio in pruning_mod.measure_ratio_audit(pruner, y, f, ell):
                if not ratio.support_matches:
                    report.add_audit("measure_ratio", False, {"sigma": list(ratio.sigma)})
                    return
                worst_ratio = max(worst_ratio, ratio.max_ratio)
        report.add_audit(
            "measure_ratio",
            worst_ratio <= bound,
            {"max_ratio": worst_ratio, "bound": bound},
        )


def run_prune(report, params, seed):
    """The prune pipeline; returns the finished report, the Pruner and the
    outcome."""
    pruner, outcome = _prune_stages(report, params, seed)
    if outcome.status != "clean":
        report.status = "budget_exhausted"
        report.exit_code = EXIT_BUDGET
        return report.finish(), pruner, outcome
    _audit_clean_prune(report, pruner, outcome)
    return report.finish(), pruner, outcome


def run_cover_family(report, params, seed):
    index_cap = _index_cap(params)
    report, pruner, outcome = run_prune(report, params, seed)
    if outcome.status != "clean":
        return report
    group, y = pruner.group, outcome.y
    labels = pruner.elements_on(y, outcome.labeling)
    family = []
    lam = pruner.config.lambda_target
    for sub in groups_mod.normal_subgroups(group, index_cap=index_cap):
        quotient = groups_mod.quotient_group(group, sub)
        with timed(report, f"cover_family.index_{quotient.group.order}"):
            pushed = covers_mod.push_cocycle(y, labels, group, quotient)
            cover = covers_mod.build_cover(y, pushed, quotient.group)
            comp = covers_mod.cover_components(cover)
            vc = covers_mod.verify_cover(cover)
            links = is_hdx(cover.complex, lam, include_empty_face=False)
            skeleton = adjacency_spectrum(cover.complex.one_skeleton()).two_sided
        family.append(
            {
                "subgroup_order": len(sub),
                "quotient_order": quotient.group.order,
                "cover_vertices": len(cover.complex.vertices),
                "components": comp.count,
                "verified": vc.ok,
                "links_within_lambda": links.passes,
                "skeleton_lambda": skeleton,
            }
        )
        report.add_audit(
            f"cover_family_index_{quotient.group.order}",
            vc.ok and comp.count == 1 and links.passes,
            {"components": comp.count, "skeleton_lambda": skeleton},
        )
    report.add_stage("cover_family", {"members": family})
    return report.finish()


def run_sparsify(report, params, seed):
    G = _load_graph_input(_field(params, "graph"))
    trial = sparsify_mod.sparsify_trial(
        G, rng=stage_seed(seed, "sparsify"), **_sparsify_config(params)
    )
    report.add_stage("sparsify", trial.to_dict())
    report.lambda_series = sorted(trial.edge_lambdas)
    report.add_audit(
        "split_bound_rate", trial.split_ok_fraction >= 0.9, trial.split_ok_fraction
    )
    report.add_audit(
        "edge_threshold_rate", trial.edge_ok_fraction >= 0.9, trial.edge_ok_fraction
    )
    return report.finish()


def run_combine(report, params, seed):
    X = _load_complex_input(_field(params, "complex"))
    C = _load_complex_input(_field(params, "target"))
    lam = params.get("lambda")
    if lam is None:
        lam = is_hdx(C, 1.0).worst_value
        lam = max(min(lam, 0.999), 1e-6)
    config = _combine_config(params, lam)
    with timed(report, "combine"):
        outcome = combine_mod.Combiner(X, C, config).run(stage_seed(seed, "combine"))
    report.add_stage(
        "combine",
        {
            "status": outcome.status,
            "resamples": outcome.resamples,
            "transcript_digest": _transcript_digest(outcome.transcript),
            "measure_kind": outcome.measure_kind,
            "kept_top_faces": 0 if outcome.y is None else len(outcome.y.top_faces),
        },
    )
    report.outcome = {
        "coloring": {str(v): c for v, c in sorted(outcome.coloring.items())},
        "y_top_faces": []
        if outcome.y is None
        else [list(f) for f in outcome.y.top_faces],
        "transcript": [
            [it, kind, list(face), len(scope)]
            for it, kind, face, scope in outcome.transcript
        ],
        "status": outcome.status,
    }
    if outcome.status != "clean":
        report.status = "budget_exhausted"
        report.exit_code = EXIT_BUDGET
        return report.finish()
    with timed(report, "audit.verify_combine"):
        verdict = combine_mod.verify_combine(X, C, outcome)
    report.add_audit("verify_combine", verdict.ok, verdict.to_dict())
    return report.finish()


def _scan_config(params):
    """dim, max_size and eta of a scan spec; a bad value is bad input."""
    dim, size, eta = params.get("dim", 2), params.get("max_size", 8), params.get("eta")
    for key, value, ok, rule in (
        ("dim", dim, type(dim) is int and dim >= 2, "an integer >= 2"),
        ("max_size", size, type(size) is int and size >= 1, "an integer >= 1"),
        ("eta", eta, eta is None or type(eta) in (int, float) and math.isfinite(eta),
         "a finite number or null"),
    ):
        if not ok:
            raise InputError(f"scan {key} must be {rule}, got {value!r}")
    return dim, size, eta


def run_scan(report, params, seed):
    group = _load_group_input(_field(params, "group"))
    dim, max_size, eta = _scan_config(params)
    counts = {}
    with timed(report, "scan"):
        candidates = groups_mod.scan_gensets(
            group, dim, eta_target=eta, max_size=max_size, counts=counts
        )
    report.add_stage(
        "scan",
        {
            "group": group.name,
            "counts": counts,
            "candidates": [
                {
                    "gens": list(c.gens),
                    "worst_link_lambda": c.worst_link_lambda,
                    "meets_target": c.meets_target,
                }
                for c in candidates
            ],
        },
    )
    report.lambda_series = sorted(c.worst_link_lambda for c in candidates)
    if candidates:
        # the one full-complex check of the star score
        best = candidates[0]
        with timed(report, "audit.scan_reverification"):
            cayley = groups_mod.cayley_clique_complex(group, best.gens, dim)
            full = is_hdx(cayley.complex, 1.0, include_empty_face=False).worst_value
        bound = 1e-9
        slack = bound - abs(full - best.worst_link_lambda)
        report.add_audit(
            "scan_reverification",
            slack >= 0,
            {"gens": list(best.gens), "lambda": best.worst_link_lambda,
             "observed": full, "bound": bound, "slack": slack},
        )
    return report.finish()


PIPELINES = {
    "prune": lambda rep, p, s: run_prune(rep, p, s)[0],
    "cover-family": run_cover_family,
    "sparsify": run_sparsify,
    "combine": run_combine,
    "scan": run_scan,
}

_PRUNE_KEYS = {"complex", "group", "genset", "mode", "lambda", "r", "c", "eta",
               "max_resamples"}
# the params keys each pipeline reads; any other key is a misspelling
PARAM_KEYS = {
    "prune": frozenset(_PRUNE_KEYS),
    "cover-family": frozenset(_PRUNE_KEYS | {"index_cap"}),
    "sparsify": frozenset({"graph", "p_split", "p_edge", "trials", "split_factor",
                           "edge_threshold"}),
    "combine": frozenset({"complex", "target", "lambda", "max_resamples"}),
    "scan": frozenset({"group", "dim", "eta", "max_size"}),
}


def _check_param_keys(kind, params):
    if not isinstance(params, dict):
        raise InputError("spec params must be a JSON object")
    unknown = sorted(set(params) - PARAM_KEYS[kind])
    if unknown:
        raise InputError(
            f"unknown {kind} parameter(s) {unknown}; "
            f"expected some of {sorted(PARAM_KEYS[kind])}"
        )


def run_experiment(spec):
    """Dispatch a spec dict to its pipeline; returns a RunReport."""
    kind = spec.get("kind")
    if kind not in PIPELINES:
        raise InputError(f"unknown pipeline {kind!r}")
    params, seed = spec.get("params", {}), spec.get("seed", 0)
    report = RunReport(spec={"kind": kind, "params": params, "seed": seed})
    with timed(report, "total"):
        try:
            seed = report.spec["seed"] = _spec_config(int)(seed)
            _check_param_keys(kind, params)
            PIPELINES[kind](report, params, seed)
        except (OSError, json.JSONDecodeError, InputError) as exc:
            report.status = "input_error"
            report.exit_code = EXIT_INPUT
            report.add_stage("error", {"message": str(exc)})
        except HdxError as exc:
            report.status = "input_error"
            report.exit_code = EXIT_INPUT
            report.add_stage("error", {"type": type(exc).__name__, "message": str(exc)})
    return report


def emit_report(report, out_dir, formats=("json", "csv", "plot")):
    """Write the report files; returns the list of paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "report.json")
    with open(path, "wb") as fh:
        fh.write(report.to_json_bytes())
    written.append(path)

    if "csv" in formats and report.spectra:
        path = os.path.join(out_dir, "spectra.csv")
        with open(path, "w") as fh:
            fh.write(report.spectra)
        written.append(path)

    if report.outcome is not None:
        path = os.path.join(out_dir, "outcome.json")
        with open(path, "w") as fh:
            json.dump(report.outcome, fh, sort_keys=True, indent=2,
                      default=_jsonify)
            fh.write("\n")
        written.append(path)

    if report.cover_export is not None:
        path = os.path.join(out_dir, "cover.json")
        with open(path, "w") as fh:
            json.dump(report.cover_export, fh, sort_keys=True, indent=2,
                      default=_jsonify)
            fh.write("\n")
        written.append(path)

    if "plot" in formats and report.lambda_series:
        path = os.path.join(out_dir, "lambda_series.dat")
        with open(path, "w") as fh:
            for i, v in enumerate(report.lambda_series):
                fh.write(f"{i} {v!r}\n")
        written.append(path)

    path = os.path.join(out_dir, "timings.json")
    with open(path, "w") as fh:
        json.dump(report.timings, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(path)
    return written
