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
from dataclasses import asdict, dataclass, field

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

# what a pipeline run or a CLI command reports as bad input, exit 4
INPUT_ERRORS = (OSError, HdxError)


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
        """The payload as deterministic JSON: sorted keys, numpy values as Python's."""
        return (json.dumps(self.payload(), sort_keys=True, indent=2, default=_jsonify)
                + "\n").encode()


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
def load_complex_input(obj):
    """A complex from a file path or inline JSON, of either README form."""
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
def load_graph_input(obj):
    """A graph from a file path or inline JSON, of either README form."""
    obj = _read_input(obj)
    if not isinstance(obj, dict):
        raise InputError("a graph is a JSON object")
    if obj.get("kind") == "complete":
        return complete_graph(int(_field(obj, "n")))
    if obj.get("kind") == "edges" or "edges" in obj:
        return WGraph([tuple(e) for e in _field(obj, "edges")], obj.get("sides"))
    raise InputError(f"unrecognized graph object: {sorted(obj)}")


@_spec_config
def _load_genset_input(obj):
    obj = _read_input(obj)
    if isinstance(obj, dict):
        obj = _field(obj, "generators")
    return [int(x) for x in obj]


# --- the spec schema ---

INPUT = object()  # a file path or inline JSON the spec must name
DERIVED = None  # a number the pipeline works out when the spec leaves it out

_PRUNE = pruning_mod.PruneConfig
_PRUNE_PARAMS = {
    "complex": INPUT, "group": INPUT, "genset": INPUT,
    "mode": "empirical",  # PruneConfig's own "formula" serves library callers
    "lambda": 0.9, "r": _PRUNE.r,
    "c": 1.1, "eta": 0.3,  # only check_suitable reads these
    "max_resamples": _PRUNE.max_resamples,
}
# every params key of each pipeline and its default; any other key is a
# misspelling.  The CLI builds its pipeline flags from this table.
PARAMS = {
    "prune": _PRUNE_PARAMS,
    "cover-family": {**_PRUNE_PARAMS, "index_cap": 64},
    "sparsify": {"graph": INPUT, "p_split": 0.3, "p_edge": 0.5, "trials": 50,
                 "split_factor": 100.0, "edge_threshold": 0.95},
    "combine": {"complex": INPUT, "target": INPUT, "lambda": DERIVED,
                "max_resamples": combine_mod.CombineConfig.max_resamples},
    "scan": {"group": INPUT, "dim": 2, "eta": DERIVED, "max_size": 8},
}


def _param(kind, params, key):
    """params[key], or its PARAMS default; an input left out is bad input."""
    value = params.get(key, PARAMS[kind][key])
    if value is INPUT:
        raise InputError(f"spec object is missing {key!r}")
    return value


# --- pipelines ---


@_spec_config
def _count(kind, params, key):
    """A count param, an int >= 1."""
    value = _param(kind, params, key)
    if type(value) is not int or value < 1:
        raise ValueError(f"{kind} {key} must be an integer >= 1, got {value!r}")
    return value


@_spec_config
def _prune_config(params):
    get = functools.partial(_param, "prune", params)
    mode = get("mode")
    if mode not in pruning_mod.MODES:
        raise InputError(f"unknown prune mode {mode!r}")
    return pruning_mod.PruneConfig(
        lambda_target=float(get("lambda")),
        r=float(get("r")),
        mode=mode,
        max_resamples=_count("prune", params, "max_resamples"),
    )


@_spec_config
def _suitability_config(params):
    """c and eta of a prune spec, which only check_suitable reads."""
    return float(_param("prune", params, "c")), float(_param("prune", params, "eta"))


@_spec_config
def _combine_config(params, lam):
    return combine_mod.CombineConfig(
        lambda_target=float(lam),
        max_resamples=_count("combine", params, "max_resamples"),
    )


@_spec_config
def _sparsify_config(params):
    """The sparsify_trial arguments of a sparsify spec but the seed: the
    trial count, and the rest read as floats."""
    config = {key: float(_param("sparsify", params, key))
              for key in ("p_split", "p_edge", "split_factor", "edge_threshold")}
    config["trials"] = _count("sparsify", params, "trials")
    return config


def _transcript_digest(transcript):
    h = hashlib.sha256()
    for entry in transcript:
        h.update(repr(entry).encode())
    return h.hexdigest()


def _sampler_record(report, name, outcome, stage, out):
    """Write a sampler run's stage and outcome: the fields the prune and
    combine pipelines share, each updated with the pipeline's own (stage,
    out), and the budget-exhausted status of a run that did not end clean."""
    report.add_stage(name, {
        "status": outcome.status,
        "resamples": outcome.resamples,
        "transcript_digest": _transcript_digest(outcome.transcript),
        "kept_top_faces": 0 if outcome.y is None else len(outcome.y.top_faces),
        **stage,
    })
    report.outcome = {
        "y_top_faces": [] if outcome.y is None else [list(f) for f in outcome.y.top_faces],
        "transcript": [[it, kind, list(face), len(scope)]
                       for it, kind, face, scope in outcome.transcript],
        "status": outcome.status,
        **out,
    }
    if outcome.status != "clean":
        report.status = "budget_exhausted"
        report.exit_code = EXIT_BUDGET


def _prune_stages(report, params, seed):
    X = load_complex_input(_param("prune", params, "complex"))
    if X.dim < 2:
        raise InputError(f"prune needs a complex of dimension >= 2, got {X.dim}")
    group = _load_group_input(_param("prune", params, "group"))
    gens = groups_mod.validate_genset(
        group, _load_genset_input(_param("prune", params, "genset"))
    )
    config = _prune_config(params)
    c, eta = _suitability_config(params)

    with timed(report, "suitability"):
        suit = check_suitable(X, c, config.r, eta)
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
    _sampler_record(
        report,
        "prune",
        outcome,
        {
            "isolated_vertices": list(outcome.isolated_vertices),
            "violations_remaining": [
                [k, list(f)] for k, f in outcome.violations_remaining
            ],
        },
        {
            "labeling": [
                [u, v, int(l)]
                for (u, v), l in zip(pruner.X.faces(1), outcome.labeling)
            ],
        },
    )
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
        return report.finish(), pruner, outcome
    _audit_clean_prune(report, pruner, outcome)
    return report.finish(), pruner, outcome


def run_cover_family(report, params, seed):
    index_cap = _count("cover-family", params, "index_cap")
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
    G = load_graph_input(_param("sparsify", params, "graph"))
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
    X = load_complex_input(_param("combine", params, "complex"))
    C = load_complex_input(_param("combine", params, "target"))
    lam = _param("combine", params, "lambda")
    if lam is DERIVED:
        lam = is_hdx(C, 1.0).worst_value
        lam = max(min(lam, 0.999), 1e-6)
    config = _combine_config(params, lam)
    with timed(report, "combine"):
        outcome = combine_mod.Combiner(X, C, config).run(stage_seed(seed, "combine"))
    _sampler_record(
        report, "combine", outcome, {"measure_kind": outcome.measure_kind},
        {"coloring": {str(v): c for v, c in sorted(outcome.coloring.items())}},
    )
    if outcome.status != "clean":
        return report.finish()
    with timed(report, "audit.verify_combine"):
        verdict = combine_mod.verify_combine(X, C, outcome)
    report.add_audit("verify_combine", verdict.ok, verdict.to_dict())
    return report.finish()


@_spec_config
def _scan_config(params):
    """dim, max_size and eta of a scan spec; a bad value is bad input."""
    dim, eta = _param("scan", params, "dim"), _param("scan", params, "eta")
    if type(dim) is not int or dim < 2:
        raise ValueError(f"scan dim must be an integer >= 2, got {dim!r}")
    size = _count("scan", params, "max_size")
    if not (eta is None or type(eta) in (int, float) and math.isfinite(eta)):
        raise ValueError(f"scan eta must be a finite number or null, got {eta!r}")
    return dim, size, eta


def run_scan(report, params, seed):
    group = _load_group_input(_param("scan", params, "group"))
    dim, max_size, eta = _scan_config(params)
    counts = {}
    with timed(report, "scan"):
        candidates = groups_mod.scan_gensets(
            group, dim, eta_target=eta, max_size=max_size, counts=counts
        )
    report.add_stage("scan", {
        "group": group.name,
        "counts": counts,
        "candidates": [{**asdict(c), "gens": list(c.gens)} for c in candidates],
    })
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

def _check_param_keys(kind, params):
    if not isinstance(params, dict):
        raise InputError("spec params must be a JSON object")
    unknown = sorted(set(params) - set(PARAMS[kind]))
    if unknown:
        raise InputError(
            f"unknown {kind} parameter(s) {unknown}; "
            f"expected some of {sorted(PARAMS[kind])}"
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
        except INPUT_ERRORS as exc:
            report.status = "input_error"
            report.exit_code = EXIT_INPUT
            error = {"message": str(exc)}
            if not isinstance(exc, (OSError, InputError)):
                error["type"] = type(exc).__name__
            report.add_stage("error", error)
    return report


def emit_report(report, out_dir):
    """Write the report files, each as soon as it is ready, and return the
    paths written.  JSON streams through json.dump with to_json_bytes'
    settings; a None payload or an empty text is not written."""
    os.makedirs(out_dir, exist_ok=True)
    series = "".join(f"{i} {v!r}\n" for i, v in enumerate(report.lambda_series))
    written = []
    for name, content in [("report.json", report.payload()), ("spectra.csv", report.spectra),
                          ("outcome.json", report.outcome), ("cover.json", report.cover_export),
                          ("lambda_series.dat", series), ("timings.json", report.timings)]:
        if content is None or content == "":
            continue
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w") as fh:
            if name.endswith(".json"):
                json.dump(content, fh, sort_keys=True, indent=2, default=_jsonify)
                content = "\n"
            fh.write(content)
    return written
