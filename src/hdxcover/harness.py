"""Experiment orchestration: pipelines, audits, and report emission.

A spec is a plain dict (usually parsed from CLI flags or a JSON file)
naming a pipeline and its inputs.  _read_params types a spec's params by
their PARAMS defaults; ranges are the library's to check, and any HdxError
is bad input (exit 4).  Reports are emitted as deterministic
JSON (stable key order, no timestamps); wall times go to a separate file
so identical seeds reproduce identical report bytes.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import combine as combine_mod
from . import covers as covers_mod
from . import groups as groups_mod
from . import pruning as pruning_mod
from . import sparsify as sparsify_mod
from .complexes import check_suitable, complete_complex, complex_from_dict
from .errors import HdxError, InputError, Unmeasurable, check_count, check_integer
from .graphs import WGraph, complete_graph
from .spectral import (TOL, SpectralReport, adjacency_spectrum, is_hdx, link_measures,
                       link_spectra, operator_entries, spectra_csv, twisted_spectra)

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
    failed_stage: str | None = None  # the innermost timed block an exception left

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
    """Record the wall time of the with-block as report.timings[name], and
    name it report.failed_stage if an exception leaves it first."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        report.failed_stage = report.failed_stage or name
        raise
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
        return complete_complex(*(check_integer(k, _field(obj, k)) for k in ("n", "dim")))
    return complex_from_dict(obj)


@_spec_config
def _load_group_input(obj):
    return groups_mod.make_group(_read_input(obj))


@_spec_config
def load_graph_input(obj):
    """A graph from a file path or inline JSON, of either README form."""
    obj = _read_input(obj)
    if not isinstance(obj, dict):
        raise InputError("a graph is a JSON object")
    if obj.get("kind") == "complete":
        return complete_graph(check_integer("n", _field(obj, "n")))
    if obj.get("kind") == "edges" or "edges" in obj:
        return WGraph([tuple(e) for e in _field(obj, "edges")], obj.get("sides"))
    raise InputError(f"unrecognized graph object: {sorted(obj)}")


@_spec_config
def _load_genset_input(obj):
    obj = _read_input(obj)
    if isinstance(obj, dict):
        obj = _field(obj, "generators")
    return [check_integer("a generator", x) for x in obj]


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


_LOADERS = {"complex": load_complex_input, "target": load_complex_input,
            "group": _load_group_input, "genset": _load_genset_input,
            "graph": load_graph_input}


def _read_params(kind, params):
    """A kind spec's params, each key of PARAMS[kind] read by its default's
    type, a key left out at that default: an INPUT loaded; an int default a
    count, an integer >= 1; a float default a finite number, as a float, and
    DERIVED that or null; a str default a string."""
    if not isinstance(params, dict):
        raise InputError("spec params must be a JSON object")
    unknown = sorted(set(params) - set(PARAMS[kind]))
    if unknown:
        raise InputError(
            f"unknown {kind} parameter(s) {unknown}; "
            f"expected some of {sorted(PARAMS[kind])}"
        )
    read = {}
    for key, default in PARAMS[kind].items():
        value = params.get(key, default)
        if default is INPUT:
            value = _LOADERS[key](_field(params, key))
        elif type(default) is int:
            _spec_config(check_count)(f"{kind} {key}", value)
        elif type(default) is str:
            if type(value) is not str:
                raise InputError(f"{kind} {key} must be a string, got {value!r}")
        elif not (default is DERIVED and value is None):
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                null = " or null" if default is DERIVED else ""
                raise InputError(f"{kind} {key} must be a finite number{null}, got {value!r}")
            value = float(value)
        read[key] = value
    return read


# --- pipelines ---


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
        "kept_top_faces": 0 if outcome.y is None else len(outcome.y.weights),
        **stage,
    })
    report.outcome = {
        "y_top_faces": [] if outcome.y is None else outcome.y.label_rows(outcome.y.dim),
        "transcript": [[it, kind, list(face), len(scope)]
                       for it, kind, face, scope in outcome.transcript],
        "status": outcome.status,
        **out,
    }
    if outcome.status != "clean":
        report.status = "budget_exhausted"
        report.exit_code = EXIT_BUDGET


def _prune_stages(report, params, seed):
    X, group = params["complex"], params["group"]
    if X.dim < 2:
        raise InputError(f"prune needs a complex of dimension >= 2, got {X.dim}")
    gens = groups_mod.validate_genset(group, params["genset"])
    config = pruning_mod.PruneConfig(params["lambda"], params["r"], params["mode"],
                                     params["max_resamples"])

    with timed(report, "suitability"):
        suit = check_suitable(X, params["c"], config.r, params["eta"])
    report.add_stage("suitability", suit.to_dict())

    with timed(report, "cayley"):
        worst = groups_mod.identity_star_lambda(group, gens, X.dim)
    report.add_stage("cayley", {"group": group.name, "gens": list(gens),
                                "worst_link_lambda": worst})

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
    """A bound on the largest eigenvalue gap between a cover vertex's link
    skeleton and its image's, and the first cover vertex whose link has
    another vertex count, or whose image is no vertex (no gap taken), or
    None.  A link that phi maps onto its image's is a copy, whose gap is at
    most ||M~ - P M P^T||_F (Weyl): only a link that is no copy is solved,
    and then the base's vertex links once."""
    base, tilde = cover.base, cover.complex
    # phi as base positions, an image outside the base past them (as verify_cover)
    pos = {v: i for i, v in enumerate(base.vertices)}
    phi = np.array([pos.setdefault(cover.phi(v), len(pos)) for v in tilde.vertices],
                   dtype=np.intp)
    nb = len(pos)  # the radix of the link edge codes, past every position phi takes
    codes, entries, base_verts = [], [], []  # base link edges as ascending (link, u, v) codes
    for first, verts, vlink, ends, mass in base.link_blocks(0):
        weights, vmass = link_measures(vlink, ends, mass)
        codes.append(((first + vlink[ends[0]]) * nb + verts[ends[0]]) * nb + verts[ends[1]])
        entries.append(operator_entries(weights, np.sqrt(0.5 * vmass), ends))
        base_verts.append(np.bincount(vlink))
    codes, entries, base_verts = map(np.concatenate, (codes, entries, base_verts))
    base_spec = []
    base_edges = np.bincount(codes // (nb * nb), minlength=len(base_verts))
    image = np.where(phi < len(base.vertices), phi, -1)  # each vertex's image, if in the base

    def block_gap(first, verts, vlink, ends, mass):
        weights, vmass = link_measures(vlink, ends, mass)
        elink, centre = vlink[ends[0]], image[first:first + vlink[-1] + 1]
        count = functools.partial(np.bincount, minlength=len(centre))
        key = np.sort(vlink * nb + phi[verts])  # a repeated key: phi not injective
        pu, pv = phi[verts[ends]]
        code = (centre[elink] * nb + np.minimum(pu, pv)) * nb + np.maximum(pu, pv)
        at = np.searchsorted(codes, code).clip(max=len(codes) - 1)
        same = (centre >= 0) & (count(vlink) == base_verts[centre])  # else no gap is taken
        copy = (same & (count(elink) == base_edges[centre])
                & (count(key[1:][key[1:] == key[:-1]] // nb) == 0)
                & (count(elink, weights=codes[at] != code) == 0))
        delta = operator_entries(weights, np.sqrt(0.5 * vmass), ends) - entries[at]
        gap = float(np.sqrt(2.0 * count(elink, weights=delta * delta))[copy].max(initial=0.0))
        eigs = () if copy.all() else link_spectra(vlink, ends, mass)[2]
        for i in np.flatnonzero(same & ~copy).tolist():
            if not base_spec:  # the base's links, solved for the first link that is no copy
                base_spec.extend(e for b in base.link_blocks(0) for e in link_spectra(*b[2:])[2])
            gap = max(gap, float(np.abs(eigs[i] - base_spec[centre[i]]).max()))
        return gap, next((first + i for i in np.flatnonzero(~same)[:1].tolist()), None)

    # starmap drops each block's arrays before link_blocks builds the next
    gaps = list(itertools.starmap(block_gap, tilde.link_blocks(0)))
    at = next((at for _, at in gaps if at is not None), None)
    return max((gap for gap, _ in gaps), default=0.0), None if at is None else tilde.vertices[at]


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
    hol_order = len(comp.holonomy)
    report.add_audit("holonomy_full", hol_order == group.order, {"subgroup_order": hol_order})
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
    audited = cover, comp, cover_report, hdx

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
                    return audited
                worst_ratio = max(worst_ratio, ratio.max_ratio)
        report.add_audit(
            "measure_ratio",
            worst_ratio <= bound,
            {"max_ratio": worst_ratio, "bound": bound},
        )
    return audited


def run_prune(report, params, seed):
    """The prune pipeline; returns the finished report, the Pruner, the
    outcome and, for a clean run, the audited cover with its
    cover_components and verify_cover reports and Y's is_hdx report (else
    None)."""
    pruner, outcome = _prune_stages(report, params, seed)
    audited = _audit_clean_prune(report, pruner, outcome) if outcome.status == "clean" else None
    return report.finish(), pruner, outcome, audited


def run_cover_family(report, params, seed):
    """The prune pipeline, then Y's cover by G/N for each normal N of index
    <= index_cap, each member read off what the prune audit checked: the
    cover of Y by G, its holonomy subgroup and Y's links (README, "Cover
    families"), and for an abelian G its skeleton spectrum off Y's operators
    twisted by the characters trivial on N."""
    report, pruner, outcome, audited = run_prune(report, params, seed)
    if outcome.status != "clean":
        return report
    full, comp, vc, y_hdx = audited  # the prune audit's cover of Y by all of G
    y, group, lam = full.base, full.group, pruner.config.lambda_target
    # a cover's links are copies of their images', Y's
    links = all(r.value <= lam + TOL for r in y_hdx.rows if 0 < len(r.face) < y.dim)
    with timed(report, "cover_family.characters"):
        theta = groups_mod.characters(group)
        if theta is not None:  # chi(f(uv)) on each edge uv of Y, a row per character
            twist = np.exp(2j * np.pi / group.order * theta[:, full.labeling])
            char_spectra = twisted_spectra(y.one_skeleton(), twist)
    family = []
    for sub in groups_mod.normal_subgroups(group, index_cap=params["index_cap"]):
        quotient = groups_mod.quotient_group(group, sub)
        order = quotient.group.order
        with timed(report, f"cover_family.index_{order}"):
            # Y is connected, so the components number |G| / |HN|
            components = group.order // len(np.unique(group.mul_table[np.ix_(comp.holonomy, sub)]))
            # spectra whose union is the cover's: its dense one (the audit's
            # cover for N = 1), or one per character trivial on N, the trivial
            # character's (Y's) first
            if theta is None:
                cover = full if len(sub) == 1 else covers_mod.build_cover(
                    y, quotient.projection[full.labeling], quotient.group)
                kept = [adjacency_spectrum(cover.complex.one_skeleton()).eigenvalues]
            else:
                kept = char_spectra[(theta[:, sub] == 0).all(axis=1)]
            skeleton = SpectralReport(tuple(np.sort(kept, axis=None)[::-1].tolist())).two_sided
            new_lambda = float(np.abs(kept[1:]).max()) if len(kept) > 1 else None
        family.append({"subgroup_order": len(sub), "quotient_order": order,
                       "cover_vertices": len(y.vertices) * order, "components": components,
                       "verified": vc.ok, "links_within_lambda": links,
                       "skeleton_lambda": skeleton})
        report.add_audit(f"cover_family_index_{order}", vc.ok and components == 1 and links,
                         {"components": components, "skeleton_lambda": skeleton,
                          "new_lambda": new_lambda})
    report.add_stage("cover_family", {"members": family})
    return report.finish()


def run_sparsify(report, params, seed):
    G = params.pop("graph")
    trial = sparsify_mod.sparsify_trial(G, rng=stage_seed(seed, "sparsify"), **params)
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
    X, C, lam = params["complex"], params["target"], params["lambda"]
    if lam is DERIVED:
        with timed(report, "target_lambda"):
            lam = is_hdx(C, 1.0).worst_value
        lam = max(min(float(lam), 0.999), 1e-6)
    config = combine_mod.CombineConfig(lam, params["max_resamples"])
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


def run_scan(report, params, seed):
    group, dim = params["group"], params["dim"]
    counts = {}
    with timed(report, "scan"):
        candidates = groups_mod.scan_gensets(
            group, dim, eta_target=params["eta"], max_size=params["max_size"], counts=counts
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

def run_experiment(spec):
    """Dispatch a spec dict to its pipeline; returns a RunReport."""
    kind = spec.get("kind")
    if kind not in PIPELINES:
        raise InputError(f"unknown pipeline {kind!r}")
    params, seed = spec.get("params", {}), spec.get("seed", 0)
    report = RunReport(spec={"kind": kind, "params": params, "seed": seed})
    with timed(report, "total"):
        try:
            seed = report.spec["seed"] = _spec_config(check_integer)("seed", seed)
            PIPELINES[kind](report, _read_params(kind, params), seed)
        except INPUT_ERRORS as exc:
            report.status = "input_error"
            report.exit_code = EXIT_INPUT
            report.add_stage("error", {"message": str(exc), "type": type(exc).__name__,
                                       "stage": report.failed_stage or "inputs"})
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
