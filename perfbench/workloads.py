"""The benchmark's workloads, their experiment specs and verdict fingerprints.

Every workload pins its experiment seeds.  The amount of resampling work
depends on the experiment seed by up to 6x (cover-family over Z6 does 765
resamples on seed 1 and 119 on seed 3), so a run seed that picked the
experiment seed would make run-to-run spread far wider than any useful
bound.  The `held-out` seed set is for checking a claim on seeds that were
not used while the change was written.
"""
from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "fingerprints.json")

K30 = {"kind": "complete", "n": 30, "dim": 2}

# name -> (why, experiment seed per seed set, specs for an experiment seed)
WORKLOADS = {
    "cover-family-z6": (
        "prune K30 over Z6 with 765 resamples, then four quotient covers: "
        "the resampling loop, covers and group quotients carry the time",
        {"default": 1, "held-out": 3},
        lambda seed: [{
            "kind": "cover-family", "seed": seed,
            "params": {"complex": K30, "group": {"kind": "cyclic", "n": 6},
                       "genset": [1, 2, 3, 4, 5], "lambda": 0.9, "r": 2.0},
        }],
    ),
    "prune-k30": (
        "prune K30 over Z5 with 9 resamples: suitability and audits, so the "
        "link and skeleton path carries the time and the loop little",
        {"default": 2, "held-out": 3},
        lambda seed: [{
            "kind": "prune", "seed": seed,
            "params": {"complex": K30, "group": {"kind": "cyclic", "n": 5},
                       "genset": [1, 2, 3, 4], "lambda": 0.9},
        }],
    ),
    "sparsify-k300": (
        "50 split and subsample trials on K300: graph builds and eigensolves, "
        "the control that never reaches complexes, pruning or covers",
        {"default": 0, "held-out": 3},
        lambda seed: [{
            "kind": "sparsify", "seed": seed,
            "params": {"graph": {"kind": "complete", "n": 300},
                       "p_split": 0.3, "p_edge": 0.5, "trials": 50},
        }],
    ),
    "combine-scan": (
        "combine K40 onto K5 (one AC/NE scan, no resamples) then a generating "
        "set scan of S4: the only workload reaching combine and scan_gensets",
        {"default": 0, "held-out": 3},
        lambda seed: [
            {"kind": "combine", "seed": seed,
             "params": {"complex": {"kind": "complete", "n": 40, "dim": 2},
                        "target": {"kind": "complete", "n": 5, "dim": 2}}},
            {"kind": "scan", "seed": seed,
             "params": {"group": {"kind": "symmetric", "k": 4}, "dim": 2,
                        "max_size": 6}},
        ],
    ),
}

SEED_SETS = ("default", "held-out")

# Counts the traced run must reproduce exactly, per workload and seed set.
EXPECTED_COUNTS = {
    ("cover-family-z6", "default"): {"pruning.first_violated.calls": 766},
}

# Float fields compared within a tolerance; everything else must be equal.
FLOAT_TOL = {"split_ok_fraction": 1e-12, "edge_ok_fraction": 1e-12}
DEFAULT_FLOAT_TOL = 1e-9


def specs(workload, seed_set):
    """The workload's experiment specs for one seed set."""
    _, seeds, build = WORKLOADS[workload]
    return build(seeds[seed_set])


def fingerprint(payload):
    """The verdict fields a faithful run must reproduce, from report.json.

    Whole report bytes are not pinned, since adding counters or audit detail
    legitimately changes them; byte determinism is checked separately by
    comparing two runs of the same code.
    """
    fp = {"exit_code": payload["exit_code"], "status": payload["status"]}
    stages = {s["name"]: s["result"] for s in payload["stages"]}
    kind = payload["spec"]["kind"]
    if kind in ("prune", "cover-family", "combine"):
        loop = stages.get("combine" if kind == "combine" else "prune", {})
        for key in ("transcript_digest", "resamples", "kept_top_faces"):
            fp[key] = loop.get(key)
    if kind == "cover-family":
        fp["members"] = stages.get("cover_family", {}).get("members")
    if kind == "sparsify":
        for key in ("split_ok_fraction", "edge_ok_fraction"):
            fp[key] = stages.get("sparsify", {}).get(key)
    if kind == "scan":
        cands = stages.get("scan", {}).get("candidates") or [{}]
        fp["best_worst_link_lambda"] = cands[0].get("worst_link_lambda")
    return fp


def same(actual, pinned, key=None):
    """Equality of fingerprints, with floats compared within FLOAT_TOL."""
    if isinstance(pinned, float) and isinstance(actual, (int, float)):
        return abs(actual - pinned) <= FLOAT_TOL.get(key, DEFAULT_FLOAT_TOL)
    if isinstance(pinned, dict) and isinstance(actual, dict):
        return pinned.keys() == actual.keys() and all(
            same(actual[k], pinned[k], k) for k in pinned)
    if isinstance(pinned, list) and isinstance(actual, list):
        return len(pinned) == len(actual) and all(
            same(a, p, key) for a, p in zip(actual, pinned))
    return type(actual) is type(pinned) and actual == pinned


def pinned(workload, seed_set):
    with open(PINNED) as fh:
        return json.load(fh)[seed_set][workload]
