"""Layer tracing from outside the program.

`Tracer.install()` replaces each public function or method named in `SPANS`
with a wrapper that records a span (name, start, end, parent) and rebinds the
wrapper wherever another hdxcover module imported the original by name, so
that calls such as `harness.is_hdx` or `pruning.adjacency_spectrum` are seen
too.  Spans stay in memory until `write_spans`.  Self time is a span's
duration minus the time its child spans cover; the program is single-threaded
on every path the benchmark runs, so children never overlap.

Counts that no wrapper sees directly (events evaluated per kind, resamples,
edges built, ...) are derived in `HOOKS` from a traced call's arguments and
result.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute path, metric stem); metrics are <stem>.calls and
# <stem>.self_s.  Methods drop their class name except constructors.
SPANS = [
    ("pruning", "Pruner.__init__", "pruning.Pruner.init"),
    ("pruning", "Pruner.run", "pruning.run"),
    ("pruning", "Pruner.first_violated", "pruning.first_violated"),
    ("pruning", "Pruner.satisfied_mask", "pruning.satisfied_mask"),
    ("pruning", "Pruner.face_satisfied", "pruning.face_satisfied"),
    ("pruning", "Pruner.satisfaction_graph", "pruning.satisfaction_graph"),
    ("pruning", "Pruner.eval_at", "pruning.eval_at"),
    ("pruning", "Pruner.eval_bc", "pruning.eval_bc"),
    ("pruning", "Pruner.eval_ne", "pruning.eval_ne"),
    ("pruning", "measure_ratio_audit", "pruning.measure_ratio_audit"),
    ("pruning", "pruned_measure", "pruning.pruned_measure"),
    ("combine", "Combiner.__init__", "combine.Combiner.init"),
    ("combine", "Combiner.run", "combine.run"),
    ("combine", "Combiner.first_violated", "combine.first_violated"),
    ("combine", "Combiner.eval_ac", "combine.eval_ac"),
    ("combine", "Combiner.eval_ne", "combine.eval_ne"),
    ("combine", "Combiner.satisfaction_graph", "combine.satisfaction_graph"),
    ("combine", "Combiner.face_satisfied", "combine.face_satisfied"),
    ("combine", "verify_combine", "combine.verify_combine"),
    ("complexes", "PureComplex.link", "complexes.link"),
    ("complexes", "PureComplex.one_skeleton", "complexes.one_skeleton"),
    ("complexes", "build_complex", "complexes.build_complex"),
    ("complexes", "check_suitable", "complexes.check_suitable"),
    ("spectral", "adjacency_spectrum", "spectral.adjacency_spectrum"),
    ("spectral", "bipartite_lambda", "spectral.bipartite_lambda"),
    ("spectral", "is_hdx", "spectral.is_hdx"),
    ("graphs", "WGraph.__init__", "graphs.WGraph.init"),
    ("sparsify", "sparsify_trial", "sparsify.sparsify_trial"),
    ("sparsify", "bipartite_vertex_split", "sparsify.bipartite_vertex_split"),
    ("sparsify", "edge_subsample", "sparsify.edge_subsample"),
    ("covers", "build_cover", "covers.build_cover"),
    ("covers", "verify_cover", "covers.verify_cover"),
    ("covers", "holonomy_subgroup", "covers.holonomy_subgroup"),
    ("covers", "cover_components", "covers.cover_components"),
    ("covers", "push_cocycle", "covers.push_cocycle"),
    ("groups", "cayley_clique_complex", "groups.cayley_clique_complex"),
    ("groups", "normal_subgroups", "groups.normal_subgroups"),
    ("groups", "quotient_group", "groups.quotient_group"),
    ("groups", "scan_gensets", "groups.scan_gensets"),
    ("harness", "run_experiment", "harness.run_experiment"),
]

# Called far too often for a span each; only their calls are counted.
CALL_COUNTS = [
    ("complexes", "PureComplex.face_measure", "complexes.face_measure"),
]

PRUNE_KINDS = ("AT", "BC", "EC", "NE")

# Derived counts: name -> (unit, better).  Ratios are filled in by `metrics`.
COUNTS = {
    "pruning.resamples": ("count", "lower"),
    "pruning.events_evaluated": ("count", "lower"),
    **{f"pruning.events_evaluated.{k}": ("count", "lower") for k in PRUNE_KINDS},
    "pruning.hit_ratio": ("ratio", "higher"),
    "combine.resamples": ("count", "lower"),
    "combine.events_evaluated": ("count", "lower"),
    "spectral.eig_n3": ("n3", "lower"),
    "spectral.svd_mn2": ("mn2", "lower"),
    "graphs.WGraph.edges": ("count", "lower"),
    "sparsify.split_ok_ratio": ("ratio", "higher"),
    "sparsify.edge_ok_ratio": ("ratio", "higher"),
    "covers.cover_vertices": ("count", "lower"),
    "groups.scan.candidates": ("count", "lower"),
}


def _event_table(tracer, events, kinds):
    """Position of each event in `events()` and per-kind prefix counts."""
    key = id(events)
    table = tracer._event_tables.get(key)
    if table is None:
        prefix = {k: [0] for k in kinds}
        for kind, _ in events:
            for k in kinds:
                prefix[k].append(prefix[k][-1] + (kind == k))
        pos = {ev: i for i, ev in enumerate(events)}
        # the events tuple is kept alive so its id stays unique
        table = tracer._event_tables[key] = (events, pos, prefix)
    return table


def _first_violated(layer, kinds):
    # The scan stops at the returned event, so everything before it and the
    # event itself were evaluated; None means every event was evaluated.
    def hook(tracer, args, result):
        events, pos, prefix = _event_table(tracer, args[0].events(), kinds)
        n = len(events) if result is None else pos[result] + 1
        c = tracer.counts
        c[f"{layer}.events_evaluated"] += n
        if layer == "pruning":
            c["pruning.hits"] += result is not None
            for k in kinds:
                c[f"pruning.events_evaluated.{k}"] += prefix[k][n]

    return hook


def _resamples(layer):
    def hook(tracer, args, result):
        tracer.counts[f"{layer}.resamples"] += result.resamples

    return hook


def _eig(tracer, args, result):
    tracer.counts["spectral.eig_n3"] += args[0].n ** 3


def _svd(tracer, args, result):
    a, b = (len(s) for s in args[0].sides)
    tracer.counts["spectral.svd_mn2"] += max(a, b) * min(a, b) ** 2


def _wgraph(tracer, args, result):
    tracer.counts["graphs.WGraph.edges"] += len(args[0].edges)


def _sparsify(tracer, args, result):
    done = result.trials - result.discarded
    c = tracer.counts
    c["sparsify.trials"] += result.trials
    c["sparsify.split_ok"] += round(result.split_ok_fraction * done)
    c["sparsify.edge_ok"] += round(result.edge_ok_fraction * done)


def _cover(tracer, args, result):
    tracer.counts["covers.cover_vertices"] += len(result.complex.vertices)


def _scan(tracer, args, result):
    tracer.counts["groups.scan.candidates"] += len(result)


HOOKS = {
    "pruning.run": _resamples("pruning"),
    "pruning.first_violated": _first_violated("pruning", PRUNE_KINDS),
    "combine.run": _resamples("combine"),
    "combine.first_violated": _first_violated("combine", ("AC", "NE")),
    "spectral.adjacency_spectrum": _eig,
    "spectral.bipartite_lambda": _svd,
    "graphs.WGraph.init": _wgraph,
    "sparsify.sparsify_trial": _sparsify,
    "covers.build_cover": _cover,
    "groups.scan_gensets": _scan,
}


def _resolve(module, path):
    owner = importlib.import_module(f"hdxcover.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans, call counts and self times for one traced process."""

    def __init__(self):
        self.stems = [stem for _, _, stem in SPANS + CALL_COUNTS]
        self._patched = []
        self._event_tables = {}
        self._stack = []  # open spans: [span index, time covered by children]
        n = len(self.stems)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = dict.fromkeys(
            list(COUNTS) + ["pruning.hits", "sparsify.trials",
                            "sparsify.split_ok", "sparsify.edge_ok"], 0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # --- wrappers ---

    def _span(self, nid, fn, hook):
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                self.self_s[nid] += dur - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _counted(self, nid, fn):
        def counted(*args, **kwargs):
            self.calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target and rebind it in modules that imported it."""
        targets = [(m, p, s, True) for m, p, s in SPANS]
        targets += [(m, p, s, False) for m, p, s in CALL_COUNTS]
        replaced = {}
        for nid, (module, path, stem, span) in enumerate(targets):
            owner, attr = _resolve(module, path)
            orig = owner.__dict__[attr]
            wrapped = (
                self._span(nid, orig, HOOKS.get(stem)) if span
                else self._counted(nid, orig)
            )
            wrapped.__name__ = getattr(orig, "__name__", attr)
            wrapped.__wrapped__ = orig
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, orig))
            replaced[id(orig)] = wrapped  # orig stays alive in _patched
        for name, mod in list(sys.modules.items()):
            if name != "hdxcover" and not name.startswith("hdxcover."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                    self._patched.append((mod, attr, value))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # --- results ---

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        out = {}
        for nid, stem in enumerate(self.stems):
            out[f"{stem}.calls"] = (self.calls[nid], "count")
            if nid < len(SPANS):
                out[f"{stem}.self_s"] = (self.self_s[nid], "s")
        c = self.counts
        for name, (unit, _) in COUNTS.items():
            out[name] = (c[name], unit)
        out["pruning.hit_ratio"] = (
            _ratio(c["pruning.hits"], c["pruning.events_evaluated"]), "ratio")
        out["sparsify.split_ok_ratio"] = (
            _ratio(c["sparsify.split_ok"], c["sparsify.trials"]), "ratio")
        out["sparsify.edge_ok_ratio"] = (
            _ratio(c["sparsify.edge_ok"], c["sparsify.trials"]), "ratio")
        return out

    def write_spans(self, path):
        """Write the spans as JSON: names plus one [name, parent, start, end]
        row per span, times in seconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = [
            [n, p, round(s - t0, 9), round(e - t0, 9)]
            for n, p, s, e in zip(self.span_name, self.span_parent,
                                  self.span_start, self.span_end)
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.stems, "spans": rows}, fh,
                      separators=(",", ":"))
            fh.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0
