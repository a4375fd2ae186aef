"""Self-tests of the benchmark's tracing; exits non-zero on a failure.

    python3 perfbench/selftest.py

1. Installing the tracer leaves no hdxcover module holding an unwrapped
   target, so calls through names imported elsewhere are traced too.
2. `pruning.events_evaluated`, in total and per kind, equals a brute-force
   recount: a replay of the resampling loop that evaluates events one by one
   in `events()` order and must reproduce the traced run's transcript.

The traced-equals-untraced and counts-repeat checks run inside every
`run.py --trace 1` run.
"""
import collections
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from hdxcover import complexes, groups, pruning  # noqa: E402
from tracing import CALL_COUNTS, PRUNE_KINDS, SPANS, Tracer, _resolve  # noqa: E402


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def check_rebinding():
    targets = [_resolve(module, path) for module, path, _ in SPANS + CALL_COUNTS]
    originals = {id(owner.__dict__[attr]) for owner, attr in targets}
    tracer = Tracer().install()
    try:
        spaces = [vars(mod) for name, mod in sys.modules.items()
                  if name == "hdxcover" or name.startswith("hdxcover.")]
        spaces += [vars(owner) for owner, _ in targets]
        left = [attr for space in spaces for attr, value in space.items()
                if id(value) in originals]
    finally:
        tracer.uninstall()
    check(not left, f"still unwrapped after install: {left}")


def replay(pruner, seed):
    """The resampling loop with one eval_event call per event evaluated."""
    rng = np.random.default_rng(seed)
    f = pruning.sample_labeling(pruner.X, pruner.m, rng)
    evaluated = collections.Counter()
    transcript = []
    while True:
        hit = None
        for kind, face in pruner.events():
            evaluated[kind] += 1
            if pruner.eval_event(kind, face, f):
                hit = (kind, face)
                break
        if hit is None or len(transcript) >= pruner.config.max_resamples:
            return evaluated, transcript
        scope = pruner.event_scope(*hit)
        f = f.copy()
        f[list(scope)] = rng.integers(0, pruner.m, size=len(scope))
        transcript.append((len(transcript), *hit, scope))


def check_recount():
    # K20 over Z5 ends clean after 76 resamples on this seed
    X = complexes.complete_complex(20, 2)
    group, gens = groups.cyclic(5), [1, 2, 3, 4]
    config = pruning.PruneConfig.empirical(0.9, max_resamples=300, r=2.0)
    seed = 1
    tracer = Tracer().install()
    try:
        outcome = pruning.Pruner(X, group, gens, config).run(seed)
    finally:
        tracer.uninstall()
    check(outcome.status == "clean" and outcome.resamples > 0,
          f"fixture ended {outcome.status} after {outcome.resamples} resamples")

    evaluated, transcript = replay(pruning.Pruner(X, group, gens, config), seed)
    check(tuple(transcript) == outcome.transcript, "replay left the loop's path")
    got = tracer.metrics()
    for kind in PRUNE_KINDS:
        check(got[f"pruning.events_evaluated.{kind}"][0] == evaluated[kind],
              f"{kind}: traced {got[f'pruning.events_evaluated.{kind}'][0]}, "
              f"recounted {evaluated[kind]}")
    check(got["pruning.events_evaluated"][0] == sum(evaluated.values()),
          "total events evaluated differs from the recount")
    check(got["pruning.resamples"][0] == outcome.resamples, "resamples")
    check(got["pruning.first_violated.calls"][0] == outcome.resamples + 1,
          "one first_violated call per resample plus the clean scan")
    return outcome.resamples, sum(evaluated.values())


def main():
    check_rebinding()
    resamples, evaluated = check_recount()
    print(f"selftest ok: rebinding complete; {evaluated} events evaluated "
          f"over {resamples} resamples, equal to the brute-force recount")


if __name__ == "__main__":
    main()
