"""hdxcover benchmark: time from an experiment spec to its checked verdict.

    python3 perfbench/run.py --workload cover-family-z6 --seed 0 \
        --seconds 10 --trace 0

Workloads (see workloads.py): cover-family-z6, prune-k30, sparsify-k300 and
combine-scan, or `all` for each in turn.  Each runs closed loop, one
experiment at a time, in one process, through `hdxcover.harness.run_experiment`.

With `--trace 0` the last line of output reports, with units:
  setup_s      median over fresh processes of the time to import hdxcover,
               do one warm-up eigensolve and build the workload's inputs
  wall_s       median wall time to finish all of the workload's verdicts,
               measured after set-up, over the runs made in --seconds
  peak_rss_mb  peak RSS of a fresh process that runs only that workload
  ok_frac      experiments whose verdict matched, over experiments attempted
               (1 - failed_frac; a metric that is never 0)

Both times are given at a reference host speed.  The shared host's speed
swings by up to 1.8x within seconds, which moves raw times by more than any
useful bound.  So the measured process times a fixed probe every 10 ms
(worker.SpeedProbe), and a time, less the probes' own time, is scaled by the
mean over the probes taken meanwhile of the reference probe time over the
probe's time.  This removes most of the swing, and a program change still
moves the corrected time as it moves the raw one.  The raw times are kept in
the result file.  A program that ran work on other cores at once could slow
the probe, and so have its time under-read; every program path the
workloads run is single-threaded.

An experiment fails when it raises, when its verdict fingerprint (exit code,
status, transcript digest, resamples, kept faces, cover family table, ok
fractions or best scan score) differs from fingerprints.json, or when its
report.json bytes differ between two runs of the same code.

With `--trace 1` a separate run wraps the public functions of every layer
(tracing.py) and reports per-layer call counts, self times and derived
counts, plus `trace.overhead_s` (traced minus untraced wall time) and the
diagnostic `process.cpu_s`.  The traced verdicts and report bytes must equal
the untraced ones, and counts must repeat exactly between two traced runs.
Spans go to .perfbench/spans-<workload>-seed<seed>.json.  layers.json
records which end-to-end metric and workload each layer should move.

`--seed` is the run seed, recorded with the result.  Experiment seeds are
pinned per workload; `--seed-set held-out` switches to the held-out seeds.
BLAS runs single-threaded (BLAS_THREADS): every matrix here has at most 300
rows, where one thread is both faster and steadier than two.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROCESSES = 7
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def git_commit():
    """HEAD's commit from .git, without starting git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/hdxcover/*.py, naming the code measured when no git
    metadata is present."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hdxcover")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def worker(args, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, opts):
    deadline = time.monotonic() + DEADLINE_S
    seed_set = opts.seed_set
    tag = f"{name}-seed{opts.seed}"
    if opts.trace:
        res = worker(["trace", name, seed_set, str(opts.seconds),
                      os.path.join(OUT, f"spans-{tag}.json")], deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        setups = [worker(["setup", name, seed_set], deadline)
                  for _ in range(SETUP_PROCESSES)]
        res = worker(["measure", name, seed_set, str(opts.seconds)], deadline)
        res["setups"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(
                s["setup_at_reference_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls_at_reference"]),
                       "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"],
                        "unit": "frac"},
        }
    for problem in res["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    result = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    env = {**res.pop("env"), "git_commit": git_commit(),
           "source_sha256": source_digest(), "nproc": os.cpu_count(),
           "run_seed": opts.seed, "seed_set": seed_set,
           "experiment_seeds": [
               s["seed"] for s in workloads.specs(name, seed_set)]}
    with open(os.path.join(OUT, f"result-{tag}-trace{opts.trace}.json"), "w") as fh:
        json.dump({"workload": name, "env": env, "result": result, "raw": res},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-set", choices=workloads.SEED_SETS,
                    default="default")
    opts = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hdxcover", "__init__.py")):
        sys.exit(f"no hdxcover sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    names = tuple(workloads.WORKLOADS) if opts.workload == "all" else (opts.workload,)
    try:
        for name in names:
            print(json.dumps(run_workload(name, opts)), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        sys.exit(f"benchmark failed: {exc}")


if __name__ == "__main__":
    main()
