"""One benchmark process: set up a workload, run it, check its verdicts.

Started by run.py in a fresh interpreter, so that set-up time and peak RSS
belong to one workload alone.  Prints one JSON object on its last line.

    worker.py setup   WORKLOAD SEED_SET            set-up time only
    worker.py measure WORKLOAD SEED_SET SECONDS    untraced wall times
    worker.py trace   WORKLOAD SEED_SET SECONDS SPANS_PATH
                                                   untraced, then traced runs
    worker.py pin                                  fingerprints of every
                                                   workload and seed set
"""
import time

T0 = time.perf_counter()

import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The host's speed swings by up to 1.8x within seconds, as other tenants load
# the machine, and that swing is wider than any useful bound on raw wall
# time.  So the measured process times a fixed probe every PROBE_EVERY_S of
# wall time, from a SIGALRM handler, and reports a time as the time it would
# have taken at the speed at which the probe runs in REFERENCE_PROBE_S (about
# its time on a quiet 2.1 GHz Xeon vCPU).  The probe hashes tuples into a set
# and a dict, as the program's complexes do; of the probes tried (this, an
# integer loop, a 60x60 eigensolve and their sums) it tracked the workloads'
# own slowdowns best.
PROBE_EVERY_S = 0.01
PROBE_ITEMS = 400
REFERENCE_PROBE_S = 0.000043


class SpeedProbe:
    """Samples the host's speed while the process runs."""

    def __init__(self):
        self.items = [(i, i % 7, i * 31 % 97) for i in range(PROBE_ITEMS)]
        self.members = set(self.items[::2])
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        sums = {}
        for item in self.items:
            if item in self.members:
                sums[item[1]] = sums.get(item[1], 0) + item[2]
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        return len(self.samples)

    def at_reference(self, wall, mark):
        """`wall` seconds that began at `mark`, less the probes' own time, in
        seconds at the reference speed.  Each probe since `mark` stands for
        an equal share of the wall time, run at REFERENCE_PROBE_S / probe of
        the reference speed."""
        probes = self.samples[mark:]
        speed = statistics.mean(REFERENCE_PROBE_S / p for p in probes)
        return (wall - sum(probes)) * speed


def setup(workload, seed_set):
    """Import hdxcover, warm LAPACK up and build the workload's inputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from hdxcover import harness

    a = np.random.default_rng(0).standard_normal((40, 40))
    np.linalg.eigvalsh(a + a.T)
    specs = workloads.specs(workload, seed_set)
    return harness, specs, time.perf_counter() - T0


def run_once(harness, specs):
    """Wall and CPU seconds for all of the workload's verdicts, plus each
    experiment's report.json bytes (or the exception it raised)."""
    outputs = []
    c0, t0 = time.process_time(), time.perf_counter()
    for spec in specs:
        try:
            outputs.append(
                harness.run_experiment(copy.deepcopy(spec)).to_json_bytes())
        except Exception as exc:  # counted as a failed experiment
            outputs.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, time.process_time() - c0, outputs


class Checker:
    """Counts experiments whose verdict fingerprint differs from the pinned
    one, or whose report bytes differ from the first run's."""

    def __init__(self, pins):
        self.pins = pins
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outputs, label):
        if self.first is None:
            self.first = outputs
        for i, (out, pin) in enumerate(zip(outputs, self.pins)):
            self.attempted += 1
            if not isinstance(out, bytes):
                problem = f"raised {out}"
            elif out != self.first[i]:
                problem = "report.json bytes differ from the first run"
            elif not workloads.same(workloads.fingerprint(json.loads(out)), pin):
                problem = "verdict fingerprint differs from the pinned one"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{label} experiment {i}: {problem}")

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def environment():
    import numpy as np
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy = version("scipy")
    except PackageNotFoundError:
        scipy = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def loop(harness, specs, checker, label, seconds, min_runs, probe=None):
    """Run the workload until `seconds` have passed and at least `min_runs`
    runs are done; returns the per-run wall and CPU seconds, and with a
    probe the wall seconds at the reference speed."""
    walls, cpus, refs = [], [], []
    start = time.perf_counter()
    while len(walls) < min_runs or time.perf_counter() - start < seconds:
        mark = probe.mark() if probe else 0
        wall, cpu, outputs = run_once(harness, specs)
        if probe:
            refs.append(probe.at_reference(wall, mark))
        checker.check(outputs, f"{label} run {len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, refs


def measure(workload, seed_set, seconds):
    harness, specs, _ = setup(workload, seed_set)
    checker = Checker(workloads.pinned(workload, seed_set))
    probe = SpeedProbe().start()
    # two runs at least, so report bytes are compared across runs
    walls, cpus, refs = loop(harness, specs, checker, "untraced", seconds, 2,
                             probe)
    probe.stop()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {**checker.summary(), "walls": walls, "cpus": cpus,
            "walls_at_reference": refs, "probe_median_s":
            statistics.median(probe.samples), "peak_rss_mb": peak,
            "env": environment()}


def traced(workload, seed_set, seconds, spans_path):
    """Untraced runs for the overhead baseline, then traced runs whose
    verdicts, report bytes and counts must equal the untraced ones and
    each other."""
    from tracing import Tracer

    harness, specs, _ = setup(workload, seed_set)
    checker = Checker(workloads.pinned(workload, seed_set))
    walls, cpus, _ = loop(harness, specs, checker, "untraced", seconds / 2, 1)

    runs, traced_walls, first = [], [], None
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds / 2:
        tracer = Tracer().install()
        try:
            wall, _, outputs = run_once(harness, specs)
        finally:
            tracer.uninstall()
        checker.check(outputs, f"traced run {len(runs)}")
        traced_walls.append(wall)
        runs.append(tracer.metrics())
        first = first or tracer
    first.write_spans(spans_path)

    problems = []
    counts = {k: v for k, v in runs[0].items() if v[1] != "s"}
    for i, run in enumerate(runs[1:], 1):
        moved = [k for k in counts if run[k] != counts[k]]
        if moved:
            problems.append(f"traced run {i} counts differ: {moved[:5]}")
    expected = workloads.EXPECTED_COUNTS.get((workload, seed_set), {})
    for name, value in expected.items():
        if counts[name][0] != value:
            problems.append(f"{name} is {counts[name][0]}, expected {value}")
    for kind, fn in (("AT", "eval_at"), ("BC", "eval_bc"), ("NE", "eval_ne")):
        # every AT/BC/NE event the scans evaluated is one call of its
        # evaluator; the audits call none of them
        got = counts[f"pruning.events_evaluated.{kind}"][0]
        calls = counts[f"pruning.{fn}.calls"][0]
        if got != calls:
            problems.append(f"pruning.events_evaluated.{kind} = {got} but "
                            f"pruning.{fn}.calls = {calls}")

    layers = {}
    for name, (value, unit) in runs[0].items():
        if unit == "s":
            value = statistics.median(run[name][0] for run in runs)
        layers[name] = (value, unit)
    untraced = statistics.median(walls)
    layers["trace.overhead_s"] = (statistics.median(traced_walls) - untraced, "s")
    layers["process.cpu_s"] = (statistics.median(cpus), "s")
    summary = checker.summary()
    summary["problems"] += problems
    return {**summary, "layers": layers, "walls": walls,
            "traced_walls": traced_walls, "env": environment()}


def pin():
    out = {}
    for seed_set in workloads.SEED_SETS:
        out[seed_set] = {}
        for name in workloads.WORKLOADS:
            harness, specs, _ = setup(name, seed_set)
            _, _, outputs = run_once(harness, specs)
            out[seed_set][name] = [
                workloads.fingerprint(json.loads(o)) for o in outputs]
    return out


def main(argv):
    role = argv[0]
    if role == "setup":
        probe = SpeedProbe().start()
        setup_s = setup(argv[1], argv[2])[2]
        probe.stop()
        result = {"setup_s": setup_s,
                  "setup_at_reference_s": probe.at_reference(setup_s, 0)}
    elif role == "measure":
        result = measure(argv[1], argv[2], float(argv[3]))
    elif role == "trace":
        result = traced(argv[1], argv[2], float(argv[3]), argv[4])
    elif role == "pin":
        result = pin()
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
