"""heisurf benchmark: time the CLI end to end and, traced, layer by layer.

Run from the repository root:

    python3 bench/run.py --workload census --seed 3 --seconds 50 --trace 0

One process runs the workload's command list through ``heisurf.cli.main``
again and again (a closed loop: one client, one command in flight): one
untimed warm-up pass, then timed passes until ``--seconds`` have passed,
at least two.  The timed metrics are medians over the passes, each timing
rescaled by the host-speed probes beside it (see `probe_seconds`); the
``setup_s`` timings are spread over the run.  Every command's output is
checked (see workloads.py); artifacts must also be byte-identical from
pass to pass.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of tracing.py and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is the full report: environment,
seeds, sample counts, every metric by name and unit, problems found.
Artifacts and span files go to ``.bench_out/<workload>/``.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import HELD_OUT_SEED, WORKLOADS, Command, Outcome

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 2
SETUP_REPEATS = 15

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms",
                    "cmd_p95_ms": "ms", "peak_rss_mb": "MB"}

#: The probe's time on the baseline host (README.md) in a quiet spell.
#: Timed metrics are reported at this host speed (see `probe_seconds`).
PROBE_NOMINAL_S = 0.080

# The probe works in place on arrays made once, so the heap that heisurf
# leaves behind (page faults, allocator state) does not change its time.
_PROBE_SMALL = np.zeros((4, 512))
_PROBE_MASK = np.zeros((2, 512), dtype=bool)
_PROBE_MID = np.zeros((2, 50_000))
_PROBE_MID[0] = np.linspace(0.0, 1.0, 50_000)
_PROBE_FLOATS = np.linspace(0.0, 1.0, 9000).tolist()


def probe_seconds() -> float:
    """Time a fixed mix of the kinds of work heisurf does, none of it
    heisurf's own code: an interpreter loop, a bisection on small arrays,
    arithmetic on arrays that fit in cache, and float formatting.

    The host this benchmark was built on runs the same code 15-60% slower
    for seconds to minutes at a time, on either CPU and with no CPU time
    stolen.  Every timing is multiplied by PROBE_NOMINAL_S over the probe
    times beside it, which takes most of that drift out; the program's own
    cost stays in.  The garbage collector is off during the probe, so
    the objects heisurf leaves alive do not change its time."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += (i * i) % 7
        lo, hi, mid, sq = _PROBE_SMALL
        above, below = _PROBE_MASK
        for _ in range(18):
            lo.fill(0.0)
            hi.fill(1.0)
            for _ in range(200):
                np.add(lo, hi, out=mid)
                mid *= 0.5
                np.multiply(mid, mid, out=sq)
                np.greater(sq, 0.3, out=above)
                np.logical_not(above, out=below)
                np.copyto(hi, mid, where=above)
                np.copyto(lo, mid, where=below)
        grid, work = _PROBE_MID
        for _ in range(180):
            np.multiply(grid, grid, out=work)
            work += 1.0
            np.sqrt(work, out=work)
            acc += int(work.sum())
        for x in _PROBE_FLOATS:
            acc += len(f"v {x:.17g} {x + 1.0:.17g} {2.0 * x:.17g}")
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def import_seconds(module: str) -> float:
    """Time to import `module` in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def artifact_digests(outcome: Outcome) -> dict[str, str]:
    digests = {}
    for name in outcome.artifacts():
        with open(os.path.join(outcome.outdir, name), "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def run_pass(cli, commands: list[Command], outdir: str):
    """Run every command once; return wall seconds, latencies, outcomes."""
    gc.collect()
    latencies, outcomes = [], []
    start = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*cmd.argv, "--output-dir", outdir,
                                 "--out", cmd.label])
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc(file=err)
                code = -1
        latencies.append(time.perf_counter() - t0)
        outcomes.append(Outcome(cmd.label, code, out.getvalue(),
                                err.getvalue(), outdir))
    return time.perf_counter() - start, latencies, outcomes


class Gate:
    """Counts commands attempted and failed, and keeps the problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, tuple] = {}

    def record(self, cmd: Command, outcome: Outcome, pass_no: int) -> None:
        """Check the first pass fully; later passes must repeat it exactly,
        and a repeat of a wrong output is wrong again."""
        self.attempted += 1
        seen = (outcome.code, outcome.stdout, artifact_digests(outcome))
        if cmd.label not in self._first:
            try:
                problems = cmd.check(outcome)
            except Exception as exc:  # output the check cannot read fails it
                problems = [f"unreadable output: {exc!r}"]
            self._first[cmd.label] = (seen, bool(problems))
        elif seen != self._first[cmd.label][0]:
            problems = ["exit code, verdict line or artifact bytes differ "
                        "from the first pass"]
        else:
            self.failed += self._first[cmd.label][1]
            return
        if problems:
            self.failed += 1
            self.problems += [f"pass {pass_no} {cmd.label}: {p}"
                              for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heisurf", "cli.py")):
        print(f"error: no heisurf sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import heisurf.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported heisurf from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    outdir = os.path.join(OUT, workload.name)
    os.makedirs(outdir, exist_ok=True)
    for name in os.listdir(outdir):
        os.unlink(os.path.join(outdir, name))

    import_seconds("heisurf.cli")  # warms the file cache; not timed
    setup_samples: list[float] = []
    gate = Gate()
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}  # seconds per timed pass, by `traced`
    speeds = {False: [], True: []}  # host speed beside each pass
    latency_rows: list[list[float]] = []  # one row per untraced pass
    probes: list[float] = []
    setup_speeds: list[float] = []
    layer_runs: list[dict] = []
    first_traced = None

    # pass 0 warms caches and the allocator: it is checked, not timed
    _wall, _lat, outcomes = run_pass(cli, commands, outdir)
    for cmd, outcome in zip(commands, outcomes):
        gate.record(cmd, outcome, 0)

    begin = time.perf_counter()
    pass_no = 1
    probe = probe_seconds()
    while pass_no <= MIN_PASSES or time.perf_counter() - begin < args.seconds:
        # set-up timings are spread evenly over the run, so that a slow spell
        # of the host spoils a few of them rather than all
        if len(setup_samples) * args.seconds < \
                SETUP_REPEATS * (time.perf_counter() - begin):
            setup_samples.append(import_seconds("heisurf.cli"))
            probe = probe_seconds()
            setup_speeds.append(PROBE_NOMINAL_S / probe)
        traced = tracer is not None and pass_no % 2 == 0
        if traced:
            tracer.install()
            mark = tracer.mark()
        try:
            wall, lat, outcomes = run_pass(cli, commands, outdir)
        finally:
            if traced:
                tracer.remove()
        probes.append(probe)
        probe = probe_seconds()
        walls[traced].append(wall)
        speeds[traced].append(2.0 * PROBE_NOMINAL_S / (probes[-1] + probe))
        if traced:
            summary = tracer.summary(mark)
            layer_runs.append(layer_metrics(summary))
            if first_traced is None:
                first_traced = summary
            elif (summary["calls"], summary["counters"]) != \
                    (first_traced["calls"], first_traced["counters"]):
                gate.problems.append(f"pass {pass_no}: trace counters "
                                     "differ from the first traced pass")
        else:
            latency_rows.append(lat)
        for cmd, outcome in zip(commands, outcomes):
            gate.record(cmd, outcome, pass_no)
        pass_no += 1
    probes.append(probe)
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(import_seconds("heisurf.cli"))
        setup_speeds.append(PROBE_NOMINAL_S / probe_seconds())

    def p50_p95(values: list[float]) -> tuple[float, float]:
        return (statistics.median(values),
                statistics.quantiles(values, n=20, method="inclusive")[18])

    def at_nominal(times: list[float], speed: list[float]) -> float:
        """Median of `times`, each taken at the host speed beside it and
        rescaled to the probe's nominal speed."""
        return statistics.median(t * k for t, k in zip(times, speed))

    ks = speeds[False]
    # each command's median latency over the untraced passes, in ms
    cmd_ms = [1e3 * at_nominal(column, ks) for column in zip(*latency_rows)]
    wall_s = at_nominal(walls[False], ks)
    raw_cmd_ms = [1e3 * statistics.median(c) for c in zip(*latency_rows)]
    end_to_end = {
        "setup_s": at_nominal(setup_samples, setup_speeds),
        "wall_s": wall_s,
        "cmd_p50_ms": p50_p95(cmd_ms)[0],
        "cmd_p95_ms": p50_p95(cmd_ms)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END_UNITS)
    if workload.rate:
        end_to_end[workload.rate] = sum(c.items for c in commands) / wall_s
        units[workload.rate] = workload.rate.split("_per_")[0] + "/s"
    end_to_end["fail_ratio"] = gate.failed / gate.attempted
    units["fail_ratio"] = "1"

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "loop": "closed: one client, one command in flight",
        "env": {"python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "blas_threads": int(BLAS_THREADS),
                "machine": platform.machine()},
        "commands": [["heisurf", *c.argv] for c in commands],
        "command_seeds": {c.label: int(c.argv[c.argv.index("--seed") + 1])
                          for c in commands if "--seed" in c.argv},
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "host_speed": {"probe_nominal_s": PROBE_NOMINAL_S,
                       "median": statistics.median(ks),
                       "probe_s": probes},
        "unscaled": {"setup_s": statistics.median(setup_samples),
                     "wall_s": statistics.median(walls[False]),
                     "cmd_p50_ms": p50_p95(raw_cmd_ms)[0],
                     "cmd_p95_ms": p50_p95(raw_cmd_ms)[1]},
        "samples": {"wall_s": len(walls[False]),
                    "cmd_latency_per_command": len(latency_rows),
                    "commands": len(commands),
                    "setup_s": len(setup_samples)},
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in end_to_end.items()},
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems[:50],
    }
    if tracer is not None:
        # times are medians over traced passes; counts repeat exactly
        layers = {k: statistics.median(run[k] for run in layer_runs)
                  if LAYER_METRICS[k][0] == "s" else v
                  for k, v in layer_runs[0].items()}
        layers["setup.numpy_s"] = statistics.median(
            import_seconds("numpy") for _ in range(SETUP_REPEATS))
        layers["trace.overhead_s"] = \
            at_nominal(walls[True], speeds[True]) - wall_s
        report["layers"] = {k: {"value": layers[k],
                                "unit": LAYER_METRICS[k][0]}
                            for k in LAYER_METRICS}
        report["functions"] = {
            name: {"calls": calls, "self_s": first_traced["self_s"][name]}
            for name, calls in sorted(first_traced["calls"].items())}
        spans_path = os.path.join(outdir, f"spans-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        metrics = report["layers"]
    else:
        metrics = {k: report["end_to_end"][k] for k in END_TO_END_UNITS}

    for name, entry in report["end_to_end"].items():
        print(f"{workload.name:<17} {name:<16} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    for problem in gate.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": gate.failed == 0 and not gate.problems,
                      "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
