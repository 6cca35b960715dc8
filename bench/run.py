#!/usr/bin/env python3
"""gridcert benchmark: time to a stability verdict, end to end and per layer.

Usage, from the root of a source checkout (numpy is the only dependency)::

    python3 bench/run.py --workload sweep_fixture --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ``sweep_fixture``, ``simulate_fixture`` and
``mesh500`` (``certify`` then ``eigen``). Each runs its `gridcert`
subcommands in-process through ``gridcert.cli.main`` from ``src/``,
repeatedly for ``--seconds`` seconds, and checks every output against the
references in ``refs/``. One operation is one sweep point, one simulate
command, or one 500-bus command; failed operations are counted against
attempted ones.

``--trace 0`` reports the end-to-end metrics, each a median over the run:

* ``setup_s``: a fresh interpreter imports gridcert and loads the
  workload's config (median of 7 spread over the run, after one untimed
  warm-up);
* ``commands_s``: wall time of one pass over the workload's commands;
  printed also under the workload's own names: ``points_per_s`` (3200 /
  sweep seconds), ``steps_per_s`` (2000 / simulate seconds), ``certify_s``
  and ``eigen_s``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes. The traced ones run
under tracer.py, which wraps the package's public functions and methods
from outside; the per-layer metrics are medians over the traced passes,
``trace.overhead_frac`` is traced over untraced median wall time minus 1,
and the spans of the first traced pass are written to
``.bench_work/<workload>-seed<seed>.spans.tsv``.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, each metric with its unit and spread, ``failed_frac``
and any per-layer names the program no longer has (``absent``). Without
``src/gridcert`` the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from tracer import Tracer, write_spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
MIN_PASSES = 3
THREAD_VARS = ("GRIDCERT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import gridcert
gridcert.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread_text(values):
    q1, q3 = quartiles(values)
    text = f"median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"
    # the highest percentile with at least ten samples beyond it
    p = next((p for p in (99, 95, 90, 80, 75) if len(values) * (100 - p) >= 1000), None)
    if p is not None:
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return text


def environment(seed):
    info = {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "cpu_model": None,
            "python": platform.python_version(), "numpy": np.__version__, "blas": None,
            "env": {k: os.environ.get(k) for k in THREAD_VARS}, "git_commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        info["git_commit"] = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridcert").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def setup_sample(config):
    """Seconds for a fresh interpreter to import gridcert and load `config`."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), err.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, notes):
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes[:max(0, 5 - len(self.notes))])


def run_pass(cli, workload, tally):
    """Runs and checks each of the workload's commands once; wall time per label, output bytes."""
    walls, out_bytes = {}, 0
    for label, argv in workload.commands:
        wall, rc, out, err = run_command(cli, argv)
        tally.add(*workload.check(label, rc, out, err))
        walls[label] = wall
        out_bytes += len(out.encode())
    return walls, out_bytes


def run_plain(cli, workload, seconds, tally):
    """Passes for `seconds` (wall time per label each), and set-up samples spread over the run.

    Spreading the set-up samples keeps a slow spell of a shared machine from
    deciding their median; the time they take does not count against the
    passes' `seconds`.
    """
    setup_sample(workload.config)  # fills caches and writes bytecode; not timed
    passes, setup = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(cli, workload, tally)[0])
        while (len(setup) < SETUP_REPEATS
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS):
            t0 = time.perf_counter()
            setup.append(setup_sample(workload.config))
            start += time.perf_counter() - t0
            deadline += time.perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload.config))
    return passes, setup


def run_traced(cli, workload, seconds, tally, spans_path):
    tracer = Tracer(result_hooks=layers.RESULT_HOOKS)
    plain, traced, per_pass, durations = [], [], [], {}
    first_spans = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(sum(run_pass(cli, workload, tally)[0].values()))
        with tracer:
            walls, out_bytes = run_pass(cli, workload, tally)
        traced.append(sum(walls.values()))
        spans, counters = tracer.take()
        first_spans = first_spans or spans
        per_pass.append(layers.pass_metrics(spans, counters, out_bytes, durations))
    write_spans(first_spans, spans_path)
    return layers.summarize(per_pass, durations, tracer, plain, traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridcert" / "__init__.py").is_file():
        print(f"error: no gridcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridcert
    from gridcert import cli

    if Path(gridcert.__file__).resolve().parent != (SRC / "gridcert").resolve():
        print(f"error: imported gridcert from {gridcert.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    # the sweep runs at the CLI's default thread pool; the value found is in `env`
    os.environ.pop("GRIDCERT_THREADS", None)
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, WORK)
    tally = Tally()
    if workload.warmup_argv:
        run_command(cli, workload.warmup_argv)

    print(f"# workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# why: {workload.why}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        spans_path = WORK / f"{workload.name}-seed{args.seed}.spans.tsv"
        metrics, lines = run_traced(cli, workload, args.seconds, tally, spans_path)
        for line in lines:
            print(line)
        print(f"# spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        passes, setup = run_plain(cli, workload, args.seconds, tally)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        totals = [sum(p.values()) for p in passes]
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "commands_s": {"value": statistics.median(totals), "unit": "s"},
                   "peak_rss_mb": {"value": peak, "unit": "MiB"}}
        print(f"setup_s      {statistics.median(setup):.6g} s  ({spread_text(setup)})")
        print(f"commands_s   {statistics.median(totals):.6g} s  ({spread_text(totals)})")
        for name, unit, label, work in workload.named:
            values = [work / p[label] if work else p[label] for p in passes]
            print(f"{name:<12} {statistics.median(values):.6g} {unit}  ({spread_text(values)})")
        print(f"peak_rss_mb  {peak:.6g} MiB")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_frac  {frac:.6g} ratio  ({tally.failed} failed of {tally.attempted} attempted)")
    for note in tally.notes:
        print(f"# FAILED {note}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
