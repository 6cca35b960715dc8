"""The benchmark's workloads: the CLI commands each runs and the checks on their output.

A workload runs its `commands`, ``(label, argv)`` pairs, in-process through
`gridcert.cli.main`, the entry point the `gridcert` console script calls.
An operation is one sweep point, one `simulate` command, or one `certify`
or `eigen` command on the 500-bus system; `check` returns how many
operations a command's output attempted and how many of them failed.
`named` lists the metrics printed under the workload's own names:
``(name, unit, label, work)`` is `work` divided by the wall time of the
command `label`, or that wall time itself when `work` is None.

References were captured from the program by `capture.py` and live in
`refs/`; see that script for how to capture them again.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs"

VERDICT_EXIT = {"stable": 0, "unstable": 1, "marginal": 3}

SWEEP_HEADER = "X_d,X_q,load_mode,verdict_certificate,verdict_eigen,min_eig"
SIM_HEADER = "t,bus,theta,V,P,Q,delta,omega,E_q,E_d,W"
SIM_COLUMNS = SIM_HEADER.split(",")
SIM_ABS_TOL = 1e-12            # trajectory gate for simulator changes ...
SIM_REL_TOL = 1e-11            # ... plus rounding of both values to 12 digits
MAX_W_INCREASE = 1e-6
SWEEP_MIN_EIG_RTOL = 1e-10
FLOW_TOL = 1e-8
GAMMA_RTOL = 1e-9
MIN_EIG_TOL = 1e-8             # times max(1, |min_eig|)
EIG_TOL = 1e-7                 # times the spectral radius


def fixture(root):
    return Path(root) / "src" / "gridcert" / "fixtures" / "three_bus.json"


def sweep_argv(config, grid="0.1:12:40"):
    return ["sweep", "--config", str(config), "--sweep-bus", "3",
            "--xd-range", grid, "--xq-range", grid, "--no-timestamp"]


def simulate_argv(config, t_end="1.0"):
    return ["simulate", "--config", str(config), "--dt", "5e-4", "--t-end", t_end,
            "--perturb", "1=0.05", "--no-timestamp"]


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


class SweepFixture:
    name = "sweep_fixture"
    why = ("thousands of n=3 certify + eigenvalue_verdict calls through the CLI thread pool; "
           "per-call Python overhead dominates, the dense algebra is tiny")
    named = [("points_per_s", "1/s", "sweep", 3200)]

    def __init__(self, root, seed, work):
        self.config = fixture(root)
        self.commands = [("sweep", sweep_argv(self.config))]
        self.warmup_argv = sweep_argv(self.config, grid="0.1:12:2")
        self.reference = (REFS / "sweep_fixture.csv").read_text().splitlines()

    def check(self, label, rc, out, err):
        ref = self.reference
        attempted = len(ref) - 1
        lines = out.splitlines()
        if rc != 0 or not lines or lines[0] != SWEEP_HEADER or len(lines) != len(ref):
            return attempted, attempted, [f"sweep: exit {rc}, {len(lines) - 1} rows, stderr {err[:200]!r}"]
        failed, notes = 0, []
        for k in range(1, len(ref)):
            problem = _sweep_row_problem(lines[k].split(","), ref[k].split(","))
            if problem:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"sweep row {k}: {problem}")
        return attempted, failed, notes


def _sweep_row_problem(row, ref):
    if len(row) != 6:
        return f"malformed {row!r}"
    try:
        if not all(_close(float(a), float(b), 1e-12) for a, b in zip(row[:2], ref[:2])):
            return f"grid point {row[:2]} != {ref[:2]}"
        if row[2:5] != ref[2:5]:
            return f"verdicts {row[2:5]} != reference {ref[2:5]}"
        if (row[5] == "") != (ref[5] == ""):
            return f"min_eig {row[5]!r} != reference {ref[5]!r}"
        if row[5] and not _close(float(row[5]), float(ref[5]), SWEEP_MIN_EIG_RTOL, 1e-14):
            return f"min_eig {row[5]} != reference {ref[5]}"
    except ValueError:
        return f"malformed {row!r}"
    v_cert, v_eig = row[3], row[4]
    decided = {"stable", "unstable"}
    if v_cert in decided and v_eig in decided and v_cert != v_eig:
        return f"oracles disagree: certificate {v_cert}, eigen {v_eig}"
    return None


class SimulateFixture:
    name = "simulate_fixture"
    why = ("2000 RK4 steps with 10001 voltage-Newton solves and >100k device-method calls; "
           "simulation, devices and CSV output dominate")
    named = [("steps_per_s", "1/s", "simulate", 2000)]

    def __init__(self, root, seed, work):
        self.config = fixture(root)
        self.commands = [("simulate", simulate_argv(self.config))]
        self.warmup_argv = simulate_argv(self.config, t_end="0.005")
        self.reference = (REFS / "simulate_fixture.csv").read_text().splitlines()

    def check(self, label, rc, out, err):
        try:
            problem = _simulate_problem(rc, out, self.reference)
        except ValueError as exc:
            problem = f"unparseable output: {exc}"
        return 1, int(problem is not None), [f"simulate: {problem}"] if problem else []


def _cells(line):
    return [float(c) if c else None for c in line.split(",")]


def _cell_close(a, b):
    if a is None or b is None:
        return a is b
    return _close(a, b, SIM_REL_TOL, SIM_ABS_TOL)


def _simulate_problem(rc, out, ref):
    """`ref` is the reference CSV's lines; every cell is compared with `_cell_close`."""
    if rc != 0:
        return f"exit code {rc} (truncated or failed)"
    lines = out.splitlines()
    if not lines or lines[0] != SIM_HEADER:
        return "missing header"
    rows = lines[1:]
    if len(rows) != len(ref) - 1:
        return f"{len(rows)} rows, reference {len(ref) - 1}"
    table = [_cells(r) for r in rows]
    if any(len(r) != len(SIM_COLUMNS) for r in table):
        return "malformed row"
    n_bus = sum(1 for r in table if r[0] == table[0][0])  # rows per time step
    W = np.array([table[k][-1] for k in range(0, len(table), n_bus)])
    dW = float(np.max(np.diff(W))) if W.size > 1 else 0.0
    if dW > MAX_W_INCREASE:
        return f"storage W increased by {dW:.3e} > {MAX_W_INCREASE:.0e}"
    for k, (row, line) in enumerate(zip(table, ref[1:])):
        if not all(_cell_close(a, b) for a, b in zip(row, _cells(line))):
            return f"row {k} {rows[k]!r} != reference {line!r}"
    return None


class Mesh500:
    """`certify`, then `eigen`, on a seeded random meshed 500-bus system (see mesh.py).

    Before any command is timed, mesh.py checks that the flow Newton solves
    from the config lands on the generating point, and computes the
    library's results at the generating point as the reference for this
    seed. Outputs are compared with that reference and, for the seeds in
    refs/mesh500.json, with the values captured there. A flow mismatch fails
    every command.
    """

    name = "mesh500"
    why = ("certify then eigen on a seeded 500-bus meshed system: 500-bus Newton, deflated eigh "
           "of 999x999, Kron reduction and eigvals on 875 states dominate")
    named = [("certify_s", "s", "certify", None), ("eigen_s", "s", "eigen", None)]

    def __init__(self, root, seed, work):
        # generated in a child process, so this process's peak memory is the commands'
        subprocess.run([sys.executable, str(BENCH / "mesh.py"), "--seed", str(seed),
                        "--out", str(work)],
                       check=True, timeout=170)
        stem = Path(work) / f"mesh500-seed{seed}"
        self.config = Path(f"{stem}.json")
        ref = json.loads(Path(f"{stem}.reference.json").read_text())
        self.flow_error = ref["flow_error"]
        self.expected = ref["verdicts"]
        self.gammas = ref["gammas"]
        self.min_eig = ref["min_eig"]
        self.eigenvalues = np.array(ref["eig_re"]) + 1j * np.array(ref["eig_im"])
        self.stored = json.loads((REFS / "mesh500.json").read_text()).get(str(seed))
        self.commands = [(c, [c, "--config", str(self.config), "--no-timestamp"])
                         for c in ("certify", "eigen")]
        self.warmup_argv = None

    def check(self, label, rc, out, err):
        try:
            problem = self._problem(label, rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unparseable output: {exc!r}"
        return 1, int(problem is not None), [f"{label}: {problem}"] if problem else []

    def _problem(self, label, rc, out):
        if self.flow_error > FLOW_TOL:
            return f"solved flow is {self.flow_error:.3e} from the generating point"
        if self.expected["certify"] != self.expected["eigen"]:
            return f"oracles disagree at the generating point: {self.expected}"
        if rc != VERDICT_EXIT[self.expected[label]]:
            return f"exit code {rc}, expected {self.expected[label]}"
        if self.stored is not None:
            stored = self.stored[label]
            problem = (f"exit code {rc}, captured {stored['exit']}" if rc != stored["exit"]
                       else compare_summary(label, summarize(label, out), stored))
            if problem:
                return f"differs from captured reference: {problem}"
        return self._certify_problem(out) if label == "certify" else self._eigen_problem(out)

    def _certify_problem(self, out):
        doc = json.loads(out)
        if doc["verdict"] != self.expected["certify"]:
            return f"verdict {doc['verdict']} != {self.expected['certify']}"
        if set(doc["gammas"]) != set(self.gammas):
            return "gamma bus ids differ"
        for bus, g in doc["gammas"].items():
            if not _close(g, self.gammas[bus], GAMMA_RTOL, 1e-12):
                return f"gamma[{bus}] {g!r} != {self.gammas[bus]!r}"
        if abs(doc["min_eig"] - self.min_eig) > MIN_EIG_TOL * max(1.0, abs(self.min_eig)):
            return f"min_eig {doc['min_eig']!r} != {self.min_eig!r}"
        if ("witness" in doc) != (doc["verdict"] == "unstable"):
            return "witness present/absent against the verdict"
        return None

    def _eigen_problem(self, out):
        ev = _eigen_csv(out)
        ref = self.eigenvalues
        if ev.size != ref.size:
            return f"{ev.size} eigenvalues, reference {ref.size}"
        tol = EIG_TOL * max(1.0, float(np.max(np.abs(ref))))
        dist = np.abs(ev[:, None] - ref[None, :])
        if float(dist.min(axis=1).max()) > tol or float(dist.min(axis=0).max()) > tol:
            return f"spectrum differs from the reference by {float(dist.min(axis=1).max()):.3e}"
        return None


def _eigen_csv(out):
    lines = out.splitlines()
    if not lines or lines[0] != "re,im":
        raise ValueError("eigen output lacks its header")
    vals = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return vals[:, 0] + 1j * vals[:, 1] if vals.size else np.zeros(0, complex)


def summarize(command, out):
    """Compact record of a certify JSON or eigen CSV, stored per seed in refs/mesh500.json."""
    if command == "certify":
        doc = json.loads(out)
        g = list(doc["gammas"].values())
        return {"verdict": doc["verdict"], "min_eig": doc["min_eig"], "n_gamma": len(g),
                "gamma_sum": math.fsum(g), "gamma_min": min(g)}
    ev = _eigen_csv(out)
    zero = int(np.argmin(np.abs(ev)))
    rest = np.delete(ev, zero)
    return {"n": int(ev.size), "radius": float(np.max(np.abs(ev))),
            "trace": math.fsum(ev.real), "abscissa": float(rest.real.max()),
            "min_re": float(ev.real.min()), "sum_abs_im": math.fsum(np.abs(ev.imag))}


def compare_summary(command, got, ref):
    if command == "certify":
        if got["verdict"] != ref["verdict"] or got["n_gamma"] != ref["n_gamma"]:
            return f"verdict/gamma count {got['verdict']}/{got['n_gamma']} != {ref['verdict']}/{ref['n_gamma']}"
        if abs(got["min_eig"] - ref["min_eig"]) > MIN_EIG_TOL * max(1.0, abs(ref["min_eig"])):
            return f"min_eig {got['min_eig']!r} != {ref['min_eig']!r}"
        for key in ("gamma_sum", "gamma_min"):
            if not _close(got[key], ref[key], GAMMA_RTOL, 1e-12):
                return f"{key} {got[key]!r} != {ref[key]!r}"
        return None
    if got["n"] != ref["n"]:
        return f"{got['n']} eigenvalues, captured {ref['n']}"
    tol = EIG_TOL * max(1.0, ref["radius"])
    for key in ("radius", "trace", "abscissa", "min_re", "sum_abs_im"):
        if abs(got[key] - ref[key]) > tol:
            return f"{key} {got[key]!r} != {ref[key]!r}"
    return None


WORKLOADS = {w.name: w for w in (SweepFixture, SimulateFixture, Mesh500)}
