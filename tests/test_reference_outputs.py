"""CLI stdout and exit codes on the bundled fixture, byte for byte against captured references.

Each case runs in-process through `gridcert.cli.main` with --no-timestamp,
and stdout is read at the file-descriptor level, so anything LAPACK prints
would count too. tests/refs holds powerflow, certify, eigen and simulate
option errors (each line of cases.txt is NAME EXIT ARGS); bench/refs holds
the benchmark's 40x40 two-mode sweep and 1 s simulation. All were captured
on x86_64 with OpenBLAS.
"""

from pathlib import Path

import pytest

import gridcert as gc
from gridcert.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = str(gc.fixture_path("three_bus.json"))
BENCH_CASES = [
    ("sweep_fixture.csv", "sweep --sweep-bus 3 --xd-range 0.1:12:40 --xq-range 0.1:12:40"),
    ("simulate_fixture.csv", "simulate --dt 5e-4 --t-end 1.0 --perturb 1=0.05"),
]


def _cases():
    refs = ROOT / "tests" / "refs"
    for line in (refs / "cases.txt").read_text().splitlines():
        name, code, args = line.split(maxsplit=2)
        yield pytest.param(args, int(code), refs / f"{name}.out", id=name)
    for name, args in BENCH_CASES:
        yield pytest.param(args, 0, ROOT / "bench" / "refs" / name, id=name)


@pytest.mark.parametrize("args, code, reference", list(_cases()))
def test_stdout_equals_reference(capfdbinary, args, code, reference):
    assert main([*args.split(), "--config", FIXTURE, "--no-timestamp"]) == code
    assert capfdbinary.readouterr().out == reference.read_bytes()
