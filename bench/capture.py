#!/usr/bin/env python3
"""Capture the benchmark's reference outputs from the program in ``src/``.

    python3 bench/capture.py

Writes ``refs/sweep_fixture.csv`` and ``refs/simulate_fixture.csv`` (the full
CSV output of each command) and ``refs/mesh500.json`` (for mesh seeds 0-99, a
summary of the certify JSON and the eigen spectrum). The references hold the
outputs of the commit they were captured at; capture again only when a
change is meant to alter outputs beyond the tolerances in workloads.py, and
say so.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, SRC, WORK, run_command

MESH_SEEDS = range(0, 100)


def main():
    sys.path.insert(0, str(SRC))
    from gridcert import cli

    import workloads as wl

    WORK.mkdir(exist_ok=True)
    wl.REFS.mkdir(exist_ok=True)
    for name, argv in (("sweep_fixture", wl.sweep_argv(wl.fixture(ROOT))),
                       ("simulate_fixture", wl.simulate_argv(wl.fixture(ROOT)))):
        _, rc, out, _ = run_command(cli, argv)
        assert rc == 0, (name, rc)
        (wl.REFS / f"{name}.csv").write_text(out)
    refs = {}
    for seed in MESH_SEEDS:
        entry = {}
        for label, argv in wl.Mesh500(ROOT, seed, WORK).commands:
            _, rc, out, _ = run_command(cli, argv)
            entry[label] = dict(wl.summarize(label, out), exit=rc)
        refs[str(seed)] = entry
        print(seed, entry["certify"]["verdict"], entry["eigen"]["exit"], flush=True)
    (wl.REFS / "mesh500.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
