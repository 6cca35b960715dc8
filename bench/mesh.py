"""Seeded random meshed test system for the `mesh500` workloads.

The system is drawn at a known operating point: bus angles and voltages are
sampled, the injections are evaluated with `gridcert.power_balance`, and a
device is placed at every bus. Device reactances are re-drawn until the bus
sits inside its capability region with a positive synchronizing coefficient,
so `certify` always reaches its dense eigenvalue step; the whole set is
re-drawn if the algebraic (theta, V) Hessian block is not positive definite
(voltage regularity), where the two stability oracles are not equivalent.

Bus 0 is the slack, generator buses are PV and load buses are PQ, the same
split the bundled 3-bus fixture uses. The device mix is fixed per size (a
quarter loads, the rest split evenly over two_axis / vsg / fdc), so every
seed gives the same number of dynamic states and the dense steps the same
matrix sizes; the seed moves the topology, the operating point and the
parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

GEN_KINDS = ("two_axis", "vsg", "fdc")
MARGIN = 0.05          # capability and synchronizing-coefficient margin [pu]
REGULARITY_MARGIN = 1e-6
MAX_REDRAWS = 200
N_BUS = 500


def _gamma(P, Q, V, x_d, x_q):
    den = Q + V * V / x_q
    if den <= MARGIN:
        return None
    phi = math.atan(P / den)
    return Q + V * V * math.cos(phi) ** 2 / x_q + V * V * math.sin(phi) ** 2 / x_d


def _device(kind, rng, P, Q, V):
    """Device doc of `kind` whose reactances put (P, Q, V) inside its region; counts re-draws.

    Reactances are drawn from [0.05, 0.35] pu; where the bus absorbs so much
    reactive power that no X_q there keeps Q + V^2/X_q above the margin, the
    X_q range shrinks below that bound.
    """
    x_hi = 0.35 if Q >= MARGIN else min(0.35, 0.95 * V * V / (MARGIN - Q))
    x_lo = min(0.05, 0.5 * x_hi)
    redraws = 0
    while True:
        x_d, x_q = float(rng.uniform(x_lo, 0.35)), float(rng.uniform(x_lo, x_hi))
        g = _gamma(P, Q, V, x_d, x_q)
        if g is not None and g > MARGIN:
            break
        redraws += 1
        if redraws > MAX_REDRAWS:
            raise RuntimeError(f"no admissible reactances for P={P:.4g} Q={Q:.4g} V={V:.4g}")
    M, D = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 5.0))
    if kind == "two_axis":
        return {"kind": kind, "M": M, "D": D,
                "tau_d": float(rng.uniform(1.0, 8.0)), "tau_q": float(rng.uniform(0.3, 3.0)),
                "X_d": x_d, "X_q": x_q,
                "X_d_prime": x_d * float(rng.uniform(0.3, 0.7)),
                "X_q_prime": x_q * float(rng.uniform(0.3, 0.7))}, redraws
    if kind == "vsg":
        return {"kind": kind, "M": M, "D": D, "X_d": x_d, "X_q": x_q}, redraws
    return {"kind": kind, "D": D, "X_d": x_d, "X_q": x_q}, redraws


def generate(seed, n_bus=N_BUS):
    """Config document and generating point of a random meshed system.

    Returns (doc, point) where `point` holds the sampled theta, V and the
    injections P, Q, plus the re-draw counts. Only `doc` is given to the
    program under test.
    """
    import gridcert as gc

    rng = np.random.default_rng(seed % 2**63)
    lines = [(int(rng.integers(0, j)), j, float(rng.uniform(2.0, 40.0))) for j in range(1, n_bus)]
    chords = set()
    while len(chords) < n_bus // 2:
        i, j = sorted(int(k) for k in rng.choice(n_bus, size=2, replace=False))
        chords.add((i, j))
    lines += [(i, j, float(rng.uniform(2.0, 40.0))) for i, j in sorted(chords)]
    net = gc.Network.from_lines(n_bus, [gc.Line(i, j, b) for i, j, b in lines])

    theta = rng.uniform(-0.05, 0.05, n_bus)
    theta -= theta[0]
    V = rng.uniform(0.95, 1.05, n_bus)
    P, Q = gc.power_balance(theta, V, net)

    n_load = n_bus // 4
    n_gen = n_bus - n_load
    kinds = [GEN_KINDS[k % 3] for k in range(n_gen)] + ["load"] * n_load
    kinds = [kinds[k] for k in rng.permutation(n_bus)]
    if kinds[0] == "load":  # the slack bus hosts a generator
        k = kinds.index(GEN_KINDS[0])
        kinds[0], kinds[k] = kinds[k], kinds[0]

    capability_redraws = 0
    for regularity_redraws in range(MAX_REDRAWS + 1):
        devices = []
        for i, kind in enumerate(kinds):
            if kind == "load":
                devices.append({"kind": "load", "P_ref": float(P[i]), "Q_ref": float(Q[i])})
                continue
            dev, redraws = _device(kind, rng, float(P[i]), float(Q[i]), float(V[i]))
            capability_redraws += redraws
            devices.append(dev)
        doc = _document(devices, kinds, lines, theta, V, P, Q)
        if _voltage_regular(gc, doc, theta, V, P, Q):
            break
    else:
        raise RuntimeError(f"seed {seed}: no voltage-regular draw in {MAX_REDRAWS} attempts")

    point = {"seed": seed, "n_bus": n_bus,
             "theta": theta.tolist(), "V": V.tolist(), "P": P.tolist(), "Q": Q.tolist(),
             "capability_redraws": capability_redraws,
             "regularity_redraws": regularity_redraws}
    return doc, point


def _document(devices, kinds, lines, theta, V, P, Q):
    buses = []
    for i, (dev, kind) in enumerate(zip(devices, kinds)):
        if i == 0:
            spec = {"type": "slack", "theta": float(theta[0]), "V": float(V[0])}
        elif kind == "load":
            spec = {"type": "pq", "P": float(P[i]), "Q": float(Q[i])}
        else:
            spec = {"type": "pv", "P": float(P[i]), "V": float(V[i])}
        buses.append({"id": i + 1, "device": dev, "spec": spec})
    return {"omega0": 376.99111843077515, "buses": buses,
            "lines": [{"from": i + 1, "to": j + 1, "b": b} for i, j, b in lines]}


def _voltage_regular(gc, doc, theta, V, P, Q):
    cfg = gc.parse_config(doc)
    flow = gc.PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=0.0, iterations=0)
    H = gc.assemble_energy_hessian(cfg.system, cfg.system.equilibrium(flow))
    n_x = H.n_states
    return float(np.linalg.eigvalsh(H.matrix[n_x:, n_x:])[0]) > REGULARITY_MARGIN


def reference(doc, point):
    """The library's own results for a generated system, to check the CLI against.

    The flow is solved from the config as the CLI solves it and compared with
    the generating point; both oracles run at the generating point.
    """
    import gridcert as gc

    cfg = gc.parse_config(doc)
    flow = gc.solve_power_flow(cfg.system.net, cfg.bus_specs)
    theta, V = np.array(point["theta"]), np.array(point["V"])
    gen = gc.PowerFlowSolution(theta=theta, V=V, P=np.array(point["P"]), Q=np.array(point["Q"]),
                               residual=0.0, iterations=0)
    cert = gc.certify(gen, cfg.system, bus_ids=cfg.bus_ids)
    eig = gc.eigenvalue_verdict(cfg.system, cfg.system.equilibrium(gen))
    return {"flow_error": max(float(np.max(np.abs(flow.theta - theta))),
                              float(np.max(np.abs(flow.V - V)))),
            "flow_iterations": flow.iterations,
            "verdicts": {"certify": cert.verdict, "eigen": eig.verdict},
            "gammas": {str(k): v for k, v in cert.gammas.items()},
            "min_eig": cert.min_eig,
            "eig_re": eig.eigenvalues.real.tolist(), "eig_im": eig.eigenvalues.imag.tolist()}


def main(argv=None):
    """Write the config, the generating point and the reference of one seed to --out."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the three JSON files")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    doc, point = generate(args.seed)
    stem = Path(args.out) / f"mesh{N_BUS}-seed{args.seed}"
    Path(f"{stem}.json").write_text(json.dumps(doc))
    Path(f"{stem}.point.json").write_text(json.dumps(point))
    Path(f"{stem}.reference.json").write_text(json.dumps(reference(doc, point)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
