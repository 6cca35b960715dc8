"""Closed-form small-signal stability certificate from the stationary power flow.

The test needs nothing beyond the stationary power flow, the device
synchronous reactances and the network susceptance matrix:

* every generator/grid-forming bus must have a positive synchronizing power
  coefficient, and
* the 2N x 2N matrix diag(per-bus stiffness blocks) + network Hessian must be
  positive semidefinite on the complement of the uniform-phase-shift
  direction.

One rule, shared with the reactance sweep, gives each bus's terms: a load
has a block and no coefficient, and must draw the flow's (P, Q). Verdicts are stable / unstable / marginal; the rotational zero mode is
deflated by projection before the eigenvalue test so it cannot mask genuine
negative modes. Each decision of the test is made by one kernel on a stack of
points, which `certify` runs on a stack of one and the reactance sweep on a
stack of grid points. A kernel raises if it rejects any point of its stack, as numpy's
LAPACK wrappers do; non-finite closed forms are rejected before LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import ConstantPowerLoad, _any, _phase
from .network import network_hessian

__all__ = [
    "CERT_TOL",
    "CertificateError",
    "synchronizing_coefficient",
    "bus_stiffness_block",
    "load_stiffness_block",
    "structural_null_vector",
    "deflated_min_eig",
    "StabilityReport",
    "certify",
]

#: Absolute eigenvalue tolerance separating stable / marginal / unstable.
CERT_TOL = 1e-8


class CertificateError(RuntimeError):
    """Raised when certificate quantities are undefined at the given point."""


def synchronizing_coefficient(op, X_d, X_q):
    """Per-bus synchronizing power coefficient gamma at an operating point.

    gamma = Q + V^2 cos^2(phi)/X_q + V^2 sin^2(phi)/X_d with phi the internal
    phase. Positive gamma means the device produces restoring active power
    against angle perturbations. Elementwise over arrays of reactances.
    """
    return _coefficient(op, X_d, X_q, _phase(op, X_q))


def _coefficient(op, X_d, X_q, phase):
    c2, s2 = phase[3:]
    return op.Q + op.V**2 * c2 / X_q + op.V**2 * s2 / X_d


def bus_stiffness_block(op, X_d, X_q):
    """2x2 (theta, V) stiffness block of a generator/grid-forming bus.

    Equals the Schur complement of the reduced device Hessian onto (theta, V)
    after eliminating the internal angle; only the (V, V) entry is nonzero.
    Requires a positive synchronizing coefficient. Arrays of reactances give
    a (..., 2, 2) stack.
    """
    return _stiffness_block(op, X_d, X_q, _phase(op, X_q))


def _stiffness_block(op, X_d, X_q, phase):
    """`bus_stiffness_block` from the internal phase terms (`devices._phase`)."""
    _, cos_phi, sin_phi, c2, s2 = phase
    gamma = _coefficient(op, X_d, X_q, phase)
    if _any(gamma <= 0):
        raise CertificateError(
            f"synchronizing coefficient {np.min(gamma):.6g} <= 0; stiffness block undefined"
        )
    num = (op.V**4 / (X_q * X_d)
           - op.P**2
           + (op.V**2 * c2 / X_d + op.V**2 * s2 / X_q) * op.Q
           - 2.0 * (1.0 / X_q - 1.0 / X_d) * op.P * op.V**2 * cos_phi * sin_phi)
    block = np.zeros(np.shape(num) + (2, 2))
    block[..., 1, 1] = num / (op.V**2 * gamma)
    return block


def load_stiffness_block(Q_ref, V):
    """2x2 (theta, V) stiffness block of a constant-power load: diag(0, Q_ref/V^2).

    Negative whenever the load consumes reactive power, which is how a
    grid-following load degrades synchronization.
    """
    if not V > 0:
        raise ValueError(f"bus voltage must be positive, got V={V}")
    return np.array([[0.0, 0.0], [0.0, Q_ref / V**2]])


def structural_null_vector(n_bus):
    """Unit vector of the uniform phase shift: ones on theta slots, zeros on V slots."""
    n = np.zeros(2 * n_bus)
    n[0::2] = 1.0
    return n / np.linalg.norm(n)


def _complement_basis(unit):
    """Orthonormal basis of the complement of a unit vector (Householder columns).

    The reflector I - 2 w w^T is built in one array, with the bits of
    forming eye(m) and 2 outer(w, w) and taking their difference.
    """
    m = unit.size
    w = unit.copy()
    w[0] -= 1.0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(m)[:, 1:]
    w /= nw
    H = np.outer(w, 2.0 * w)
    np.subtract(0.0, H, out=H)
    H.flat[::m + 1] += 1.0
    return H[:, 1:]


def deflated_min_eig(M, null_unit):
    """Smallest eigenvalue and eigenvector of M restricted to the complement of null_unit."""
    Z = _complement_basis(null_unit)
    vals, vecs = _deflated_eigh([M, Z])
    return float(vals), Z @ vecs


def _deflated_eigh(parts):
    """Smallest eigenpair of Z^T M Z from the list [M, Z], M one matrix or a stack.

    Empties the list and drops each array after its last use, as `_schur`
    does, so that an array the caller holds no other reference to is freed
    before `eigh`. The eigenvectors are in the coordinates of Z.
    """
    M, Z = parts
    parts.clear()
    D = Z.T @ M
    del M
    D = D @ Z
    del Z
    vals, vecs = np.linalg.eigh(D)
    return vals[..., 0], vecs[..., :, 0]


def _check_balance(system, flow):
    """Balance residual of a claimed flow, which must be small enough to certify."""
    residual = system.balance_residual(flow)
    scale = max(1.0, float(np.max(np.abs(system.net.B))) if system.n_bus > 1 else 1.0)
    if residual > 1e-6 * scale:
        raise CertificateError(
            f"power flow does not satisfy the balance equations (residual {residual:.3e})"
        )
    return residual


def _bus_terms(dev, theta, op):
    """Synchronizing coefficient and 2x2 (theta, V) stiffness block of the device at a bus.

    A load has no coefficient and must draw the flow's (P, Q) (its stationary
    check raises ValueError otherwise). A source raises CapabilityError off its
    capability region, and has no block where its coefficient is not positive
    and finite: the coefficient gate decides there. Also returns the device's
    internal phase terms (`Device._phase`, None for a load) that both read.
    """
    phase = dev._phase(op)
    if isinstance(dev, ConstantPowerLoad):
        dev.stationary_state(theta, op)
        return None, load_stiffness_block(dev.Q_ref, op.V), phase
    gamma = _coefficient(op, dev.X_d, dev.X_q, phase)
    block = _stiffness_block(op, dev.X_d, dev.X_q, phase) if 0 < gamma < np.inf else None
    return gamma, block, phase


def _gamma_gate(G, ids):
    """Per row of coefficients G (a column per bus of `ids`): the verdict or None, and worst bus."""
    _check_finite(G, ids, "synchronizing coefficient")
    return _band(G.min(axis=1), None), [ids[j] for j in np.argmin(G, axis=1)]


def _add_stiffness(M, block, i, bus_id):
    """Add bus i's (id `bus_id`) stiffness block, or a stack of them, into M in place, if finite."""
    _check_finite(block[..., 1, 1].reshape(-1, 1), [bus_id], "(V, V) stiffness")
    M[..., 2 * i:2 * i + 2, 2 * i:2 * i + 2] += block


def _check_finite(values, ids, name):
    """Raise a CertificateError for the first non-finite entry of `values`, naming its bus."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        k, j = bad[0]
        raise CertificateError(f"{name} at bus {ids[j]} is not finite ({values[k, j]})")


def _band(x, above):
    """The verdict at each x: `above` past CERT_TOL, 'marginal' within the band, 'unstable' below."""
    return np.where(x > CERT_TOL, above, np.where(x >= -CERT_TOL, "marginal", "unstable")).tolist()


@dataclass
class StabilityReport:
    """Certificate outcome: per-bus coefficients, condition matrix spectrum edge, verdict.

    `null_residual` is max |M n| for the condition matrix M and the unit
    uniform-phase-shift vector n; M is network_hessian plus the stiffness blocks.
    """

    gammas: dict
    verdict: str
    min_eig: float | None = None
    witness: np.ndarray | None = None
    violating_bus: int | None = None
    null_residual: float | None = None

    def to_json_dict(self):
        doc = {
            "verdict": self.verdict,
            "gammas": {str(k): v for k, v in sorted(self.gammas.items())},
            "min_eig": self.min_eig,
        }
        if self.witness is not None:
            doc["witness"] = [float(w) for w in self.witness]
        if self.violating_bus is not None:
            doc["violating_bus"] = self.violating_bus
        return doc

    def to_text(self):
        lines = [f"verdict: {self.verdict}"]
        for bus, g in sorted(self.gammas.items()):
            lines.append(f"  gamma[{bus}] = {g:.6f}")
        if self.min_eig is not None:
            lines.append(f"  min eigenvalue (deflated) = {self.min_eig:.6e}")
        if self.violating_bus is not None:
            lines.append(f"  positivity condition violated at bus {self.violating_bus}")
        return "\n".join(lines)


def certify(flow, system, bus_ids=None):
    """Evaluate the closed-form stability condition at a stationary power flow.

    `flow` must satisfy the network power balance, every generator/GFM bus
    must be inside its capability region (CapabilityError otherwise) and its
    closed forms finite (CertificateError naming the bus otherwise). Returns
    a StabilityReport; verdicts within CERT_TOL of either boundary are marginal.
    `bus_ids`, if given, names the buses in the report, one id per bus, else ValueError.
    """
    n = system.n_bus
    ids = list(bus_ids) if bus_ids is not None else list(range(n))
    if len(ids) != n:
        raise ValueError(f"bus_ids must name each of the {n} buses, got {len(ids)} ids")
    _check_balance(system, flow)

    terms = [_bus_terms(dev, float(flow.theta[i]), system.operating_point(flow, i))
             for i, dev in enumerate(system.devices)]
    gammas = {ids[i]: gamma for i, (gamma, _, _) in enumerate(terms) if gamma is not None}
    if gammas:
        verdicts, worst = _gamma_gate(np.array([list(gammas.values())]), list(gammas))
        if verdicts[0] is not None:
            return StabilityReport(gammas=gammas, verdict=verdicts[0], violating_bus=worst[0])

    M = network_hessian(flow.theta, flow.V, system.net)
    for i, (_, block, _) in enumerate(terms):
        _add_stiffness(M, block, i, ids[i])

    null_unit = structural_null_vector(n)
    null_residual = float(np.max(np.abs(M @ null_unit)))
    parts = [M, _complement_basis(null_unit)]
    del M  # the kernel drops M and Z: in eigh only the deflated matrix is alive
    vals, vecs = _deflated_eigh(parts)
    min_eig = float(vals)
    verdict = _band(min_eig, "stable")

    return StabilityReport(
        gammas=gammas,
        verdict=verdict,
        min_eig=min_eig,
        # the reflector, built again, applied to the eigenvector
        witness=_complement_basis(null_unit) @ vecs if verdict == "unstable" else None,
        null_residual=null_residual,
    )
