"""Batched reactance sweep: both stability verdicts over an (X_d, X_q) grid at one bus.

Between grid points only the swept bus's device changes. The flow's balance
check, operating points and network Hessian are computed once per system, and
each other bus's coefficient and stiffness block (by `certify`'s per-bus
rule) and energy blocks once per bus. The other buses' stiffness blocks are
added into the network Hessian once, so each point adds only its own. The
grid is walked X_d-major and cut into stacks of at most
max(1, _STACK_ENTRIES // size**2) points, `size` being the eigen oracle's
energy-Hessian dimension, so memory stays bounded whatever the grid or the
system; a stack may cross X_d rows. The swept device's closed
forms are evaluated once per stack, over arrays of its points, and the
stack goes through the kernels that `certify` and `eigenvalue_verdict` run
on a stack of one. LAPACK's stacked calls compute each matrix on its own,
so every point's verdicts and `min_eig` are those of evaluating it on its
own, wherever the stacks are cut. A kernel raises if it rejects any point
of its stack; the sweep then halves the stack and evaluates each half
again, until the failing point stands alone and is infeasible in that
column. A clean stack takes one call per kernel.

Stacks are independent, and most of a stack's time is spent in LAPACK's
stacked calls, which release the interpreter lock; so on several CPUs one
pool of one thread per CPU evaluates the stacks of every system swept, in
order, and the call returns each system's rows in grid order. The worker
count follows the CPU set the process may run on (`taskset`, for example),
not an option; on one CPU no thread is started. The output is the same
whatever the CPU count or the stack cut.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .certificate import (
    CertificateError,
    _add_stiffness,
    _band,
    _bus_terms,
    _check_balance,
    _coefficient,
    _complement_basis,
    _deflated_eigh,
    _gamma_gate,
    _stiffness_block,
    structural_null_vector,
)
from .devices import ConstantPowerLoad, _capability, _phase
from .linearization import (
    DegenerateEquilibriumError,
    _add_device_block,
    _residual_error,
    _schur,
    _spectra,
    _spectrum_verdicts,
)
from .network import network_hessian

__all__ = ["sweep_verdicts"]

#: Matrix entries in one stack of the eigen oracle's energy Hessians. A stack holds at most
#: max(1, _STACK_ENTRIES // size**2) grid points, `size` being that Hessian's dimension, so each
#: array of matrices in a stack stays within 512 KiB however large the grid or the system.
_STACK_ENTRIES = 2**16


def sweep_verdicts(systems, flow, bus, xd_values, xq_values):
    """Certificate and eigenvalue verdicts with bus index `bus`'s device at each (X_d, X_q), for
    each system in `systems`, every one at the power flow `flow`.

    Returns one list per system of (x_d, x_q, certificate verdict, eigenvalue
    verdict, min_eig) for every grid point, X_d-major; min_eig is None where
    the certificate stops at a synchronizing coefficient. A verdict is
    infeasible where the library call behind it would raise, and both are
    where the device cannot be built. A load at the swept bus of any system
    or a non-positive bus voltage in `flow` raises ValueError here, before
    any point is evaluated. Every system's stacks go, in order, to one pool
    of one thread per CPU, or are evaluated here on one CPU; an exception
    from a stack cancels the stacks not yet started.
    """
    if any(isinstance(system.devices[bus], ConstantPowerLoad) for system in systems):
        raise ValueError("sweep bus must host a generator or grid-forming inverter")
    sweeps = [_Sweep(system, flow, bus) for system in systems]
    grid = list(itertools.product(xd_values, xq_values))
    owners, stacks = [], []
    for sweep in sweeps:
        per_stack = max(1, _STACK_ENTRIES // sweep.size**2)
        for start in range(0, len(grid), per_stack):
            owners.append(sweep)
            stacks.append(grid[start:start + per_stack])
    cpus = _cpus()
    if cpus == 1:
        done = list(map(_Sweep._rows, owners, stacks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a sweep on several CPUs pays it
        with ThreadPoolExecutor(cpus) as pool:
            done = list(pool.map(_Sweep._rows, owners, stacks))
    rows = {sweep: [] for sweep in sweeps}
    for sweep, stack_rows in zip(owners, done):
        rows[sweep].extend(stack_rows)
    return list(rows.values())


class _Sweep:
    """What the swept device does not change, and the evaluation of a stack.

    Nothing is certifiable where the flow fails the certificate's balance
    check, or where another bus's `_bus_terms` raises (a source off its
    capability region, a load off the flow's (P, Q)); both verdicts are then
    infeasible at every point.
    """

    def __init__(self, system, flow, bus):
        devices = system.devices
        self.device, self.bus, self.omega0 = devices[bus], bus, system.omega0
        # the eigen oracle's energy Hessian is size x size, the condition matrix smaller
        self.size = system.n_states + 2 * system.n_bus
        self.certifiable = False
        try:
            residual = _check_balance(system, flow)
        except CertificateError:
            return
        n, n_x = system.n_bus, system.n_states
        ops = [system.operating_point(flow, i) for i in range(n)]
        self.theta, self.op = float(flow.theta[bus]), ops[bus]
        nh = network_hessian(flow.theta, flow.V, system.net)
        self.Z = _complement_basis(structural_null_vector(n))
        slices = system.state_slices()
        self.states = slices[bus]
        # eigenvalue oracle: energy Hessian blocks and damping matrix without the swept device
        self.energy = ([], np.zeros((n_x, nh.shape[0])), nh.copy())
        self.R = np.zeros((n_x, n_x))
        self.equilibrium = _residual_error(residual) is None
        # certificate: each point sets the swept bus's coefficient (column 0) and adds its
        # stiffness block to `fixed`, the network Hessian plus every other bus's block
        self.gens, gammas, self.fixed = [bus], [np.nan], nh
        for i, dev in enumerate(devices):
            if i == bus:
                continue
            theta = float(flow.theta[i])
            try:
                gamma, block, phase = _bus_terms(dev, theta, ops[i])
            except ValueError:  # nothing is certifiable
                return
            if gamma is not None:
                self.gens.append(i)
                gammas.append(gamma)
            # without a block, the coefficient gate decides every point before the matrix
            if block is not None and self.fixed is not None:
                try:
                    _add_stiffness(self.fixed, block, i, i)
                except CertificateError:  # every point the gate passes is infeasible
                    self.fixed = None
            hessian, damping, holds = _device_blocks(dev, theta, ops[i], self.omega0, phase)
            self.equilibrium = self.equilibrium and bool(holds)
            _add_device_block(self.energy, hessian, slices[i], i)
            self.R[slices[i], slices[i]] = damping
        self.certifiable, self.gammas = True, np.array(gammas)

    def _rows(self, stack):
        """The rows of the grid points in the list `stack`."""
        xd, xq = np.array(stack, dtype=float).T
        return [(*point, *verdicts) for point, verdicts in zip(stack, self.evaluate(xd, xq))]

    def evaluate(self, xd, xq):
        """(certificate verdict, eigenvalue verdict, min_eig) at each point (xd[k], xq[k]).

        Safe to run on several stacks at once from different threads: it reads
        the sweep's fields and writes only arrays it makes for its own stack,
        the copies of the fixed terms (`np.repeat`) included.
        """
        n = len(xd)
        out = [np.full(n, value, dtype=object) for value in ("infeasible", "infeasible", None)]
        if not self.certifiable:
            return list(zip(*out))
        # a closed form that overflows is left to the kernels, which reject its point
        with np.errstate(all="ignore"):
            # where the device can be built and has an internal phase; both verdicts stay
            # infeasible elsewhere
            points = np.flatnonzero(self.device.admits(X_d=xd, X_q=xq)
                                    & ~_capability(self.op, xq)[1])
            dev = self.device.with_reactances(xd[points], xq[points])
            phase = _phase(self.op, dev.X_q)  # the one internal phase of the stack's closed forms
            if points.size:
                gammas = _coefficient(self.op, dev.X_d, dev.X_q, phase)
                _settle(out, 0, self._certify, points, gammas, dev.X_d, dev.X_q, *phase)
            if self.equilibrium:
                hessians, dampings, holds = _device_blocks(dev, self.theta, self.op, self.omega0,
                                                           phase)
                dampings = np.broadcast_to(dampings, hessians.shape[:1] + dampings.shape[-2:])
                if holds.any():
                    _settle(out, 1, self._eigen, points[holds], hessians[holds], dampings[holds])
        return list(zip(*out))

    def _certify(self, out, points, gammas, xd, xq, *phase):
        G = np.repeat(self.gammas[None], len(points), axis=0)
        G[:, 0] = gammas
        verdicts = np.array(_gamma_gate(G, self.gens)[0], dtype=object)
        min_eigs = np.full(len(points), None, dtype=object)
        matrix = np.flatnonzero(np.equal(verdicts, None))  # what the condition matrix decides
        if matrix.size and self.fixed is None:  # another bus's stiffness is not finite
            verdicts[matrix] = "infeasible"
        elif matrix.size:
            M = np.repeat(self.fixed[None], matrix.size, axis=0)
            block = _stiffness_block(self.op, xd[matrix], xq[matrix], [t[matrix] for t in phase])
            _add_stiffness(M, block, self.bus, self.bus)
            lam = _deflated_eigh([M, self.Z])[0]
            verdicts[matrix], min_eigs[matrix] = _band(lam, "stable"), lam.tolist()
        out[0][points], out[2][points] = verdicts, min_eigs

    def _eigen(self, out, points, hessians, dampings):
        diagonal, xv, vv = self.energy
        blocks = [list(diagonal), *(np.repeat(b[None], len(points), axis=0) for b in (xv, vv))]
        _add_device_block(blocks, hessians, self.states, self.bus)
        R = np.repeat(self.R[None], len(points), axis=0)
        R[:, self.states, self.states] = dampings
        out[1][points] = _spectrum_verdicts(_spectra(R, _schur(blocks)[0]))[0]


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity
        return os.cpu_count() or 1


def _settle(out, column, evaluate, points, *stacks):
    """Run `evaluate(out, points, *stacks)`; where it raises, run each half of the stack again.

    A point that still raises on its own is infeasible in `column`.
    """
    try:
        evaluate(out, points, *stacks)
    except (CertificateError, DegenerateEquilibriumError, np.linalg.LinAlgError):
        if len(points) == 1:
            out[column][points[0]] = "infeasible"
            return
        half = len(points) // 2
        for part in (slice(None, half), slice(half, None)):
            _settle(out, column, evaluate, points[part], *(stack[part] for stack in stacks))


def _device_blocks(dev, theta, op, omega0, phase):
    """Energy Hessian and damping block of a device, or of a stack of devices, at its stationary
    state, and where that state passes `stationary_state`'s check; where it does,
    `assemble_energy_hessian`'s check passes too. `phase` is the device's `_phase` at `op`."""
    setpoint, state, holds, _ = dev._stationary(theta, op, omega0, phase)
    return dev.energy_hessian(state, theta, op.V, setpoint, omega0), dev.damping_block(omega0), holds
