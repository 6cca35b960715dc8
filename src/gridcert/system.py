"""Network plus per-bus devices, and equilibria tying them to a power flow."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import OMEGA0_DEFAULT, OperatingPoint
from .network import Network, power_balance

__all__ = ["PowerSystem", "Equilibrium"]


class PowerSystem:
    """A lossless network with one device per bus and a common nominal frequency."""

    def __init__(self, net: Network, devices, omega0=OMEGA0_DEFAULT):
        devices = tuple(devices)
        if len(devices) != net.n_bus:
            raise ValueError(f"need one device per bus: {net.n_bus} buses, {len(devices)} devices")
        if not omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {omega0}")
        self.net = net
        self.devices = devices
        self.omega0 = float(omega0)

    @property
    def n_bus(self):
        return self.net.n_bus

    @property
    def n_states(self):
        return sum(d.n_states for d in self.devices)

    def state_slices(self):
        """Per-bus slices into the concatenated device state vector."""
        slices = []
        start = 0
        for d in self.devices:
            slices.append(slice(start, start + d.n_states))
            start += d.n_states
        return tuple(slices)

    def operating_point(self, flow, i):
        return OperatingPoint(V=float(flow.V[i]), P=float(flow.P[i]), Q=float(flow.Q[i]))

    def equilibrium(self, flow):
        """Setpoints and stationary device states realizing a solved power flow."""
        points = [dev.stationary_point(float(flow.theta[i]), self.operating_point(flow, i), self.omega0)
                  for i, dev in enumerate(self.devices)]
        setpoints, states = zip(*points)
        return Equilibrium(system=self, flow=flow, setpoints=setpoints, states=states)

    def balance_residual(self, flow):
        """Infinity norm of the power-balance mismatch of a claimed flow."""
        P, Q = power_balance(flow.theta, flow.V, self.net)
        return float(max(np.max(np.abs(P - flow.P)), np.max(np.abs(Q - flow.Q))))


@dataclass(frozen=True)
class Equilibrium:
    """A stationary point of the full differential-algebraic system."""

    system: PowerSystem
    flow: object
    setpoints: tuple
    states: tuple

    def x(self):
        """Concatenated device states, buses in order."""
        return np.concatenate([np.zeros(0), *self.states])

    def v(self):
        """Bus variables interleaved as (theta_1, V_1, ..., theta_N, V_N)."""
        v = np.empty(2 * self.system.n_bus)
        v[0::2] = self.flow.theta
        v[1::2] = self.flow.V
        return v
