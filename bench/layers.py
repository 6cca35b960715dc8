"""Per-layer metrics computed from the tracer's spans.

Names take the form ``<module>.<function>.<stat>``: ``calls`` is a count,
``s`` the inclusive seconds per pass over the workload's commands and
``self_s`` the inclusive seconds minus those of child spans on the same
thread. Each is a median over the traced passes of a run; ``p50_s`` and ``p99_s`` pool the
per-call durations of all of them and interpolate between observed
durations, so with few calls ``p99_s`` lies near the slowest one. Device metrics sum the four device
classes. A metric whose functions the program no longer has is reported
as 0 and listed as absent.
"""

from __future__ import annotations

import statistics

from tracer import aggregate

DEVICE_CLASSES = ("TwoAxisGenerator", "VsgInverter", "DroopInverter", "ConstantPowerLoad")


def _device(method):
    return tuple(f"{cls}.{method}" for cls in DEVICE_CLASSES)


#: metric prefix -> span names whose statistics it sums
SPANS = {
    "config.load_config": ("load_config",),
    "network.solve_power_flow": ("solve_power_flow",),
    "network.power_balance": ("power_balance",),
    "network.power_flow_jacobian": ("power_flow_jacobian",),
    "system.equilibrium": ("PowerSystem.equilibrium",),
    "system.balance_residual": ("PowerSystem.balance_residual",),
    "devices.energy_hessian": _device("energy_hessian"),
    "devices.energy_gradient": _device("energy_gradient"),
    "devices.state_derivative": _device("state_derivative"),
    "devices.output_power": _device("output_power"),
    "devices.energy": _device("energy"),
    "certificate.certify": ("certify",),
    "certificate.network_hessian": ("network_hessian",),
    "certificate.deflated_min_eig": ("deflated_min_eig",),
    "linearization.eigenvalue_verdict": ("eigenvalue_verdict",),
    "linearization.assemble_energy_hessian": ("assemble_energy_hessian",),
    "linearization.kron_reduce": ("kron_reduce",),
    "linearization.damping_matrix": ("damping_matrix",),
    "simulation.simulate": ("simulate",),
    "simulation.solve_bus_voltages": ("solve_bus_voltages",),
    "simulation.bregman_storage": ("bregman_storage",),
    "simulation.algebraic_residual": ("algebraic_residual",),
    "cli.main": ("main",),
}

PER_LAYER = [
    ("config.load_config.s", "s"),
    ("network.solve_power_flow.calls", "count"),
    ("network.solve_power_flow.s", "s"),
    ("network.solve_power_flow.iterations", "count"),
    ("network.power_balance.calls", "count"),
    ("network.power_flow_jacobian.calls", "count"),
    ("network.power_flow_jacobian.s", "s"),
    ("system.equilibrium.calls", "count"),
    ("system.equilibrium.s", "s"),
    ("system.balance_residual.calls", "count"),
    ("system.balance_residual.s", "s"),
    ("devices.energy_hessian.calls", "count"),
    ("devices.energy_gradient.calls", "count"),
    ("devices.state_derivative.calls", "count"),
    ("devices.output_power.calls", "count"),
    ("devices.energy.calls", "count"),
    ("devices.self_s", "s"),
    ("certificate.certify.calls", "count"),
    ("certificate.certify.s", "s"),
    ("certificate.certify.self_s", "s"),
    ("certificate.certify.p50_s", "s"),
    ("certificate.certify.p99_s", "s"),
    ("certificate.network_hessian.calls", "count"),
    ("certificate.network_hessian.s", "s"),
    ("certificate.deflated_min_eig.calls", "count"),
    ("certificate.deflated_min_eig.s", "s"),
    ("certificate.dense_frac", "ratio"),
    ("linearization.eigenvalue_verdict.calls", "count"),
    ("linearization.eigenvalue_verdict.s", "s"),
    ("linearization.eigenvalue_verdict.self_s", "s"),
    ("linearization.eigenvalue_verdict.p50_s", "s"),
    ("linearization.eigenvalue_verdict.p99_s", "s"),
    ("linearization.assemble_energy_hessian.s", "s"),
    ("linearization.kron_reduce.s", "s"),
    ("linearization.damping_matrix.s", "s"),
    ("simulation.simulate.s", "s"),
    ("simulation.solve_bus_voltages.calls", "count"),
    ("simulation.solve_bus_voltages.s", "s"),
    ("simulation.voltage_hessian.builds", "count"),
    ("simulation.newton_per_solve", "ratio"),
    ("simulation.bregman_storage.calls", "count"),
    ("simulation.bregman_storage.s", "s"),
    ("simulation.algebraic_residual.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
]

ITERATIONS = "network.solve_power_flow.iterations"
BUILDS = "simulation.voltage_hessian.builds"

#: span name -> counters taken from the returned value
RESULT_HOOKS = {"solve_power_flow": lambda flow: {ITERATIONS: flow.iterations}}


def pass_metrics(spans, counters, output_bytes, durations):
    """Counts and seconds of one traced pass; appends per-call durations to `durations`."""
    stats, site_calls = aggregate(spans)
    values = {}
    for prefix, names in SPANS.items():
        found = [stats[n] for n in names if n in stats]
        values[f"{prefix}.calls"] = sum(st["calls"] for st in found)
        values[f"{prefix}.s"] = sum(st["s"] for st in found)
        values[f"{prefix}.self_s"] = sum(st["self_s"] for st in found)
        pooled = durations.setdefault(prefix, [])
        for st in found:
            pooled.extend(st["durations"])
    values["devices.self_s"] = sum(st["self_s"] for name, st in stats.items()
                                   if name.split(".")[0] in DEVICE_CLASSES)
    values[ITERATIONS] = counters.get(ITERATIONS, 0)
    values[BUILDS] = site_calls.get(("network_hessian", "simulation"), 0)
    values["cli.output_bytes"] = output_bytes
    return values


def _ratio(a, b):
    return a / b if b else 0.0


def _absent(name, tracer):
    if name == "devices.self_s":
        return not any(n.split(".")[0] in DEVICE_CLASSES for n in tracer.installed)
    if name == BUILDS:
        return ("network_hessian", "simulation") not in tracer.sites
    if name in ("certificate.dense_frac", "simulation.newton_per_solve", "cli.output_bytes",
                "trace.overhead_frac"):
        return False
    prefix = name.rsplit(".", 1)[0]
    return not any(n in tracer.installed for n in SPANS.get(prefix, ()))


def summarize(per_pass, durations, tracer, plain, traced):
    """Per-layer metrics of a traced run, and the lines that print them with their counts."""
    med = {key: statistics.median(c[key] for c in per_pass) for key in per_pass[0]}
    certify_calls = med["certificate.certify.calls"]
    dense_calls = med["certificate.deflated_min_eig.calls"]
    solves = med["simulation.solve_bus_voltages.calls"]
    derived = {
        "certificate.dense_frac": _ratio(dense_calls, certify_calls),
        "simulation.newton_per_solve": _ratio(med[BUILDS], solves),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    }
    metrics, lines, absent = {}, [], []
    for name, unit in PER_LAYER:
        prefix, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif stat in ("p50_s", "p99_s"):
            pooled = durations.get(prefix, [])
            q = 50 if stat == "p50_s" else 99
            if len(pooled) > 1:
                value = statistics.quantiles(pooled, n=100, method="inclusive")[q - 1]
            else:
                value = pooled[0] if pooled else 0.0
        else:
            value = med[name]
        if _absent(name, tracer):
            absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<44} {value:.6g} {unit}")
    lines.append(f"# certificate.dense_frac = {dense_calls:g} deflated_min_eig / "
                 f"{certify_calls:g} certify calls")
    lines.append(f"# simulation.newton_per_solve = {med[BUILDS]:g} builds / {solves:g} solves")
    lines.append(f"# traced passes {len(traced)}, untraced {len(plain)}; "
                 f"median wall {statistics.median(traced):.6g} s traced, "
                 f"{statistics.median(plain):.6g} s untraced")
    lines.append(f"# absent {absent}")
    return metrics, lines
