"""The Baseline rows of the ROADMAP as per-layer entries.

Each row times one fixed piece of work on the bundled molecule, so its
count column (diagonalisation flops, midpoint steps, sweep points) repeats
exactly and later changes can cite it as a count.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from workloads import child_env

J_COLD = 188
PROTOCOL_STEPS = 2000
IMPORT_RUNS = 3


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that runs `import ctlsim.cli`."""
    times = []
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctlsim.cli"], check=True, env=child_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rows(workdir: Path, repeats: int = 1) -> list[dict]:
    """Time each row ``repeats`` times (median); cold rows clear their cache first."""
    import ctlsim.cli
    import ctlsim.propagator
    import ctlsim.rotor
    import ctlsim.scenario
    import ctlsim.transfer
    from ctlsim.ctls import Chirality

    scenario = ctlsim.scenario.parse_scenario(ctlsim.scenario.bundled_scenario_path())
    constants = scenario.constants
    config = ctlsim.scenario.to_ctls_config(scenario)
    sweep = scenario.sweep
    grid = ctlsim.transfer.default_sweep_grid(
        sweep.t_rot_min_k, sweep.t_rot_max_k, sweep.points, sweep.log_scale
    )
    t_vib = scenario.temperatures.t_vib_k

    def rotor_cold():
        ctlsim.rotor.block_energies.cache_clear()
        for j in range(J_COLD + 1):
            ctlsim.rotor.block_energies(j, constants)

    def protocol(shape):
        schedule = ctlsim.propagator.ideal_schedule(shape)

        def run():
            ctlsim.propagator._protocol_unitary.cache_clear()
            return ctlsim.propagator.run_protocol(schedule, Chirality.L, PROTOCOL_STEPS)

        return run

    def sweep_warm(name):
        fn = getattr(ctlsim.transfer, name)
        fn(config, grid, t_vib)  # fill the rotor cache: warm rows time the sums alone
        return lambda: getattr(ctlsim.transfer, name)(config, grid, t_vib)

    def cli_fig3():
        ctlsim.cli.main(["figure", "fig3", "--output", str(workdir / "fig3.csv")])

    steps = 3 * PROTOCOL_STEPS
    table = [
        ("rotor_cold_s", f"cold rotor spectra J <= {J_COLD}", rotor_cold,
         {"rotor.diag_flops": sum((2 * j + 1) ** 3 for j in range(J_COLD + 1))}),
        ("protocol_rect_s", f"`run_protocol`, {PROTOCOL_STEPS} steps per step, rectangular",
         protocol("rectangular"), {"propagator.steps": steps}),
        ("protocol_gauss_s", f"`run_protocol`, {PROTOCOL_STEPS} steps per step, gaussian",
         protocol("gaussian"), {"propagator.steps": steps}),
        ("yield_warm_s", f"warm `yield_sweep`, {len(grid)} points", sweep_warm("yield_sweep"),
         {"transfer.sweep_points": len(grid)}),
        ("excess_warm_s", f"warm `excess_sweep`, {len(grid)} points", sweep_warm("excess_sweep"),
         {"transfer.sweep_points": len(grid)}),
        ("cli_fig3_warm_s", "warm `ctlsim figure fig3`, in process", cli_fig3,
         {"transfer.sweep_points": 2 * len(grid)}),
    ]
    result = []
    for key, what, fn, counts in table:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            output = fn()
            times.append(time.perf_counter() - t0)
        row = {"key": key, "what": what, "seconds": statistics.median(times), "counts": counts}
        if key.startswith("protocol"):
            row["defect"] = float(np.abs(output - oracle.expected_unitary("L")).max())
        result.append(row)
    return result


def markdown(import_s: float, table: list[dict]) -> str:
    lines = ["| what | time | count |", "| --- | --- | --- |",
             f"| `import ctlsim.cli` (fresh interpreter) | {import_s:.3f} s | |"]
    for row in table:
        counts = ", ".join(f"`{k}` = {v}" for k, v in row["counts"].items())
        lines.append(f"| {row['what']} | {row['seconds']:.3f} s | {counts} |")
    return "\n".join(lines)
