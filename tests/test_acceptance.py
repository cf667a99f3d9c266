"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
for passing runs).
"""

import numpy as np
import pytest

from ctlsim.ctls import Chirality, step_unitaries, total_unitary
from ctlsim.propagator import ideal_schedule, run_protocol
from ctlsim.rotor import RotationalConstants, rotor_levels
from ctlsim.thermal import (
    Temperatures,
    ctls_populations,
    rotational_partition,
)
from ctlsim.transfer import (
    enantiomeric_excess,
    excess_sweep,
    final_states,
    yield_sweep,
)

from .conftest import PROPANEDIOL, build_config, paper_grid

CHIRALITIES = (Chirality.L, Chirality.R)


def check(criterion: int, description: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {criterion}: {description}")
    assert not failures, f"criterion {criterion}: {failures}"


def test_criterion_1_composite_unitaries():
    failures = []
    schedule = ideal_schedule()
    for chirality in CHIRALITIES:
        u_a, u_b, u_c = step_unitaries(chirality)
        product = u_c @ u_b @ u_a
        analytic_defect = np.abs(product - total_unitary(chirality)).max()
        if analytic_defect >= 1e-12:
            failures.append(f"analytic product defect {analytic_defect} ({chirality})")
        numeric = run_protocol(schedule, chirality, 2000)
        numeric_defect = np.abs(numeric - total_unitary(chirality)).max()
        if numeric_defect >= 1e-8:
            failures.append(f"numeric defect {numeric_defect} ({chirality})")
    check(1, "composite unitaries, analytic < 1e-12 and numeric < 1e-8", failures)


def test_criterion_2_population_exchange():
    failures = []
    p = np.array([1.0, 0.0, 0.0])
    rho_left, rho_right = final_states(p, method="numeric")
    occupations_left = np.diag(rho_left).real
    occupations_right = np.diag(rho_right).real
    if np.abs(occupations_left - [1.0, 0.0, 0.0]).max() >= 1e-8:
        failures.append(f"left occupations {occupations_left}")
    if np.abs(occupations_right - [0.0, 1.0, 0.0]).max() >= 1e-8:
        failures.append(f"right occupations {occupations_right}")
    check(2, "ground state: L stays in |1>, R transfers to |2> (1e-8)", failures)


def test_criterion_3_rovibrational_excess_near_one():
    failures = []
    config = build_config("ro_vibrational")
    for t_rot in (0.1, 1.0, 10.0, 100.0, 300.0):
        eps = enantiomeric_excess(
            ctls_populations(config.levels, Temperatures(t_rot, 300.0))
        )
        if eps < 0.9999:
            failures.append(f"eps({t_rot} K) = {eps}")
    check(3, "ro-vibrational excess >= 0.9999 over 0.1..300 K", failures)


def test_criterion_4_rotational_excess_curve():
    failures = []
    config = build_config("purely_rotational")
    eps_10 = enantiomeric_excess(
        ctls_populations(config.levels, Temperatures(10.0, 300.0))
    )
    if not 0.015 <= eps_10 <= 0.030:
        failures.append(f"eps(10 K) = {eps_10} outside [0.015, 0.030]")
    grid = paper_grid()
    eps = excess_sweep(config, grid, 300.0)
    above = grid >= 0.01
    if not np.all(np.diff(eps[above]) <= 0.0):
        failures.append("excess not monotonically decreasing for T >= 0.01 K")
    if eps[0] < 0.999:  # coldest grid point, 1 mK
        failures.append(f"eps({grid[0]} K) = {eps[0]} does not approach 1")
    check(4, "purely rotational excess: window at 10 K, monotone, -> 1", failures)


def test_criterion_5_rotational_populations():
    failures = []
    config = build_config("purely_rotational")
    values = ctls_populations(config.levels, Temperatures(10.0, 300.0))
    if not np.all((values >= 0.30) & (values <= 0.36)):
        failures.append(f"populations at 10 K {values} outside [0.30, 0.36]")
    if abs(values.sum() - 1.0) > 1e-12:
        failures.append(f"populations at 10 K sum to {values.sum()}")
    p_300 = ctls_populations(config.levels, Temperatures(300.0, 300.0))
    if not np.all(np.abs(p_300 - 0.334) <= 0.002):
        failures.append(f"populations at 300 K {p_300} outside 0.334 +- 0.002")
    check(5, "purely rotational populations at 10 K and 300 K", failures)


def test_criterion_6_manifold_proportions():
    failures = []
    config = build_config("ro_vibrational")
    table = yield_sweep(config, [0.01, 10.0], 300.0)
    p1_cold, p1_warm = table[0, 0], table[1, 0]
    if not 5e-4 <= p1_warm <= 3e-3:
        failures.append(f"P1(10 K) = {p1_warm} outside [5e-4, 3e-3]")
    if table[1, 3] != p1_warm / 2.0:
        failures.append("eta differs from P1 / 2")
    if not p1_cold > 0.99:
        failures.append(f"P1(0.01 K) = {p1_cold} <= 0.99")
    check(6, "manifold share: P1 windows and eta = P1/2 exactly", failures)


def test_criterion_7_rotor_oracle():
    failures = []
    levels = rotor_levels(1, PROPANEDIOL)
    frozen = [6.4241, 11.3131, 12.1598]
    for level, expected in zip(levels, frozen):
        if abs(level.energy_ghz - expected) >= 1e-9:
            failures.append(f"propanediol J=1 {level.energy_ghz} vs {expected}")
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a, b, c = np.sort(rng.uniform(0.05, 40.0, size=3))[::-1]
        constants = RotationalConstants(A=a, B=b, C=c)
        energies = [lv.energy_ghz for lv in rotor_levels(1, constants)]
        closed = [b + c, a + c, a + b]
        worst = max(abs(e - x) for e, x in zip(energies, closed))
        if worst >= 1e-9:
            failures.append(f"J=1 closed forms off by {worst} for {constants}")
    check(7, "J=1 energies equal {B+C, A+C, A+B} to 1e-9 GHz", failures)


def test_criterion_8_property_suite():
    failures = []

    # unitarity of every propagated schedule
    for shape in ("rectangular", "gaussian", "sin_squared"):
        schedule = ideal_schedule(shape=shape)
        for chirality in CHIRALITIES:
            u = run_protocol(schedule, chirality, 2000)
            defect = np.abs(u.conj().T @ u - np.eye(3)).max()
            if defect >= 1e-10:
                failures.append(f"unitarity defect {defect} ({shape}, {chirality})")

    # density-matrix conservation under the protocol
    rng = np.random.default_rng(5)
    u = run_protocol(ideal_schedule(), Chirality.R, 2000)
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        out = u @ rho @ u.conj().T
        if abs(np.trace(out) - 1.0) >= 1e-12:
            failures.append(f"trace drift {abs(np.trace(out) - 1.0)}")
        if np.abs(out - out.conj().T).max() >= 1e-12:
            failures.append("Hermiticity lost")

    # envelope-shape independence at fixed areas
    reference = {c: total_unitary(c) for c in CHIRALITIES}
    for shape in ("rectangular", "gaussian", "sin_squared"):
        schedule = ideal_schedule(shape=shape)
        for chirality in CHIRALITIES:
            u = run_protocol(schedule, chirality, 4096)
            defect = np.abs(u - reference[chirality]).max()
            if defect >= 1e-6:
                failures.append(f"shape dependence {defect} ({shape}, {chirality})")

    # second-order convergence on smooth envelopes
    from ctlsim.ctls import CouplingSet
    from ctlsim.propagator import PulseEnvelope, TimeGrid, propagate, pulse_area

    env_a = PulseEnvelope("gaussian", peak=1.0, t_start=0.0, t_end=1e-7)
    env_a = PulseEnvelope("gaussian", peak=1.1 / pulse_area(env_a), t_start=0.0, t_end=1e-7)
    env_b = PulseEnvelope("sin_squared", peak=0.8 / (0.5e-7), t_start=0.0, t_end=1e-7)
    fields = CouplingSet(drive_12=env_a, drive_23=env_b)
    reference_u = propagate(fields, (0.0, 1e-7), TimeGrid(16384))
    defects = [
        np.abs(propagate(fields, (0.0, 1e-7), TimeGrid(n)) - reference_u).max()
        for n in (128, 256, 512)
    ]
    for coarse, fine in zip(defects, defects[1:]):
        ratio = coarse / fine
        if not 3.5 <= ratio <= 4.5:
            failures.append(f"convergence ratio {ratio} outside [3.5, 4.5]")

    check(8, "unitarity, density conservation, shape independence, order 2", failures)


def test_criterion_9_partition_self_consistency():
    failures = []
    loose = rotational_partition(PROPANEDIOL, 300.0, rel_tol=1e-6)
    tight = rotational_partition(PROPANEDIOL, 300.0, rel_tol=1e-8)
    relative = abs(tight - loose) / tight
    if relative >= 1e-5:
        failures.append(f"relative change {relative} >= 1e-5")
    check(9, "partition sum stable under rel_tol 1e-6 -> 1e-8 at 300 K", failures)
