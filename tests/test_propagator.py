import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from ctlsim.ctls import (
    Chirality,
    CouplingSet,
    DriveField,
    analytic_step_unitary,
    bright_state,
    constant_drive,
    signed_couplings,
    total_unitary,
    zero_drive,
)
from ctlsim.propagator import (
    _CHUNK,
    ProtocolStep,
    PulseEnvelope,
    PulseSchedule,
    ScheduleError,
    TimeGrid,
    apply_to_density,
    ideal_schedule,
    interaction_hamiltonian,
    propagate,
    pulse_area,
    run_protocol,
    step_couplings,
)

SHAPES = ("rectangular", "gaussian", "sin_squared")


def envelope(shape: str, area: float, duration: float = 1e-7) -> PulseEnvelope:
    """Envelope of the requested shape and exact area."""
    kwargs = {}
    if shape == "gaussian":
        kwargs = {"center": duration / 2.0, "width": duration / 8.0}
    unit = PulseEnvelope(shape=shape, peak=1.0, t_start=0.0, t_end=duration, **kwargs)
    return PulseEnvelope(
        shape=shape, peak=area / pulse_area(unit), t_start=0.0, t_end=duration, **kwargs
    )


def drive_13_only(env: PulseEnvelope, sign: float = 1.0) -> CouplingSet:
    return CouplingSet(
        drive_12=zero_drive((1, 2)),
        drive_23=zero_drive((2, 3)),
        drive_13=DriveField((1, 3), rabi=lambda t: sign * env(t)),
    )


def noncommuting_detuned_fields() -> CouplingSet:
    """Overlapping, detuned drives on all three transitions."""
    env_a = envelope("gaussian", 1.1)
    env_b = envelope("sin_squared", 0.8)
    return CouplingSet(
        drive_12=DriveField((1, 2), rabi=lambda t: env_a(t) * np.exp(1j * 3e7 * t)),
        drive_23=DriveField((2, 3), rabi=lambda t: 1j * env_b(t)),
        drive_13=DriveField((1, 3), rabi=lambda t: (2e6 - 1e6j) * np.exp(-1j * 5e7 * t)),
    )


def scalar_midpoint_propagate(
    fields: CouplingSet, window: tuple[float, float], steps: int
) -> np.ndarray:
    """Reference: one scalar Hamiltonian and one eigh per midpoint, in order."""
    t0, t1 = window
    dt = (t1 - t0) / steps
    u = np.eye(3, dtype=complex)
    for k in range(steps):
        h = interaction_hamiltonian(t0 + (k + 0.5) * dt, fields)
        eigenvalues, eigenvectors = np.linalg.eigh(h)
        u = (eigenvectors * np.exp(-1j * eigenvalues * dt)) @ eigenvectors.conj().T @ u
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def exact_13_pulse(area: float) -> np.ndarray:
    x13 = np.zeros((3, 3), dtype=complex)
    x13[0, 2] = x13[2, 0] = 1.0
    return expm(-1j * area * x13)


class TestPulseEnvelope:
    def test_zero_outside_window(self):
        env = PulseEnvelope("rectangular", peak=2.0, t_start=1.0, t_end=2.0)
        assert env(0.5) == 0.0
        assert env(2.5) == 0.0
        assert env(1.5) == 2.0

    def test_negative_peak_rejected(self):
        with pytest.raises(ValueError):
            PulseEnvelope("rectangular", peak=-1.0, t_start=0.0, t_end=1.0)

    def test_gaussian_requires_center_width(self):
        with pytest.raises(ValueError):
            PulseEnvelope("gaussian", peak=1.0, t_start=0.0, t_end=1.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            PulseEnvelope("triangle", peak=1.0, t_start=0.0, t_end=1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_array_call_matches_scalar_calls(self, shape):
        env = envelope(shape, 0.7)
        times = np.linspace(-0.5 * env.t_end, 1.5 * env.t_end, 101)
        values = env(times)
        assert values.shape == times.shape
        scalars = [env(float(t)) for t in times]
        assert all(isinstance(v, float) for v in scalars)
        assert np.abs(values - scalars).max() <= 1e-15 * env.peak
        outside = (times < env.t_start) | (times > env.t_end)
        assert outside.any() and (values[outside] == 0.0).all()
        assert (values[~outside] > 0.0).all()


class TestPulseArea:
    def test_rectangular(self):
        env = PulseEnvelope("rectangular", peak=3.0, t_start=0.0, t_end=0.5)
        assert pulse_area(env) == 1.5

    def test_rectangular_quarter_condition(self):
        env = PulseEnvelope(
            "rectangular", peak=np.pi / 4.0 / 1e-7, t_start=0.0, t_end=1e-7
        )
        assert pulse_area(env) == pytest.approx(np.pi / 4.0, rel=1e-12)

    def test_sin_squared_closed_form(self):
        # area = peak * duration / 2, quadrature against the closed form
        env = PulseEnvelope("sin_squared", peak=2.5, t_start=0.0, t_end=0.8)
        assert pulse_area(env) == pytest.approx(2.5 * 0.8 / 2.0, rel=1e-9)

    def test_gaussian_against_quad_reference(self):
        from scipy.integrate import quad

        env = PulseEnvelope(
            "gaussian", peak=1.7, t_start=0.0, t_end=1.0, center=0.5, width=0.1
        )
        reference, _ = quad(
            lambda t: 1.7 * np.exp(-((t - 0.5) ** 2) / (2 * 0.1**2)), 0.0, 1.0
        )
        assert pulse_area(env) == pytest.approx(reference, rel=1e-9)

    def test_off_center_gaussian_against_quad(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t_start, t_end = np.sort(rng.uniform(-1.0, 1.0, size=2))
            env = PulseEnvelope(
                "gaussian",
                peak=rng.uniform(0.1, 10.0),
                t_start=t_start,
                t_end=t_end,
                center=rng.uniform(t_start - 0.5, t_end + 0.5),
                width=rng.uniform(0.02, 1.0),
            )
            reference, _ = quad(env, t_start, t_end, epsabs=0.0, epsrel=1e-13, limit=200)
            assert pulse_area(env) == pytest.approx(reference, rel=1e-12)


class TestInteractionHamiltonian:
    def test_single_13_field(self):
        fields = drive_13_only(
            PulseEnvelope("rectangular", peak=0.4, t_start=0.0, t_end=1.0)
        )
        h = interaction_hamiltonian(0.5, fields)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 0.4
        assert np.abs(h - expected).max() < 1e-15

    def test_all_zero(self):
        fields = CouplingSet(zero_drive((1, 2)), zero_drive((2, 3)), zero_drive((1, 3)))
        assert np.abs(interaction_hamiltonian(0.0, fields)).max() == 0.0

    def test_step_b_bright_state_form(self):
        # the two step-B drives combine into W0(t) (|D><2| + h.c.)
        env = PulseEnvelope("rectangular", peak=1.3, t_start=0.0, t_end=1.0)
        step = ProtocolStep(label="B", envelope=env)
        h = interaction_hamiltonian(0.5, step_couplings(step))
        d = bright_state(Chirality.L)
        e2 = np.array([0.0, 1.0, 0.0])
        expected = 1.3 * (np.outer(d, e2.conj()) + np.outer(e2, d.conj()))
        assert np.abs(h - expected).max() < 1e-14

    def test_hermitian_with_detuning(self):
        fields = CouplingSet(
            drive_12=DriveField((1, 2), rabi=lambda t: (0.3 + 0.2j) * np.exp(1j * 2.0 * t)),
            drive_23=zero_drive((2, 3)),
            drive_13=zero_drive((1, 3)),
        )
        h = interaction_hamiltonian(0.7, fields)
        assert np.abs(h - h.conj().T).max() < 1e-15
        assert h[0, 1] == pytest.approx((0.3 + 0.2j) * np.exp(1j * 2.0 * 0.7))

    def test_array_times_match_stacked_scalar_calls(self):
        fields = noncommuting_detuned_fields()
        times = np.linspace(-1e-8, 1.1e-7, 37)
        stacked = interaction_hamiltonian(times, fields)
        assert stacked.shape == (37, 3, 3)
        expected = np.array([interaction_hamiltonian(float(t), fields) for t in times])
        assert np.abs(stacked - expected).max() <= 1e-15 * np.abs(expected).max()


class TestPropagate:
    def test_zero_hamiltonian_gives_identity(self):
        fields = CouplingSet(zero_drive((1, 2)), zero_drive((2, 3)), zero_drive((1, 3)))
        u = propagate(fields, (0.0, 1.0), TimeGrid(10))
        assert np.abs(u - np.eye(3)).max() < 1e-15

    def test_rectangular_quarter_pulse_single_step(self):
        # piecewise-constant drive is exact even for one step
        env = envelope("rectangular", np.pi / 4.0)
        u = propagate(drive_13_only(env), (0.0, env.t_end), TimeGrid(1))
        assert np.abs(u - exact_13_pulse(np.pi / 4.0)).max() < 1e-12

    def test_rectangular_matches_left_step_a(self):
        # the left-handed species sees the negated pump
        env = envelope("rectangular", np.pi / 4.0)
        fields = signed_couplings(drive_13_only(env), Chirality.L)
        u = propagate(fields, (0.0, env.t_end), TimeGrid(4))
        assert np.abs(u - analytic_step_unitary("A", Chirality.L)).max() < 1e-12

    @pytest.mark.parametrize("shape", SHAPES)
    def test_area_theorem_shape_independence(self, shape):
        env = envelope(shape, np.pi / 4.0)
        u = propagate(drive_13_only(env), (0.0, env.t_end), TimeGrid(4096))
        assert np.abs(u - exact_13_pulse(np.pi / 4.0)).max() < 1e-6

    def test_gaussian_quarter_pulse_high_resolution(self):
        env = envelope("gaussian", np.pi / 4.0)
        u = propagate(drive_13_only(env), (0.0, env.t_end), TimeGrid(8192))
        assert np.abs(u - exact_13_pulse(np.pi / 4.0)).max() < 1e-8

    @pytest.mark.parametrize("shape", SHAPES)
    def test_unitarity(self, shape):
        env = envelope(shape, 1.234)
        u = propagate(drive_13_only(env), (0.0, env.t_end), TimeGrid(512))
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10

    def test_composition(self):
        env = envelope("sin_squared", 0.9)
        fields = drive_13_only(env)
        full = propagate(fields, (0.0, env.t_end), TimeGrid(1024))
        mid = env.t_end / 2.0
        first = propagate(fields, (0.0, mid), TimeGrid(512))
        second = propagate(fields, (mid, env.t_end), TimeGrid(512))
        assert np.abs(second @ first - full).max() < 1e-10

    def test_second_order_convergence_noncommuting(self):
        # overlapping drives with different envelopes do not commute in time
        env_a = envelope("gaussian", 1.1, duration=1e-7)
        env_b = envelope("sin_squared", 0.8, duration=1e-7)
        fields = CouplingSet(
            drive_12=DriveField((1, 2), rabi=lambda t: env_a(t)),
            drive_23=DriveField((2, 3), rabi=lambda t: env_b(t)),
            drive_13=zero_drive((1, 3)),
        )
        window = (0.0, 1e-7)
        reference = propagate(fields, window, TimeGrid(16384))
        defects = [
            np.abs(propagate(fields, window, TimeGrid(n)) - reference).max()
            for n in (128, 256, 512)
        ]
        ratios = [defects[i] / defects[i + 1] for i in range(2)]
        assert all(3.5 < r < 4.5 for r in ratios)

    @pytest.mark.parametrize("steps", [1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_batched_matches_scalar_loop(self, steps):
        fields = noncommuting_detuned_fields()
        window = (0.0, 1e-7)
        u = propagate(fields, window, TimeGrid(steps))
        assert np.abs(u - scalar_midpoint_propagate(fields, window, steps)).max() < 1e-13

    def test_nonfinite_error_names_first_bad_time(self):
        fields = CouplingSet(
            drive_12=DriveField((1, 2), rabi=lambda t: np.where(t > 0.75, np.nan, 1.0)),
            drive_23=zero_drive((2, 3)),
            drive_13=zero_drive((1, 3)),
        )
        steps = 2 * _CHUNK + 8  # the first bad midpoint lies in the second chunk
        dt = 1.0 / steps
        first_bad = next(
            (k + 0.5) * dt for k in range(steps) if (k + 0.5) * dt > 0.75
        )
        with pytest.raises(ArithmeticError, match=re.escape(f"t = {first_bad}")):
            propagate(fields, (0.0, 1.0), TimeGrid(steps))

    def test_nonfinite_amplitude_raises(self):
        fields = CouplingSet(
            drive_12=constant_drive((1, 2), np.nan),
            drive_23=zero_drive((2, 3)),
            drive_13=zero_drive((1, 3)),
        )
        with pytest.raises(ArithmeticError):
            propagate(fields, (0.0, 1.0), TimeGrid(4))

    def test_bad_window_rejected(self):
        fields = drive_13_only(envelope("rectangular", 0.3))
        with pytest.raises(ValueError):
            propagate(fields, (1.0, 1.0), TimeGrid(4))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(0)


class TestSchedule:
    def test_ideal_schedule_areas(self):
        schedule = ideal_schedule()
        assert schedule.step_a.signed_area == pytest.approx(np.pi / 4.0, rel=1e-9)
        assert schedule.step_b.signed_area == pytest.approx(np.pi / 2.0, rel=1e-9)
        assert schedule.step_c.signed_area == pytest.approx(-np.pi / 4.0, rel=1e-9)

    def test_steps_ordered_and_disjoint(self):
        schedule = ideal_schedule()
        windows = [step.window for step in schedule.steps]
        assert windows[0][1] <= windows[1][0] <= windows[1][1] <= windows[2][0]

    def test_overlapping_steps_rejected(self):
        env = PulseEnvelope("rectangular", peak=1.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            PulseSchedule(
                ProtocolStep("A", env),
                ProtocolStep("B", env),
                ProtocolStep("C", env),
            )

    def test_wrong_area_rejected(self):
        schedule = ideal_schedule()
        bad_env = PulseEnvelope(
            "rectangular",
            peak=schedule.step_a.envelope.peak * 1.01,
            t_start=schedule.step_a.envelope.t_start,
            t_end=schedule.step_a.envelope.t_end,
        )
        bad = PulseSchedule(
            ProtocolStep("A", bad_env), schedule.step_b, schedule.step_c
        )
        with pytest.raises(ScheduleError):
            run_protocol(bad, Chirality.L)


def test_step_b_pointwise_amplitude_relation():
    # W23(t) = |W23(t)| = -i W12(t) = W0(t)/sqrt(2) across the window
    schedule = ideal_schedule(shape="sin_squared")
    step = schedule.step_b
    fields = step_couplings(step)
    for t in np.linspace(step.window[0], step.window[1], 9):
        w12 = fields.drive_12.rabi(t)
        w23 = fields.drive_23.rabi(t)
        assert w23 == abs(w23)
        assert -1j * w12 == pytest.approx(w23, abs=1e-15)
        assert w23 == pytest.approx(step.envelope(t) / np.sqrt(2.0), abs=1e-15)


class TestRunProtocol:
    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_rectangular_matches_analytic(self, chirality):
        u = run_protocol(ideal_schedule(), chirality, 2000)
        assert np.abs(u - total_unitary(chirality)).max() < 1e-8

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_all_shapes_match_analytic(self, shape, chirality):
        u = run_protocol(ideal_schedule(shape=shape), chirality, 4096)
        assert np.abs(u - total_unitary(chirality)).max() < 1e-6

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_unitary_to_roundoff_at_4096_steps(self, shape, chirality):
        # the final polar projection in propagate keeps this below 1e-12;
        # without it the protocol accumulates ~4e-12 of roundoff
        u = run_protocol(ideal_schedule(shape=shape), chirality, 4096)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("chirality", [Chirality.L, Chirality.R])
    def test_equivalent_step_c_area(self, chirality):
        # 3 pi/4 in place of -pi/4 leaves all final populations unchanged
        standard = run_protocol(ideal_schedule(), chirality, 2000)
        alternate = run_protocol(
            ideal_schedule(step_c_area=0.75 * np.pi), chirality, 2000
        )
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        pop_standard = np.diag(apply_to_density(standard, rho)).real
        pop_alternate = np.diag(apply_to_density(alternate, rho)).real
        assert pop_standard == pytest.approx(pop_alternate, abs=1e-8)


class TestApplyToDensity:
    def test_identity(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert np.abs(apply_to_density(np.eye(3), rho) - rho).max() == 0.0

    def test_left_unitary_swaps_23(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        out = apply_to_density(total_unitary(Chirality.L), rho)
        assert np.diag(out).real == pytest.approx([0.5, 0.2, 0.3], abs=1e-14)

    def test_right_unitary_swaps_12(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        out = apply_to_density(total_unitary(Chirality.R), rho)
        assert np.diag(out).real == pytest.approx([0.3, 0.5, 0.2], abs=1e-14)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            u = run_protocol(ideal_schedule(), Chirality.L, 256)
            out = apply_to_density(u, rho)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out) == pytest.approx(
                np.linalg.eigvalsh(rho), abs=1e-10
            )

    def test_non_unit_trace_rejected(self):
        with pytest.raises(ValueError):
            apply_to_density(np.eye(3), np.diag([0.5, 0.3, 0.1]))

    def test_non_hermitian_rejected(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho[0, 1] = 0.4
        with pytest.raises(ValueError):
            apply_to_density(np.eye(3), rho)
