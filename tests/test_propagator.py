import re
from dataclasses import replace

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
    _ordered_product,
    _protocol_unitary,
    _step_exponentials,
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


def constant_12(amp: float) -> CouplingSet:
    return CouplingSet(
        drive_12=constant_drive((1, 2), amp),
        drive_23=zero_drive((2, 3)),
        drive_13=zero_drive((1, 3)),
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

    @pytest.mark.parametrize("field", ["t_start", "t_end", "center", "width"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_field_rejected_by_name(self, field, value):
        fields = {"t_start": 0.0, "t_end": 1.0, "center": 0.5, "width": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PulseEnvelope("gaussian", peak=1.0, **fields)

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

    @pytest.mark.parametrize("count", [1, 2, 1024])
    def test_shapes_and_entry_major_memory(self, count):
        fields = noncommuting_detuned_fields()
        assert interaction_hamiltonian(0.5e-7, fields).shape == (3, 3)
        stacked = interaction_hamiltonian(np.linspace(0.0, 1e-7, count), fields)
        assert stacked.shape == (count, 3, 3)
        # each matrix entry is one contiguous vector over the times
        assert stacked.transpose(1, 2, 0).flags.c_contiguous


class TestOrderedProduct:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1023, 1024, 1025])
    def test_matches_left_fold(self, count):
        rng = np.random.default_rng(count)
        q, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3)))
        expected = np.eye(3, dtype=complex)
        for u in q:
            expected = u @ expected
        assert np.abs(_ordered_product(q) - expected).max() <= 1e-14


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

    @pytest.mark.parametrize("amp", [1e8, 1e20, 1e100, 1e160, 1e300])
    def test_step_beyond_phase_bound_raises(self, amp):
        # one step of phase bound sqrt(2) amp rad: beyond 2^26 rad the
        # kernel's roundoff passes the pulse-area tolerance, then it fails
        with pytest.raises(ArithmeticError, match=r"exceeds 2\*\*26 rad; use more steps"):
            propagate(constant_12(amp), (0.0, 1.0), TimeGrid(1))

    def test_step_within_phase_bound_runs(self):
        u = propagate(constant_12(1e7), (0.0, 1.0), TimeGrid(1))
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12

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

    @pytest.mark.parametrize("label", ["A", "B", "C"])
    def test_nan_area_rejected(self, label):
        # finite fields whose area overflows: (peak * width = inf) * (erf difference = 0)
        schedule = ideal_schedule()
        step = getattr(schedule, f"step_{label.lower()}")
        t_start, t_end = step.window
        env = PulseEnvelope(
            "gaussian", peak=1e300, t_start=t_start, t_end=t_end, center=1e30, width=1e10
        )
        assert np.isnan(pulse_area(env))
        bad = replace(schedule, **{f"step_{label.lower()}": replace(step, envelope=env)})
        with pytest.raises(ScheduleError, match=f"step {label} area"):
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


def zero_diagonal_hermitian(rng, count: int, scale: float) -> np.ndarray:
    """(count, 3, 3) stack of the form interaction_hamiltonian builds, max|h| = scale."""
    h = np.zeros((count, 3, 3), dtype=complex)
    for n, m in ((0, 1), (0, 2), (1, 2)):
        h[:, n, m] = rng.normal(size=count) + 1j * rng.normal(size=count)
    h = h + h.conj().swapaxes(1, 2)
    return h * (scale / np.abs(h).max(axis=(1, 2)))[:, None, None]


def assert_matches_expm(a: np.ndarray, exponentials: np.ndarray) -> None:
    """Each exp(-iA) of a stack to 1e-14 * max(1, |A|) of scipy's expm, with
    |A| the stack's largest spectral norm, and unitary as tightly.

    The largest step sets how often the whole stack is squared, and each
    squaring doubles the unitarity defect: it stays below 1e-14 up to
    |A| ~ 5 and reaches ~4e-14 at |A| = 20.
    """
    tol = 1e-14 * max(1.0, np.linalg.norm(a, 2, axis=(1, 2)).max())
    for matrix, e in zip(a, exponentials):
        assert np.abs(e - expm(-1j * matrix)).max() <= tol
        assert np.abs(e.conj().T @ e - np.eye(3)).max() <= tol


class TestStepExponentials:
    @pytest.mark.parametrize("scale", [1e-8, 1e-5, 5e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 20.0])
    def test_random_stacks_match_expm(self, scale):
        # above spectral radius 0.5 the chunk is scaled and squared
        a = zero_diagonal_hermitian(np.random.default_rng(int(1e3 * scale) + 17), 64, scale)
        dt = 2.5e-8
        h = a / dt  # rad/s, as propagate passes it
        assert_matches_expm(h * dt, _step_exponentials(h, dt))

    def test_mixed_magnitudes_in_one_chunk(self):
        # the chunk's largest step sets the squarings for all of its steps
        rng = np.random.default_rng(3)
        h = np.concatenate(
            [zero_diagonal_hermitian(rng, 16, scale) for scale in (1e-6, 1e-2, 0.7, 15.0)]
        )
        assert_matches_expm(h, _step_exponentials(h, 1.0))

    @pytest.mark.parametrize("scale", [1e-3, 3.0])
    def test_strided_view_matches_contiguous_copy(self, scale):
        rng = np.random.default_rng(5)
        every_other = zero_diagonal_hermitian(rng, 2 * 37, scale)[::2]
        entry_major = zero_diagonal_hermitian(rng, 37, scale).transpose(1, 2, 0).copy()
        for view in (every_other, entry_major.transpose(2, 0, 1)):
            assert not view.flags.c_contiguous
            copy = np.ascontiguousarray(view)
            assert (_step_exponentials(view, 0.7) == _step_exponentials(copy, 0.7)).all()

    def test_zero_hamiltonian_is_identity(self):
        e = _step_exponentials(np.zeros((5, 3, 3), dtype=complex), 1e-9)
        assert (e == np.eye(3)).all()

    @pytest.mark.parametrize("area", [0.0, 1e-12, 1e-6, 1e-3, 0.3, np.pi / 4.0, 1.75 * np.pi, 20.0])
    def test_single_transition(self, area):
        # eigenvalues +-a and 0: c0 = det A = 0, degenerate as a -> 0
        for n, m in ((0, 1), (0, 2), (1, 2)):
            h = np.zeros((1, 3, 3), dtype=complex)
            h[0, n, m] = area * np.exp(0.3j)
            h[0, m, n] = area * np.exp(-0.3j)
            assert_matches_expm(h, _step_exponentials(h, 1.0))

    @pytest.mark.parametrize("steps", [1, 7, 2000])
    def test_protocol_steps_unitary_to_1e_14(self, steps):
        # the steps propagate takes for the protocol: max|A| is 17.6 at one
        # gaussian step for step C = 7 pi/4, 2.5 at 7 and 0.01 at 2000
        for shape in SHAPES:
            for area in (-np.pi / 4.0, 0.75 * np.pi, 1.75 * np.pi):
                for step in ideal_schedule(shape, step_c_area=area).steps:
                    for chirality in (Chirality.L, Chirality.R):
                        fields = signed_couplings(step_couplings(step), chirality)
                        t0, t1 = step.window
                        dt = (t1 - t0) / steps
                        h = interaction_hamiltonian(t0 + (np.arange(steps) + 0.5) * dt, fields)
                        e = _step_exponentials(h, dt)
                        defect = np.abs(e.conj().swapaxes(1, 2) @ e - np.eye(3)).max()
                        assert defect <= 1e-14

    def test_run_protocol_never_calls_eigh(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        _protocol_unitary.cache_clear()
        for shape in SHAPES:
            for steps in (1, 7, 2000):
                u = run_protocol(ideal_schedule(shape=shape), Chirality.R, steps)
                assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12


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
        # without it the protocol accumulates ~3.1e-13 of roundoff
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
