import math
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from ctlsim import propagator
from ctlsim.ctls import (
    _SQ2,
    Chirality,
    CouplingSet,
    _pulse_13,
    _signed_13,
    signed_couplings,
    step_unitaries,
    total_unitary,
)
from ctlsim.propagator import (
    _AREA_TOL,
    _CHUNK,
    _drive_rows,
    _ordered_product,
    _protocol_unitary,
    _step_exponentials,
    _Workspace,
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

from .conftest import bright_state

SHAPES = ("rectangular", "gaussian", "sin_squared")
# step C areas congruent to -pi/4 mod pi, as the pulses benchmark draws them
STEP_C_AREAS = (-np.pi / 4.0, 0.75 * np.pi, 1.75 * np.pi)


def envelope(shape: str, area: float, duration: float = 1e-7) -> PulseEnvelope:
    """Envelope of the requested shape and exact area."""
    unit = PulseEnvelope(shape=shape, peak=1.0, t_start=0.0, t_end=duration)
    return PulseEnvelope(shape=shape, peak=area / pulse_area(unit), t_start=0.0, t_end=duration)


def drive_13_only(env: PulseEnvelope, sign: float = 1.0) -> CouplingSet:
    return CouplingSet(drive_13=lambda t: sign * env(t))


def constant_12(amp: float) -> CouplingSet:
    return CouplingSet(drive_12=lambda t: amp)


def noncommuting_detuned_fields() -> CouplingSet:
    """Overlapping, detuned drives on all three transitions."""
    env_a = envelope("gaussian", 1.1)
    env_b = envelope("sin_squared", 0.8)
    return CouplingSet(
        drive_12=lambda t: env_a(t) * np.exp(1j * 3e7 * t),
        drive_23=lambda t: 1j * env_b(t),
        drive_13=lambda t: (2e6 - 1e6j) * np.exp(-1j * 5e7 * t),
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

    @pytest.mark.parametrize("shape", SHAPES)
    def test_negative_peak_is_the_flipped_pulse(self, shape):
        # the sign of the peak flips the pulse's phase by pi: values and
        # area are those of the positive pulse, negated
        positive = envelope(shape, 0.7)
        negative = replace(positive, peak=-positive.peak)
        times = np.linspace(0.0, positive.t_end, 33)[1:-1]
        assert (negative(times) < 0.0).all()
        assert (negative(times) == -positive(times)).all()
        assert pulse_area(negative) == -pulse_area(positive) < 0.0

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            PulseEnvelope("triangle", peak=1.0, t_start=0.0, t_end=1.0)

    @pytest.mark.parametrize("field", ["peak", "t_start", "t_end"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_field_rejected_by_name(self, field, value):
        fields = {"peak": 1.0, "t_start": 0.0, "t_end": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PulseEnvelope("gaussian", **fields)

    @pytest.mark.parametrize("t_end", [1.0, 0.5], ids=["empty", "reversed"])
    def test_window_without_duration_rejected(self, t_end):
        with pytest.raises(ValueError, match=r"^window must satisfy t_end > t_start, got \[1.0, "):
            PulseEnvelope("rectangular", peak=1.0, t_start=1.0, t_end=t_end)

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
        # centred in the window, sigma = duration/8
        env = PulseEnvelope("gaussian", peak=1.7, t_start=0.0, t_end=1.0)
        reference, _ = quad(
            lambda t: 1.7 * np.exp(-((t - 0.5) ** 2) / (2 * 0.125**2)), 0.0, 1.0
        )
        assert pulse_area(env) == pytest.approx(reference, rel=1e-9)

    def test_centred_gaussian_against_quad_on_random_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t_start, t_end = np.sort(rng.uniform(-1.0, 1.0, size=2))
            peak = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            env = PulseEnvelope("gaussian", peak=peak, t_start=t_start, t_end=t_end)
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
        fields = CouplingSet()
        assert np.abs(interaction_hamiltonian(0.0, fields)).max() == 0.0

    def test_step_b_bright_state_form(self):
        # the two step-B drives combine into W0(t) (|D><2| + h.c.)
        env = PulseEnvelope("rectangular", peak=1.3, t_start=0.0, t_end=1.0)
        step_a = PulseEnvelope("rectangular", peak=1.0, t_start=-2.0, t_end=-1.0)
        step_c = PulseEnvelope("rectangular", peak=1.0, t_start=2.0, t_end=3.0)
        _, fields, _ = step_couplings(PulseSchedule(step_a, env, step_c))
        h = interaction_hamiltonian(0.5, fields)
        d = bright_state()
        e2 = np.array([0.0, 1.0, 0.0])
        expected = 1.3 * (np.outer(d, e2.conj()) + np.outer(e2, d.conj()))
        assert np.abs(h - expected).max() < 1e-14

    def test_hermitian_with_detuning(self):
        fields = CouplingSet(drive_12=lambda t: (0.3 + 0.2j) * np.exp(1j * 2.0 * t))
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

    @pytest.mark.parametrize("t", [0.5e-7, np.linspace(-1e-8, 1.1e-7, 37)], ids=["scalar", "array"])
    def test_expands_the_drive_rows(self, t):
        # rows above the diagonal, their conjugates below, zeros on it; the
        # (1,2) drive is a constant amplitude, which returns a scalar
        base = noncommuting_detuned_fields()
        fields = replace(base, drive_12=lambda t: 0.3 - 0.2j)
        rows = _drive_rows(t, fields)
        h = interaction_hamiltonian(t, fields)
        assert rows.shape == (3,) + np.shape(t)
        assert h.shape == np.shape(t) + (3, 3)
        assert (rows[0] == 0.3 - 0.2j).all()
        assert (rows[1] == base.drive_13(np.asarray(t))).all()
        assert (rows[2] == base.drive_23(np.asarray(t))).all()
        for row, (i, j) in zip(rows, ((0, 1), (0, 2), (1, 2))):
            assert (h[..., i, j] == row).all()
            assert (h[..., j, i] == row.conj()).all()
        for i in range(3):
            assert (h[..., i, i] == 0.0).all()


def in_workspace(kernel, stack: np.ndarray, *args) -> np.ndarray:
    """A chunk kernel on an entry-major stack of w windows of n steps, (3, w, n)
    drive rows or (3, 3, w, n) matrices, in a workspace of that size: its
    entry-major result seen step-major, (w, n, 3, 3) or (w, 3, 3)."""
    result = kernel(stack, *args, _Workspace(*stack.shape[-2:]))
    return np.moveaxis(result, (0, 1), (-2, -1))


class TestOrderedProduct:
    # odd levels carry their last step up unpaired at 3, 5, 1023 and 1025
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 1023, 1024, 1025])
    def test_matches_left_fold(self, count):
        # one window, and three with their own unitaries, each folded alone
        rng = np.random.default_rng(count)
        for windows in (1, 3):
            size = (windows, count, 3, 3)
            q, _ = np.linalg.qr(rng.normal(size=size) + 1j * rng.normal(size=size))
            products = in_workspace(_ordered_product, np.moveaxis(q, (2, 3), (0, 1)).copy())
            assert products.shape == (windows, 3, 3)
            for window, product in zip(q, products):
                expected = np.eye(3, dtype=complex)
                for u in window:
                    expected = u @ expected
                assert np.abs(product - expected).max() <= 1e-14


class TestPropagate:
    def test_zero_hamiltonian_gives_identity(self):
        # an absent drive is zero: no drive at all propagates to the identity exactly
        u = propagate(CouplingSet(), (0.0, 1.0), TimeGrid(10))
        assert (u == np.eye(3)).all()

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
        assert np.abs(u - step_unitaries(Chirality.L)[0]).max() < 1e-12

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
        fields = CouplingSet(drive_12=env_a, drive_23=env_b)
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
        fields = CouplingSet(drive_12=lambda t: np.where(t > 0.75, np.nan, 1.0))
        steps = 2 * _CHUNK + 8  # the first bad midpoint lies in the second chunk
        dt = 1.0 / steps
        first_bad = next(
            (k + 0.5) * dt for k in range(steps) if (k + 0.5) * dt > 0.75
        )
        with pytest.raises(ArithmeticError, match=re.escape(f"t = {first_bad}")):
            propagate(fields, (0.0, 1.0), TimeGrid(steps))

    def test_nonfinite_amplitude_raises(self):
        with pytest.raises(ArithmeticError):
            propagate(constant_12(np.nan), (0.0, 1.0), TimeGrid(4))

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
        assert pulse_area(schedule.step_a) == pytest.approx(np.pi / 4.0, rel=1e-9)
        assert pulse_area(schedule.step_b) == pytest.approx(np.pi / 2.0, rel=1e-9)
        assert pulse_area(schedule.step_c) == pytest.approx(-np.pi / 4.0, rel=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_step_c_peak_carries_the_sign_of_its_area(self, shape):
        # -pi/4 is the pi-flipped quarter pulse; 3 pi/4 needs no flip
        for area, sign in ((-np.pi / 4.0, -1.0), (0.75 * np.pi, 1.0)):
            schedule = ideal_schedule(shape, step_c_area=area)
            assert np.sign(schedule.step_c.peak) == sign
            assert schedule.step_a.peak > 0.0 and schedule.step_b.peak > 0.0
            assert pulse_area(schedule.step_c) == pytest.approx(area, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"peak": np.nan}, "peak"),
            ({"peak": np.inf}, "peak"),
            ({"peak": 0.0}, "peak"),
            ({"peak": -1.0}, "peak"),
            ({"gap": np.nan}, "gap"),
            ({"gap": np.inf}, "gap"),
            ({"gap": -1e-9}, "gap"),
            ({"step_c_area": np.nan}, "step_c_area"),
            ({"step_c_area": np.inf}, "step_c_area"),
            ({"step_c_area": -np.inf}, "step_c_area"),
            ({"step_c_area": 0.0}, "step_c_area"),
            ({"t_start": np.nan}, "t_start"),
            ({"t_start": np.inf}, "t_start"),
        ],
    )
    def test_bad_argument_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ideal_schedule(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, names",
        [
            ({"peak": 1e-310}, ["peak"]),
            ({"peak": 1e300, "t_start": 1.0}, ["t_start", "peak"]),
            ({"step_c_area": 1e-320}, ["peak", "step_c_area"]),
            ({"t_start": 1.7e308}, ["t_start", "peak"]),
            ({"shape": "gaussian", "peak": 1.7e308}, ["peak"]),
            ({"peak": 1.7e308, "gap": 0.0, "step_c_area": 1e-15}, ["peak", "step_c_area"]),
        ],
        ids=[
            "tiny-peak", "huge-peak", "tiny-step_c_area", "huge-t_start",
            "huge-gaussian-peak", "subnormal-step_c",
        ],
    )
    def test_degenerate_step_names_its_arguments(self, kwargs, names):
        # finite arguments that give a step a duration that is not a finite
        # float > 0 (the first and third), an end that rounds onto its start,
        # or an envelope peak that overflows: the gaussian's area factor
        # needs about 1.6 x `peak`, and a subnormal step C duration loses
        # the digits that kept its peak near `peak`
        with pytest.raises(ValueError) as info:
            ideal_schedule(**kwargs)
        assert re.findall(r"(\w+) = ", str(info.value)) == names

    def test_steps_ordered_and_disjoint(self):
        schedule = ideal_schedule()
        windows = [(step.t_start, step.t_end) for step in schedule.steps]
        assert windows[0][1] <= windows[1][0] <= windows[1][1] <= windows[2][0]

    def test_overlapping_steps_rejected(self):
        env = PulseEnvelope("rectangular", peak=1.0, t_start=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            PulseSchedule(env, env, env)

    def test_wrong_area_rejected(self):
        schedule = ideal_schedule()
        bad_env = PulseEnvelope(
            "rectangular",
            peak=schedule.step_a.peak * 1.01,
            t_start=schedule.step_a.t_start,
            t_end=schedule.step_a.t_end,
        )
        bad = PulseSchedule(bad_env, schedule.step_b, schedule.step_c)
        with pytest.raises(ScheduleError):
            run_protocol(bad, Chirality.L)

    @pytest.mark.parametrize(
        "label, target",
        [("A", np.pi / 4.0), ("B", np.pi / 2.0)]
        + [("C", (k + 0.75) * np.pi) for k in (-1, 0, 1, -2)],
        ids=["A", "B", "C-k-1", "C-k0", "C-k1", "C-k-2"],
    )
    @pytest.mark.parametrize(
        "offset", [-2.0, 2.0, -0.5, 0.5], ids=["-2tol", "+2tol", "-tol/2", "+tol/2"]
    )
    def test_area_bound(self, label, target, offset):
        # areas off by 2 _AREA_TOL are rejected, by _AREA_TOL/2 accepted
        index = "ABC".index(label)
        steps = list(ideal_schedule().steps)
        unit = replace(steps[index], peak=1.0)
        area = target + offset * _AREA_TOL
        steps[index] = replace(unit, peak=area / pulse_area(unit))
        assert pulse_area(steps[index]) == pytest.approx(area, rel=0.0, abs=1e-14)
        schedule = PulseSchedule(*steps)
        if abs(offset) > 1.0:
            with pytest.raises(ScheduleError, match=f"step {label} area"):
                run_protocol(schedule, Chirality.L, 1)
        else:
            run_protocol(schedule, Chirality.L, 1)

    @pytest.mark.parametrize("label", ["A", "B", "C"])
    def test_nan_area_rejected(self, label):
        # finite fields over a window whose duration overflows to inf: the
        # area peak * inf is NaN for a zero peak, inf otherwise. The other
        # steps keep their areas in windows before and after it.
        bad = "ABC".index(label)
        for peak, nonfinite in ((0.0, np.isnan), (1.0, np.isinf)):
            steps = []
            for i, area in enumerate((np.pi / 4.0, np.pi / 2.0, -np.pi / 4.0)):
                if i == bad:
                    steps.append(PulseEnvelope("rectangular", peak, -1e308, 1e308))
                    continue
                t_start = (-1.5e308 if i < bad else 1.2e308) + 2e307 * i
                t_end = t_start + 1e307
                steps.append(PulseEnvelope("rectangular", area / (t_end - t_start), t_start, t_end))
            schedule = PulseSchedule(*steps)
            assert nonfinite(pulse_area(schedule.steps[bad]))
            with pytest.raises(ScheduleError, match=f"step {label} area"):
                run_protocol(schedule, Chirality.L)


def test_step_b_pointwise_amplitude_relation():
    # W23(t) = |W23(t)| = -i W12(t) = W0(t)/sqrt(2) across the window
    schedule = ideal_schedule(shape="sin_squared")
    step = schedule.step_b
    _, fields, _ = step_couplings(schedule)
    for t in np.linspace(step.t_start, step.t_end, 9):
        w12 = fields.drive_12(t)
        w23 = fields.drive_23(t)
        assert w23 == abs(w23)
        assert -1j * w12 == pytest.approx(w23, abs=1e-15)
        assert w23 == pytest.approx(step(t) / np.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("shape", SHAPES)
def test_steps_a_and_c_drive_13_with_their_envelope(shape):
    schedule = ideal_schedule(shape, step_c_area=-np.pi / 4.0)
    fields_a, _, fields_c = step_couplings(schedule)
    assert fields_a.drive_13 is schedule.step_a
    assert fields_c.drive_13 is schedule.step_c
    times = np.linspace(schedule.step_a.t_start, schedule.step_c.t_end, 101)
    for fields in (fields_a, fields_c):
        assert (np.broadcast_to(fields.drive_12(times), times.shape) == 0.0).all()
        assert (np.broadcast_to(fields.drive_23(times), times.shape) == 0.0).all()


def zero_diagonal_hermitian(rng, count: int, scale: float) -> np.ndarray:
    """(count, 3, 3) stack of the form interaction_hamiltonian builds, max|h| = scale."""
    h = np.zeros((count, 3, 3), dtype=complex)
    for n, m in ((0, 1), (0, 2), (1, 2)):
        h[:, n, m] = rng.normal(size=count) + 1j * rng.normal(size=count)
    h = h + h.conj().swapaxes(1, 2)
    return h * (scale / np.abs(h).max(axis=(1, 2)))[:, None, None]


def upper_rows(h: np.ndarray) -> np.ndarray:
    """The drive rows of an (n, 3, 3) zero-diagonal Hermitian stack: its upper
    entries h01, h02, h12 as one window's (3, 1, n) array, as
    _step_exponentials takes them."""
    return np.stack([h[:, 0, 1], h[:, 0, 2], h[:, 1, 2]])[:, None]


def window_exponentials(rows: np.ndarray, dt: float) -> np.ndarray:
    """The step exponentials of one window's (3, 1, n) drive rows, (n, 3, 3)."""
    return in_workspace(_step_exponentials, rows, np.full((1, 1), dt))[0]


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
        assert_matches_expm(h * dt, window_exponentials(upper_rows(h), dt))

    def test_mixed_magnitudes_in_one_chunk(self):
        # the chunk's largest step sets the squarings for all of its steps
        rng = np.random.default_rng(3)
        h = np.concatenate(
            [zero_diagonal_hermitian(rng, 16, scale) for scale in (1e-6, 1e-2, 0.7, 15.0)]
        )
        assert_matches_expm(h, window_exponentials(upper_rows(h), 1.0))

    @pytest.mark.parametrize("scale", [1e-3, 3.0])
    def test_strided_view_matches_contiguous_copy(self, scale):
        rng = np.random.default_rng(5)
        every_other = upper_rows(zero_diagonal_hermitian(rng, 2 * 37, scale))[..., ::2]
        step_major = upper_rows(zero_diagonal_hermitian(rng, 37, scale)).T.copy().T
        for view in (every_other, step_major):
            assert not view.flags.c_contiguous
            copy = np.ascontiguousarray(view)
            assert (window_exponentials(view, 0.7) == window_exponentials(copy, 0.7)).all()

    def test_zero_hamiltonian_is_identity(self):
        e = window_exponentials(np.zeros((3, 1, 5), dtype=complex), 1e-9)
        assert (e == np.eye(3)).all()

    @given(
        st.lists(
            st.tuples(
                *[
                    st.one_of(
                        st.just(0.0),
                        st.tuples(
                            st.floats(-9.0, math.log10(20.0)), st.floats(0.0, 2.0 * np.pi)
                        ).map(lambda e: 10.0 ** e[0] * np.exp(1j * e[1])),
                    )
                    for _ in range(3)
                ]
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(deadline=None, max_examples=200)
    def test_entries_on_their_own_scales_match_expm(self, steps):
        # each entry of each step on its own scale, 1e-9 to 20, or exactly 0
        rows = np.array(steps, dtype=complex).T
        a = np.zeros((rows.shape[1], 3, 3), dtype=complex)
        for row, (i, j) in zip(rows, ((0, 1), (0, 2), (1, 2))):
            a[:, i, j] = row
            a[:, j, i] = row.conj()
        assert_matches_expm(a, window_exponentials(rows[:, None], 1.0))

    @pytest.mark.parametrize("area", [0.0, 1e-12, 1e-6, 1e-3, 0.3, np.pi / 4.0, 1.75 * np.pi, 20.0])
    def test_single_transition(self, area):
        # eigenvalues +-a and 0: c0 = det A = 0, degenerate as a -> 0
        for n, m in ((0, 1), (0, 2), (1, 2)):
            h = np.zeros((1, 3, 3), dtype=complex)
            h[0, n, m] = area * np.exp(0.3j)
            h[0, m, n] = area * np.exp(-0.3j)
            assert_matches_expm(h, window_exponentials(upper_rows(h), 1.0))

    @pytest.mark.parametrize("steps", [1, 7, 2000])
    def test_protocol_steps_unitary_to_1e_14(self, steps):
        # the steps propagate takes for the protocol: max|A| is 17.6 at one
        # gaussian step for step C = 7 pi/4, 2.5 at 7 and 0.01 at 2000
        for shape in SHAPES:
            for area in (-np.pi / 4.0, 0.75 * np.pi, 1.75 * np.pi):
                schedule = ideal_schedule(shape, step_c_area=area)
                for step, couplings in zip(schedule.steps, step_couplings(schedule)):
                    for chirality in (Chirality.L, Chirality.R):
                        fields = signed_couplings(couplings, chirality)
                        t0, t1 = step.t_start, step.t_end
                        dt = (t1 - t0) / steps
                        h = interaction_hamiltonian(t0 + (np.arange(steps) + 0.5) * dt, fields)
                        e = window_exponentials(upper_rows(h), dt)
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


def window_fold(schedule: PulseSchedule, chirality: Chirality, steps: int) -> np.ndarray:
    """The protocol as three one-window ``propagate`` calls, U_C @ (U_B @ (U_A @ I))."""
    u = np.eye(3, dtype=complex)
    for step, couplings in zip(schedule.steps, step_couplings(schedule)):
        fields = signed_couplings(couplings, chirality)
        u = propagate(fields, (step.t_start, step.t_end), TimeGrid(steps)) @ u
    return u


class TestOnePassProtocol:
    """Both enantiomers from three right-handed step windows in one chunk loop,
    bit for bit the left-handed steps propagated directly."""

    # 1 to 7 steps give the windows different squaring counts, at 13 a gauge
    # after the projection would flip a zero; the rest end a chunk early,
    # exactly, late and in a third chunk
    @pytest.mark.parametrize(
        "steps", [1, 2, 7, 13, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 8]
    )
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_one_window_fold(self, shape, steps):
        for area in STEP_C_AREAS:
            schedule = ideal_schedule(shape, step_c_area=area)
            for chirality in Chirality:
                u = run_protocol(schedule, chirality, steps)
                # tobytes also tells the two zeros apart
                assert u.tobytes() == window_fold(schedule, chirality, steps).tobytes()

    # within one chunk, exactly one, and a third chunk
    @pytest.mark.parametrize("steps", [8, _CHUNK, 2 * _CHUNK + 8])
    def test_one_miss_propagates_three_windows(self, monkeypatch, steps):
        calls, exponentials = [], []
        chunk_loop, kernel = propagator._propagate, propagator._step_exponentials

        def spy_loop(drives, windows, grid):
            calls.append((len(drives), len(windows), grid.steps))
            return chunk_loop(drives, windows, grid)

        def spy_kernel(rows, dt, work):
            exponentials.append(rows.shape)
            return kernel(rows, dt, work)

        monkeypatch.setattr(propagator, "_propagate", spy_loop)
        monkeypatch.setattr(propagator, "_step_exponentials", spy_kernel)
        schedule = ideal_schedule("gaussian", t_start=1.5e-6, gap=4e-9)
        _protocol_unitary.cache_clear()
        for chirality in Chirality:
            run_protocol(schedule, chirality, steps)
        assert calls == [(3, 3, steps)]
        # one kernel call per chunk, each carrying all three windows
        assert len(exponentials) == -(-steps // _CHUNK)
        assert all(shape[:2] == (3, 3) for shape in exponentials)
        assert sum(shape[2] for shape in exponentials) == steps

    def test_one_miss_serves_both_enantiomers(self):
        schedule = ideal_schedule("sin_squared", t_start=3.125e-6, gap=2.5e-9)
        misses = _protocol_unitary.cache_info().misses
        left = run_protocol(schedule, Chirality.L, 300)
        right = run_protocol(schedule, Chirality.R, 300)
        assert _protocol_unitary.cache_info().misses == misses + 1
        assert not np.shares_memory(left, right)
        for u in (left, right):
            assert u.flags.writeable and u.flags.owndata
        expected_left, expected_right = left.copy(), right.copy()
        left[...] = 0.0
        assert np.array_equal(right, expected_right)
        assert np.array_equal(run_protocol(schedule, Chirality.L, 300), expected_left)

    def test_stacked_windows_match_each_window_alone(self):
        # windows that need no series, a short one, a long one and squarings;
        # a window of one step alone is a one-element chunk, which numpy
        # rounds differently if a complex product is written over a factor
        rng = np.random.default_rng(11)
        for steps in (1, 37):
            windows = [np.zeros((3, 1, steps), dtype=complex)]
            windows += [
                upper_rows(zero_diagonal_hermitian(rng, steps, s)) for s in (1e-7, 0.3, 15.0)
            ]
            rows = np.concatenate(windows, axis=1)
            dt = np.array([[1.0], [0.5], [2.0], [0.25]])
            stacked = in_workspace(_step_exponentials, rows.copy(), dt)
            products = in_workspace(_ordered_product, np.moveaxis(stacked, (2, 3), (0, 1)))
            for k in range(len(dt)):
                alone = in_workspace(_step_exponentials, rows[:, k : k + 1].copy(), dt[k : k + 1])
                assert np.array_equal(stacked[k], alone[0])
                alone = in_workspace(_ordered_product, np.moveaxis(alone, (2, 3), (0, 1)))
                assert np.array_equal(products[k], alone[0])


def midpoint_area(step: PulseEnvelope, steps: int) -> float:
    """Q_N, the midpoint sum of a step's envelope over its window in N steps."""
    dt = step.duration / steps
    return float(np.sum(step(step.t_start + (np.arange(steps) + 0.5) * dt)) * dt)


def closed_form_protocol(schedule: PulseSchedule, chirality: Chirality, steps: int) -> np.ndarray:
    """U_C @ U_B @ U_A with each step exp(-i Q_N M) in closed form: A and C drive
    (1,3) alone, and B's M, with (1,2) entry i/sqrt(2) and (2,3) entry
    1/sqrt(2), has eigenvalues 0 and +-1."""
    area_a, area_b, area_c = (midpoint_area(step, steps) for step in schedule.steps)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1], m[1, 2] = 1j * _SQ2, _SQ2
    m += m.conj().T
    u_b = np.eye(3) - 1j * np.sin(area_b) * m + (np.cos(area_b) - 1.0) * (m @ m)
    u_a, u_c = (_pulse_13(_signed_13(area, chirality)) for area in (area_a, area_c))
    return u_c @ u_b @ u_a


@st.composite
def valid_schedules(draw) -> PulseSchedule:
    """Three steps of any shapes, durations and gaps with the protocol's areas,
    step C's drawn from (k + 3/4) pi."""
    t = draw(st.floats(0.0, 1e-6))
    steps = []
    for area in (np.pi / 4.0, np.pi / 2.0, (draw(st.integers(-3, 3)) + 0.75) * np.pi):
        unit = PulseEnvelope(draw(st.sampled_from(SHAPES)), 1.0, t, t + draw(st.floats(1e-9, 1e-6)))
        steps.append(replace(unit, peak=area / pulse_area(unit)))
        t = unit.t_end + draw(st.floats(0.0, 1e-7))
    return PulseSchedule(*steps)


class TestClosedFormOracle:
    """Each step's Hamiltonian is b(t) M with M fixed, so it commutes with
    itself at all times, and the midpoint product of a step is exp(-i Q_N M)
    up to roundoff: run_protocol against that closed form to 1e-14, far below
    its 1e-8 gap to the ideal areas."""

    # across chunk edges, and into a fourth chunk
    @pytest.mark.parametrize("steps", [1, 2, 7, 13, 1023, 1024, 1025, 2056, 4096])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_closed_form_at_midpoint_areas(self, shape, steps):
        for k in (-1, 0, 1, 2):
            schedule = ideal_schedule(shape, step_c_area=(k + 0.75) * np.pi)
            for chirality in Chirality:
                u = run_protocol(schedule, chirality, steps)
                expected = closed_form_protocol(schedule, chirality, steps)
                assert np.abs(u - expected).max() <= 1e-14

    @given(valid_schedules(), st.integers(1, 4096))
    @settings(deadline=None, max_examples=40)
    def test_random_schedules_equal_closed_form(self, schedule, steps):
        for chirality in Chirality:
            u = run_protocol(schedule, chirality, steps)
            assert np.abs(u - closed_form_protocol(schedule, chirality, steps)).max() <= 1e-14


class TestWorkspace:
    """The chunk loop works in one preallocated workspace per thread."""

    def test_two_threads_match_serial_bytes(self):
        # each thread its own schedules, step counts and propagate calls, all
        # spanning several chunks, so that both loops run at once
        fields, window = noncommuting_detuned_fields(), (0.0, 1e-7)
        jobs = [
            [("gaussian", 2056), ("rectangular", 3000), ("sin_squared", 1025), 2500, 1100],
            [("sin_squared", 4096), ("gaussian", 1500), ("rectangular", 2049), 3100, 2100],
        ]

        def run(job, t_start):
            results = []
            for task in job:
                if isinstance(task, int):
                    results.append(propagate(fields, window, TimeGrid(task)).tobytes())
                    continue
                shape, steps = task
                schedule = ideal_schedule(shape, t_start=t_start, step_c_area=0.75 * np.pi)
                results += [run_protocol(schedule, q, steps).tobytes() for q in Chirality]
            return results

        _protocol_unitary.cache_clear()
        serial = [run(job, 2.5e-6 + 1e-7 * i) for i, job in enumerate(jobs)]
        _protocol_unitary.cache_clear()
        threaded, errors = [None, None], []
        barrier = threading.Barrier(2)

        def worker(i):
            try:
                barrier.wait()
                threaded[i] = run(jobs[i], 2.5e-6 + 1e-7 * i)
            except BaseException as error:  # re-raised below, in the test's thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert threaded == serial

    def test_drive_that_propagates_gets_its_own_workspace(self):
        # the inner propagate runs while the outer chunk's times and rows are
        # in this thread's workspace
        inner_fields, window = noncommuting_detuned_fields(), (0.0, 1e-7)
        env = envelope("gaussian", 0.9)
        inner = propagate(inner_fields, window, TimeGrid(300))[0, 0]

        def nested(t):
            return propagate(inner_fields, window, TimeGrid(300))[0, 0] * env(t)

        def fixed(t):
            return inner * env(t)

        u = {}
        for name, drive in (("nested", nested), ("fixed", fixed)):
            fields = CouplingSet(drive_12=drive, drive_23=env)
            u[name] = propagate(fields, window, TimeGrid(_CHUNK + 5)).tobytes()
        assert u["nested"] == u["fixed"]

    def test_cache_missing_protocol_allocates_no_chunk_arrays(self):
        # four chunks of three windows once allocated about 1.2 MiB of
        # temporaries. What is left is the drives' own arrays, a few KiB each.
        # numpy's ufunc buffers, up to 8192 elements per operand of a
        # broadcast or cast, are cut to 16 here, so that the peak counts
        # arrays, not numpy's iteration.
        run_protocol(ideal_schedule("gaussian", t_start=4.5e-6), Chirality.L, _CHUNK)
        schedule = ideal_schedule("sin_squared", t_start=4.25e-6, gap=3e-9)
        tracing = tracemalloc.is_tracing()
        bufsize = np.setbufsize(16)
        try:
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            run_protocol(schedule, Chirality.R, 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            np.setbufsize(bufsize)
            if not tracing:
                tracemalloc.stop()
        assert peak - start < 64 * 1024


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

    @pytest.mark.parametrize("steps", [0, -1])
    def test_bad_step_count_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            run_protocol(ideal_schedule(), Chirality.L, steps)

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, np.bool_(True), "7", None])
    def test_non_integer_step_count_rejected(self, steps):
        with pytest.raises(TypeError, match="steps must be an integer"):
            run_protocol(ideal_schedule(), Chirality.L, steps)
        with pytest.raises(TypeError, match="steps must be an integer"):
            TimeGrid(steps)

    @pytest.mark.parametrize("steps", [np.int64(7), np.int32(7), np.uint16(7)])
    def test_numpy_integer_step_count_accepted(self, steps):
        u = run_protocol(ideal_schedule(), Chirality.R, steps)
        assert u.tobytes() == run_protocol(ideal_schedule(), Chirality.R, 7).tobytes()


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

    @pytest.mark.parametrize("rho", [np.eye(2) / 2.0, np.full(9, 1.0 / 3.0)], ids=["2x2", "flat"])
    def test_non_3x3_rejected(self, rho):
        with pytest.raises(ValueError, match=r"^density matrix must be 3x3, got shape"):
            apply_to_density(np.eye(3), rho)

    def test_non_hermitian_rejected(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho[0, 1] = 0.4
        with pytest.raises(ValueError):
            apply_to_density(np.eye(3), rho)
