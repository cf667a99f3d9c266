"""Time-dependent propagation of the driven three-level loop.

Generic midpoint-exponential stepping for arbitrary pulse envelopes,
independent of the closed-form step unitaries so the two can be compared.
Resonant single-transition steps depend only on the pulse area, not the
envelope shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ctls import (
    Chirality,
    CouplingSet,
    DriveField,
    signed_couplings,
    zero_drive,
)

__all__ = [
    "PulseEnvelope",
    "TimeGrid",
    "ProtocolStep",
    "PulseSchedule",
    "ScheduleError",
    "DEFAULT_PEAK_RAD_S",
    "pulse_area",
    "ideal_schedule",
    "step_couplings",
    "interaction_hamiltonian",
    "propagate",
    "run_protocol",
    "apply_to_density",
]

_SHAPES = ("rectangular", "gaussian", "sin_squared")
_SQ2 = 1.0 / math.sqrt(2.0)
_AREA_TOL = 1e-8  # radians
_CHUNK = 1024  # midpoints per batched eigh in propagate; bounds its memory

DEFAULT_PEAK_RAD_S = 2.0 * np.pi * 1.25e6  # 100 ns quarter pulse


class ScheduleError(ValueError):
    """A pulse schedule violates the protocol's area or timing conditions."""


@dataclass(frozen=True)
class PulseEnvelope:
    """Non-negative real envelope, zero outside [t_start, t_end].

    The gaussian form is truncated at the window edges; ``center`` and
    ``width`` apply to it only.
    """

    shape: str
    peak: float  # rad/s
    t_start: float
    t_end: float
    center: float | None = None
    width: float | None = None

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if not np.isfinite(self.peak) or self.peak < 0.0:
            raise ValueError(f"peak must be finite and >= 0, got {self.peak}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"window must satisfy t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.shape == "gaussian":
            if self.center is None or self.width is None:
                raise ValueError("gaussian envelope requires center and width")
            if self.width <= 0.0:
                raise ValueError(f"gaussian width must be > 0, got {self.width}")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Envelope at time ``t``: a float for a scalar, an array of the
        same shape for an array of times."""
        times = np.asarray(t, dtype=float)
        if self.shape == "rectangular":
            values = np.full(times.shape, self.peak)
        elif self.shape == "gaussian":
            values = self.peak * np.exp(-((times - self.center) ** 2) / (2.0 * self.width**2))
        else:
            phase = np.pi * (times - self.t_start) / (self.t_end - self.t_start)
            values = self.peak * np.sin(phase) ** 2
        values = np.where((self.t_start <= times) & (times <= self.t_end), values, 0.0)
        return values if values.ndim else float(values)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def pulse_area(envelope: PulseEnvelope) -> float:
    """Time integral of the envelope over its window, in radians (closed form)."""
    if envelope.shape == "rectangular":
        return envelope.peak * envelope.duration
    if envelope.shape == "sin_squared":
        return 0.5 * envelope.peak * envelope.duration
    # truncated gaussian, any center: peak * w * sqrt(pi/2) * [erf]_{t_start}^{t_end}
    scale = math.sqrt(2.0) * envelope.width
    return (
        envelope.peak
        * envelope.width
        * math.sqrt(0.5 * math.pi)
        * (
            math.erf((envelope.t_end - envelope.center) / scale)
            - math.erf((envelope.t_start - envelope.center) / scale)
        )
    )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform stepping of a propagation window."""

    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class ProtocolStep:
    """One protocol step: its master envelope and the sign of its drive.

    Step A and C drive the (1,3) transition directly; step B splits the
    envelope over (1,2) and (2,3) with fixed complex prefactors i/sqrt(2)
    and 1/sqrt(2). ``flip_sign`` realizes a negative target area as a pi
    phase flip over a positive-duration pulse.
    """

    label: str
    envelope: PulseEnvelope
    flip_sign: bool = False

    def __post_init__(self) -> None:
        if self.label not in ("A", "B", "C"):
            raise ValueError(f"label must be 'A', 'B' or 'C', got {self.label!r}")

    @property
    def signed_area(self) -> float:
        area = pulse_area(self.envelope)
        return -area if self.flip_sign else area

    @property
    def window(self) -> tuple[float, float]:
        return (self.envelope.t_start, self.envelope.t_end)


@dataclass(frozen=True)
class PulseSchedule:
    """The three time-ordered, disjoint protocol steps."""

    step_a: ProtocolStep
    step_b: ProtocolStep
    step_c: ProtocolStep

    def __post_init__(self) -> None:
        labels = (self.step_a.label, self.step_b.label, self.step_c.label)
        if labels != ("A", "B", "C"):
            raise ValueError(f"steps must be labeled ('A', 'B', 'C'), got {labels}")
        previous_end = -math.inf
        for step in self.steps:
            if step.envelope.t_start < previous_end:
                raise ValueError("protocol steps must be time-disjoint and ordered")
            previous_end = step.envelope.t_end

    @property
    def steps(self) -> tuple[ProtocolStep, ProtocolStep, ProtocolStep]:
        return (self.step_a, self.step_b, self.step_c)


def _nominal_window(shape: str, target_area: float, peak: float) -> float:
    if shape == "rectangular":
        return target_area / peak
    # Shaped pulses spread the same area over twice the rectangular window.
    return 2.0 * target_area / peak


def _scaled_envelope(
    shape: str, target_area: float, peak: float, t_start: float
) -> PulseEnvelope:
    duration = _nominal_window(shape, target_area, peak)
    t_end = t_start + duration
    kwargs = {}
    if shape == "gaussian":
        kwargs = {"center": 0.5 * (t_start + t_end), "width": duration / 8.0}
    unit = PulseEnvelope(shape=shape, peak=1.0, t_start=t_start, t_end=t_end, **kwargs)
    return replace(unit, peak=target_area / pulse_area(unit))


def ideal_schedule(
    shape: str = "rectangular",
    peak: float = DEFAULT_PEAK_RAD_S,
    t_start: float = 0.0,
    gap: float = 1e-8,
    step_c_area: float = -np.pi / 4.0,
) -> PulseSchedule:
    """Schedule meeting the protocol area conditions pi/4, pi/2, -pi/4.

    ``step_c_area`` accepts any equivalent choice (k + 3/4)*pi. All results
    depend only on the areas, so ``peak`` merely sets the time scale.
    """
    if peak <= 0.0:
        raise ValueError(f"peak must be > 0, got {peak}")
    if gap < 0.0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    steps = []
    t = t_start
    for label, area in zip("ABC", (np.pi / 4.0, np.pi / 2.0, step_c_area)):
        envelope = _scaled_envelope(shape, abs(area), peak, t)
        steps.append(ProtocolStep(label=label, envelope=envelope, flip_sign=area < 0.0))
        t = envelope.t_end + gap
    return PulseSchedule(*steps)


def step_couplings(step: ProtocolStep) -> CouplingSet:
    """Base (chirality-free) drives active during one protocol step."""
    envelope = step.envelope
    sign = -1.0 if step.flip_sign else 1.0
    if step.label in ("A", "C"):
        return CouplingSet(
            drive_12=zero_drive((1, 2)),
            drive_23=zero_drive((2, 3)),
            drive_13=DriveField((1, 3), rabi=lambda t: sign * envelope(t)),
        )
    return CouplingSet(
        drive_12=DriveField((1, 2), rabi=lambda t: 1j * _SQ2 * envelope(t)),
        drive_23=DriveField((2, 3), rabi=lambda t: _SQ2 * envelope(t)),
        drive_13=zero_drive((1, 3)),
    )


def interaction_hamiltonian(t: float | np.ndarray, fields: CouplingSet) -> np.ndarray:
    """H(t)/hbar in rad/s: sum of W_nm(t) |n><m| plus h.c.

    A scalar ``t`` gives a (3, 3) matrix; a 1-D array of n times gives the
    (n, 3, 3) stack. A drive whose ``rabi`` returns a scalar is broadcast.
    """
    times = np.asarray(t, dtype=float)
    h = np.zeros(times.shape + (3, 3), dtype=complex)
    for field in fields.drives:
        n, m = field.transition
        h[..., n - 1, m - 1] += np.asarray(field.rabi(times), dtype=complex)
    return h + h.conj().swapaxes(-1, -2)


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[n-1] @ ... @ u[1] @ u[0] of an (n, 3, 3) stack, by pairwise halving."""
    while len(u) > 1:
        paired = u[1::2] @ u[0 : len(u) - 1 : 2]
        u = np.concatenate((paired, u[-1:])) if len(u) % 2 else paired
    return u[0]


def propagate(
    fields: CouplingSet, window: tuple[float, float], grid: TimeGrid
) -> np.ndarray:
    """Time-ordered evolution over ``window``, second-order in the step size.

    Each sub-interval applies the exponential of the midpoint-evaluated
    Hamiltonian. Midpoints are taken ``_CHUNK`` at a time: one Hamiltonian
    stack and one batched ``eigh`` per chunk, whose step exponentials are
    reduced by a pairwise time-ordered product; chunks are multiplied in
    order, so memory does not grow with ``grid.steps``.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError(f"window must satisfy t1 > t0, got ({t0}, {t1})")
    dt = (t1 - t0) / grid.steps
    u = np.eye(3, dtype=complex)
    for first in range(0, grid.steps, _CHUNK):
        t_mid = t0 + (np.arange(first, min(first + _CHUNK, grid.steps)) + 0.5) * dt
        h = interaction_hamiltonian(t_mid, fields)
        finite = np.isfinite(h).all(axis=(1, 2))
        if not finite.all():
            bad = float(t_mid[np.argmin(finite)])
            raise ArithmeticError(f"non-finite drive amplitude at t = {bad}")
        eigenvalues, eigenvectors = np.linalg.eigh(h)
        phases = np.exp(-1j * eigenvalues * dt)[:, None, :]
        exponentials = (eigenvectors * phases) @ eigenvectors.conj().swapaxes(1, 2)
        u = _ordered_product(exponentials) @ u
    # Each step exponential is unitary only to ~3e-15 and the product adds
    # up that roundoff: without this polar projection 4000 steps drift to
    # ~1.8e-12 per window, sequential or pairwise, and ~4e-12 over the
    # three protocol steps, above the 1e-12 unitarity a propagated protocol
    # is held to. The exact propagator is unitary, so the projection
    # removes only that noise.
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _check_areas(schedule: PulseSchedule) -> None:
    area_a = schedule.step_a.signed_area
    if abs(area_a - np.pi / 4.0) > _AREA_TOL:
        raise ScheduleError(f"step A area must be pi/4, got {area_a}")
    area_b = schedule.step_b.signed_area
    if abs(area_b - np.pi / 2.0) > _AREA_TOL:
        raise ScheduleError(f"step B area must be pi/2, got {area_b}")
    # Step C admits -pi/4 or any (k + 3/4)*pi: congruent to 3*pi/4 mod pi.
    residue = (schedule.step_c.signed_area - 0.75 * np.pi) % np.pi
    if min(residue, np.pi - residue) > _AREA_TOL:
        raise ScheduleError(
            f"step C area must equal (k + 3/4)*pi, got {schedule.step_c.signed_area}"
        )


@lru_cache(maxsize=128)
def _protocol_unitary(
    schedule: PulseSchedule, chirality: Chirality, steps: int
) -> np.ndarray:
    u = np.eye(3, dtype=complex)
    for step in schedule.steps:
        fields = signed_couplings(step_couplings(step), chirality)
        u = propagate(fields, step.window, TimeGrid(steps)) @ u
    return u


def run_protocol(
    schedule: PulseSchedule, chirality: Chirality, steps_per_step: int = 2000
) -> np.ndarray:
    """Propagate the full three-step protocol with chirality-signed drives."""
    _check_areas(schedule)
    return _protocol_unitary(schedule, chirality, steps_per_step).copy()


def apply_to_density(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix by a unitary, U rho U^dagger."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError(f"density matrix must have unit trace, got {np.trace(rho)}")
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("density matrix must be Hermitian")
    return u @ rho @ u.conj().T
