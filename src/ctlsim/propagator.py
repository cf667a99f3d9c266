"""Time-dependent propagation of the driven three-level loop.

Generic midpoint-exponential stepping for arbitrary pulse envelopes,
independent of the closed-form step unitaries so the two can be compared.
Each step exponential of the traceless 3x3 Hamiltonian is a closed-form
polynomial in it (Cayley-Hamilton), so no eigendecomposition is needed.
Resonant single-transition steps depend only on the pulse area, not the
envelope shape.

Stacks of step matrices are kept entry-major, shape (3, 3, n): each matrix
entry is one contiguous vector over the steps, and a 3x3 product over the
stack is three broadcast multiply-adds of those vectors (``_matmul``).
numpy's matmul and einsum loop over the n small matrices instead, which
costs several times more at the chunk size used here. Stacks handed in or
out keep the (n, 3, 3) shape as views of the entry-major arrays.
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
_CHUNK = 1024  # midpoints per Hamiltonian stack in propagate; bounds its memory

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
        for name in ("t_start", "t_end", "center", "width"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    (n, 3, 3) stack, a view of an entry-major (3, 3, n) array. A drive
    whose ``rabi`` returns a scalar is broadcast.
    """
    times = np.asarray(t, dtype=float)
    h = np.zeros((3, 3) + times.shape, dtype=complex)
    for field in fields.drives:
        n, m = field.transition  # n < m, one drive per transition
        h[n - 1, m - 1] = field.rabi(times)
        h[m - 1, n - 1] = h[n - 1, m - 1].conj()
    return np.moveaxis(h, (0, 1), (-2, -1))


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for each step of two entry-major (3, 3, n) stacks."""
    product = x[:, 0, None] * y[None, 0]
    product += x[:, 1, None] * y[None, 1]
    product += x[:, 2, None] * y[None, 2]
    return product


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[n-1] @ ... @ u[1] @ u[0] of an (n, 3, 3) stack, by pairwise halving
    along the step axis of its entry-major view."""
    u = u.transpose(1, 2, 0)
    while u.shape[-1] > 1:
        n = u.shape[-1]
        paired = _matmul(u[..., 1::2], u[..., 0 : n - 1 : 2])
        u = np.concatenate((paired, u[..., -1:]), axis=-1) if n % 2 else paired
    return u[..., 0]


def _step_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for each matrix of an (n, 3, 3) traceless Hermitian stack.

    By Cayley-Hamilton a traceless 3x3 matrix A = h dt obeys
    A^3 = c1 A + c0 I with c1 = tr(A^2)/2 and c0 = det A = tr(A^3)/3, both
    real for Hermitian A. So exp(-iA) = f0 I + f1 A + f2 A^2, and its Taylor
    series is summed on the three coefficient arrays alone (Morningstar &
    Peardon, Phys. Rev. D 69, 054501 (2004)). Steps beyond spectral radius
    0.5 are scaled by 2^-s and squared s times in coefficient space (Moler
    & Van Loan, SIAM Rev. 45, 3 (2003)), so a single step is exact too.
    A step whose phase bound exceeds 2^26 rad raises ``ArithmeticError``.
    The result is an (n, 3, 3) view of an entry-major (3, 3, n) array.
    """
    # entry-major: no copy for the stacks interaction_hamiltonian returns
    a = np.ascontiguousarray(h.transpose(1, 2, 0)) * dt
    # a step far beyond the phase bound below may overflow here; the bound
    # check rejects its inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = _matmul(a, a)
        # interaction_hamiltonian fills only the entries n < m and their
        # conjugates: the diagonal is zero, so tr A = 0 and the identity holds.
        c1 = 0.5 * (a2[0, 0] + a2[1, 1] + a2[2, 2]).real
        c0 = (a2 * a.swapaxes(0, 1)).sum(axis=(0, 1)).real / 3.0
    # sqrt(tr A^2) bounds every eigenvalue of A in magnitude
    radius = math.sqrt(2.0 * c1.max())
    # a step's roundoff grows as ~1e-16 * radius: above 2^26 rad it passes the
    # 1e-8 rad that _AREA_TOL holds pulse areas to ("not <=" also rejects NaN)
    if not radius <= 2.0**26:
        raise ArithmeticError(f"step phase bound {radius} rad exceeds 2**26 rad; use more steps")
    squarings = math.ceil(math.log2(radius / 0.5)) if radius > 0.5 else 0
    c1 = c1 * 0.25**squarings
    c0 = c0 * 0.125**squarings
    radius = radius * 0.5**squarings
    # the first omitted term, radius^(terms+1)/(terms+1)!, is below 1e-17
    terms, omitted = 0, radius
    while omitted > 1e-17:
        terms += 1
        omitted *= radius / (terms + 1)
    # Horner on the scaled A: f <- I + (-i/k) A f, where
    # A (f0 I + f1 A + f2 A^2) = c0 f2 I + (f0 + c1 f2) A + f1 A^2
    f0 = np.ones(a.shape[-1], dtype=complex)
    f1 = np.zeros_like(f0)
    f2 = np.zeros_like(f0)
    for k in range(terms, 0, -1):
        x = -1j / k
        f0, f1, f2 = 1.0 + x * c0 * f2, x * (f0 + c1 * f2), x * f1
    for _ in range(squarings):
        f0, f1, f2 = (
            f0 * f0 + 2.0 * c0 * f1 * f2,
            2.0 * f0 * f1 + 2.0 * c1 * f1 * f2 + c0 * f2 * f2,
            2.0 * f0 * f2 + f1 * f1 + c1 * f2 * f2,
        )
    f1 = f1 * 0.5**squarings
    f2 = f2 * 0.25**squarings
    e = f1 * a
    e += f2 * a2
    for i in range(3):
        e[i, i] += f0
    return e.transpose(2, 0, 1)


def propagate(
    fields: CouplingSet, window: tuple[float, float], grid: TimeGrid
) -> np.ndarray:
    """Time-ordered evolution over ``window``, second-order in the step size.

    Each sub-interval applies the exponential of the midpoint-evaluated
    Hamiltonian. Midpoints are taken ``_CHUNK`` at a time: per chunk one
    Hamiltonian stack, its step exponentials in closed form
    (``_step_exponentials``) and a pairwise time-ordered product of them;
    chunks are multiplied in order, so memory does not grow with
    ``grid.steps``.
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
        u = _ordered_product(_step_exponentials(h, dt)) @ u
    # Each step exponential is unitary to ~2e-16 and the product adds up
    # that roundoff: without this polar projection 4000 steps drift to
    # ~4.6e-13 per window, and the protocol to ~3.1e-13 at 4096 and
    # ~9.5e-13 at 16384 steps per step, close to the 1e-12 unitarity a
    # propagated protocol is held to. The exact propagator is unitary, so
    # the projection removes only that noise.
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _check_areas(schedule: PulseSchedule) -> None:
    # each test is written as "not within tolerance", so a NaN area fails it
    area_a = schedule.step_a.signed_area
    if not abs(area_a - np.pi / 4.0) <= _AREA_TOL:
        raise ScheduleError(f"step A area must be pi/4, got {area_a}")
    area_b = schedule.step_b.signed_area
    if not abs(area_b - np.pi / 2.0) <= _AREA_TOL:
        raise ScheduleError(f"step B area must be pi/2, got {area_b}")
    # Step C admits -pi/4 or any (k + 3/4)*pi: congruent to 3*pi/4 mod pi.
    residue = (schedule.step_c.signed_area - 0.75 * np.pi) % np.pi
    if not min(residue, np.pi - residue) <= _AREA_TOL:
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
