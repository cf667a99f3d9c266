"""Time-dependent propagation of the driven three-level loop.

Generic midpoint-exponential stepping for arbitrary pulse envelopes,
independent of the closed-form step unitaries so the two can be compared.
Each step exponential of the traceless 3x3 Hamiltonian is a closed-form
polynomial in it (Cayley-Hamilton), so no eigendecomposition is needed.
Resonant single-transition steps depend only on the pulse area, not the
envelope shape.

A protocol step is its envelope: a real pulse over its window whose signed
peak carries the pi phase flip of a negative area, and whose
``PulseSchedule`` slot says which transitions it drives (``step_couplings``).
The area is peak * duration times a constant per shape (``_SHAPES``): 1
rectangular, 1/2 sin^2, sqrt(2 pi)/8 erf(2 sqrt 2) for the gaussian, which
is centred in its window with sigma = duration/8.

The Hamiltonian has a zero diagonal and is Hermitian, so its three upper
entries W12, W13, W23, the drive rows (``_drive_rows``), fix it and its step
exponentials: no (3, 3, n) Hamiltonian stack is built. Stacks of step
matrices are entry-major, (3, 3, w, n) for w windows of n steps: a 3x3
product over a stack is three broadcast multiply-adds of contiguous vectors
(``_matmul``). The two chunk kernels take this one shape and no other:
``_step_exponentials`` maps the rows, (3, w, n), and one step size per window,
(w, 1), to the (3, 3, w, n) exponentials, and ``_ordered_product`` folds them
to the (3, 3, w) products, both in the caller's workspace.

A protocol is one pass over the right-handed steps A, B and C (``_propagate``)
for both enantiomers (``_protocol_unitary``). B does not drive (1,3) and serves
both. A and C drive it alone: the left-handed ones are the right-handed ones
under the gauge ``ctls._mirror_13``, which negates by unary minus, never by a
product with a +-1 array, whose 0 * x terms can flip the sign of a zero. The
gauge is taken before ``_polar`` projects: the unprojected direct left-handed
products differ from the mirrored ones only in the signs of exact zeros, which
the projection absorbed in every case tried, while a gauge after it leaves them
(``protocol --steps 13 --chirality both`` then prints one ``-0.00000000e+00``).
That is not proven in general. The tests guard it byte for byte against the fold
of three one-window ``propagate`` calls on the left-handed drives themselves,
and by the CLI's pinned CSV digests.
A kernel call costs about as much in fixed numpy overhead as in arithmetic
on 1024 steps, so each chunk is one call over all windows. Each window keeps
its own series length and squarings: its unitary is bit for bit what
``propagate`` gives it alone.

Each thread's chunk loop works in one workspace (``_Workspace``), 1.3 MiB made
on its first chunk for three windows of ``_CHUNK`` midpoints: the drive rows,
the step exponentials, their coefficients and scratch, and the pairwise-product
levels. A chunk writes into it in place, in the order of the formulas, so it
allocates no array beside the drives' own and faults no page in again.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ctls import _SQ2, _STEP_AREAS, Chirality, CouplingSet, _mirror_13, signed_couplings

__all__ = [
    "PulseEnvelope",
    "TimeGrid",
    "PulseSchedule",
    "ScheduleError",
    "DEFAULT_PEAK_RAD_S",
    "DEFAULT_STEPS_PER_STEP",
    "pulse_area",
    "ideal_schedule",
    "step_couplings",
    "interaction_hamiltonian",
    "propagate",
    "run_protocol",
]

# Area of a unit-peak envelope per unit of its duration. The gaussian's
# window spans 4 sigma either side of its centre.
_SHAPES = {
    "rectangular": 1.0,
    "gaussian": math.sqrt(2.0 * math.pi) / 8.0 * math.erf(2.0 * math.sqrt(2.0)),
    "sin_squared": 0.5,
}
_AREA_TOL = 1e-8  # radians
_CHUNK = 1024  # midpoints per Hamiltonian stack in propagate; bounds its memory

DEFAULT_PEAK_RAD_S = 2.0 * np.pi * 1.25e6  # 100 ns quarter pulse
DEFAULT_STEPS_PER_STEP = 2000  # time steps per protocol step, unless asked otherwise


class ScheduleError(ValueError):
    """A pulse schedule violates the protocol's area or timing conditions."""


@dataclass(frozen=True)
class PulseEnvelope:
    """Real envelope, zero outside [t_start, t_end]; a negative ``peak``
    flips the pulse's phase by pi.

    The gaussian is centred in the window with sigma = duration/8 and is
    truncated at the window edges.
    """

    shape: str
    peak: float  # rad/s
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {tuple(_SHAPES)}, got {self.shape!r}")
        for name in ("peak", "t_start", "t_end"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"window must satisfy t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Envelope at time ``t``: a float for a scalar, an array of the
        same shape for an array of times."""
        times = np.asarray(t, dtype=float)
        if self.shape == "rectangular":
            values = np.full(times.shape, self.peak)
        elif self.shape == "gaussian":
            center = 0.5 * (self.t_start + self.t_end)
            width = self.duration / 8.0
            values = self.peak * np.exp(-((times - center) ** 2) / (2.0 * width**2))
        else:
            phase = np.pi * (times - self.t_start) / self.duration
            values = self.peak * np.sin(phase) ** 2
        values = np.where((self.t_start <= times) & (times <= self.t_end), values, 0.0)
        return values if values.ndim else float(values)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def pulse_area(envelope: PulseEnvelope) -> float:
    """Signed time integral of the envelope over its window, in radians."""
    return envelope.peak * envelope.duration * _SHAPES[envelope.shape]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform stepping of a propagation window."""

    steps: int

    def __post_init__(self) -> None:
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise TypeError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class PulseSchedule:
    """The envelopes of the three time-ordered, disjoint protocol steps."""

    step_a: PulseEnvelope
    step_b: PulseEnvelope
    step_c: PulseEnvelope

    def __post_init__(self) -> None:
        previous_end = -math.inf
        for envelope in self.steps:
            if envelope.t_start < previous_end:
                raise ValueError("protocol steps must be time-disjoint and ordered")
            previous_end = envelope.t_end

    @property
    def steps(self) -> tuple[PulseEnvelope, PulseEnvelope, PulseEnvelope]:
        return (self.step_a, self.step_b, self.step_c)


def ideal_schedule(
    shape: str = "rectangular",
    peak: float = DEFAULT_PEAK_RAD_S,
    t_start: float = 0.0,
    gap: float = 1e-8,
    step_c_area: float = _STEP_AREAS[2],
) -> PulseSchedule:
    """Schedule meeting the protocol area conditions pi/4, pi/2, -pi/4.

    ``step_c_area`` accepts any equivalent choice (k + 3/4)*pi. All results
    depend only on the areas, so ``peak`` merely sets the time scale. A step
    whose window does not fit in floats names the arguments it came from.
    """
    if not 0.0 < peak < math.inf:
        raise ValueError(f"peak must be finite and > 0, got {peak}")
    if not 0.0 <= gap < math.inf:
        raise ValueError(f"gap must be finite and >= 0, got {gap}")
    if not (math.isfinite(step_c_area) and step_c_area != 0.0):
        raise ValueError(f"step_c_area must be finite and nonzero, got {step_c_area}")
    if not math.isfinite(t_start):
        raise ValueError(f"t_start must be finite, got {t_start}")
    envelopes = []
    t = t_start
    for label, area in zip("ABC", (*_STEP_AREAS[:2], step_c_area)):
        # shaped pulses spread the area over twice the rectangular window
        duration = abs(area) / peak * (1.0 if shape == "rectangular" else 2.0)
        sources = f"peak = {peak}" + (f", step_c_area = {step_c_area}" if label == "C" else "")
        if not 0.0 < duration < math.inf:
            raise ValueError(f"{sources}: step {label} lasts {duration} s, not a finite time > 0")
        if not t < t + duration < math.inf:
            start = f"t_start = {t_start}" + (f", gap = {gap}" if label != "A" else "")
            raise ValueError(
                f"{start}, {sources}: step {label} of "
                f"{duration} s starting at {t} s does not end at a later finite time"
            )
        unit = PulseEnvelope(shape, 1.0, t, t + duration)
        step_peak = area / pulse_area(unit)
        if not math.isfinite(step_peak):
            raise ValueError(
                f"{sources}: step {label} needs a peak of {step_peak} rad/s, not a finite one"
            )
        envelopes.append(replace(unit, peak=step_peak))
        t = unit.t_end + gap
    return PulseSchedule(*envelopes)


def step_couplings(schedule: PulseSchedule) -> tuple[CouplingSet, CouplingSet, CouplingSet]:
    """Base (chirality-free) drives of steps A, B and C, in order: A and C
    drive (1,3) with their envelope, B splits its envelope over (1,2) and
    (2,3) with the fixed prefactors i/sqrt(2) and 1/sqrt(2)."""
    a, b, c = schedule.steps
    return (
        CouplingSet(drive_13=a),
        CouplingSet(drive_12=lambda t: 1j * _SQ2 * b(t), drive_23=lambda t: _SQ2 * b(t)),
        CouplingSet(drive_13=c),
    )


# H's upper entries (row, column), in the order of the drive rows
_UPPER = ((0, 1), (0, 2), (1, 2))
# a chunk's step midpoints k + 1/2, in steps from its first
_MIDPOINTS = np.arange(_CHUNK) + 0.5


class _Workspace:
    """Every array of a chunk of up to ``windows`` windows of ``steps``
    midpoints, allocated once. A chunk works on views of their leading or
    trailing entries (``_carve``), in place:

    - ``midpoints``, ``times``: the chunk's midpoints, and their times per window
    - ``rows``, ``finite``: the drive rows and their finiteness
    - ``real``: the diagonal of A^2, c0, c1 and a term, per step
    - ``exponentials``: the step exponentials, entry-major (3, 3, w, n)
    - ``scratch``: nine complex arrays per step while the exponentials are
      formed, (A^2)_02, f0, f1 and f2, their Horner and squaring updates and
      two terms; then the pairwise-product ``levels``, each at the other end
      from the level it reads, and the ``term`` of a level's 3x3 products
    """

    def __init__(self, windows: int, steps: int):
        size, half = windows * steps, -(-steps // 2)
        self.busy = False  # a chunk loop is running in it
        self.midpoints = np.empty(steps)
        self.times = np.empty(size)
        self.rows = np.empty(3 * size, dtype=complex)
        self.finite = np.empty(3 * size, dtype=bool)
        self.real = np.empty(6 * size)
        self.exponentials = np.empty(9 * size, dtype=complex)
        # the first level holds ceil(steps/2) products, the second ceil(steps/4)
        levels = 9 * windows * (half + -(-half // 2))
        term = 9 * windows * (steps // 2)
        self.scratch = np.empty(max(9 * size, levels + term), dtype=complex)
        self.levels, self.term = self.scratch[:levels], self.scratch[levels:]


def _carve(flat: np.ndarray, shape: tuple, from_end: bool = False) -> np.ndarray:
    """A C-ordered ``shape`` view of the leading, or trailing, entries of ``flat``."""
    count = math.prod(shape)
    return (flat[flat.size - count :] if from_end else flat[:count]).reshape(shape)


# threads propagate at once, each in its own workspace
_THREAD = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace, made on its first chunk for three windows, as a
    protocol has, of ``_CHUNK`` midpoints; a fresh one while it is busy, for a
    drive that propagates in turn."""
    work = getattr(_THREAD, "work", None)
    if work is None:
        work = _THREAD.work = _Workspace(3, _CHUNK)
    return _Workspace(3, _CHUNK) if work.busy else work


def _drive_rows(
    t: float | np.ndarray, fields: CouplingSet, out: np.ndarray | None = None
) -> np.ndarray:
    """W12, W13, W23 at ``t``, shape (3,) + t.shape, into ``out`` if given: the
    one place that maps drives to Hamiltonian entries, in ``_UPPER`` order. A
    drive that returns a scalar is broadcast."""
    times = np.asarray(t, dtype=float)
    rows = np.empty((3,) + times.shape, dtype=complex) if out is None else out
    rows[0] = fields.drive_12(times)
    rows[1] = fields.drive_13(times)
    rows[2] = fields.drive_23(times)
    return rows


def interaction_hamiltonian(t: float | np.ndarray, fields: CouplingSet) -> np.ndarray:
    """H(t)/hbar in rad/s: sum of W_nm(t) |n><m| plus h.c.

    A scalar ``t`` gives a (3, 3) matrix; a 1-D array of n times gives the
    (n, 3, 3) stack, a view of an entry-major (3, 3, n) array. A drive
    that returns a scalar is broadcast.
    """
    rows = _drive_rows(t, fields)
    h = np.zeros((3, 3) + rows.shape[1:], dtype=complex)
    for row, (i, j) in zip(rows, _UPPER):
        h[i, j] = row
        h[j, i] = row.conj()
    return np.moveaxis(h, (0, 1), (-2, -1))


def _product(out: np.ndarray, spare: np.ndarray, first, *factors) -> np.ndarray:
    """first * factors[0] * factors[1] * ..., left to right, into ``out``, the
    partial products alternating with ``spare`` so that none is written over
    one of its factors: numpy multiplies one-element complex arrays in place by
    another loop than out of place, and the two round differently."""
    buffers = (out, spare) if len(factors) % 2 else (spare, out)
    for i, factor in enumerate(factors):
        first = np.multiply(first, factor, out=buffers[i % 2])
    return out


def _matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """x @ y for each step of two entry-major (3, 3, ..., n) stacks, into
    ``out``, with ``term`` of its shape as scratch."""
    np.multiply(x[:, 0, None], y[None, 0], out=out)
    np.add(out, np.multiply(x[:, 1, None], y[None, 1], out=term), out=out)
    np.add(out, np.multiply(x[:, 2, None], y[None, 2], out=term), out=out)
    return out


def _ordered_product(u: np.ndarray, work: _Workspace) -> np.ndarray:
    """Each window's u[n-1] @ ... @ u[1] @ u[0] of an entry-major (3, 3, w, n)
    stack, entry-major (3, 3, w), by pairwise halving along the step axis; a
    level of odd length carries its last step up unpaired. The levels are in
    ``work``, and the result is a view of the last one."""
    at_end = True
    while u.shape[-1] > 1:
        n, stack = u.shape[-1], u.shape[:-1]
        at_end = not at_end
        level = _carve(work.levels, stack + (n - n // 2,), at_end)
        term = _carve(work.term, stack + (n // 2,))
        _matmul(u[..., 1::2], u[..., 0 : n - 1 : 2], level[..., : n // 2], term)
        if n % 2:
            level[..., -1] = u[..., -1]
        u = level
    return u[..., 0]


def _step_exponentials(rows: np.ndarray, dt: np.ndarray, work: _Workspace) -> np.ndarray:
    """exp(-i h dt) for each step of a zero-diagonal Hermitian h given by its
    drive rows, shape (3, w, n) for w windows of n steps, with one ``dt`` per
    window, shape (w, 1): the upper entries h01, h02, h12 (``_drive_rows``).
    The rows are scaled by ``dt`` in place.

    By Cayley-Hamilton a traceless 3x3 matrix A = h dt obeys
    A^3 = c1 A + c0 I with c1 = tr(A^2)/2 and c0 = det A, both real for
    Hermitian A. So exp(-iA) = f0 I + f1 A + f2 A^2, and its Taylor series
    is summed on the three coefficient arrays alone (Morningstar & Peardon,
    Phys. Rev. D 69, 054501 (2004)). With a zero diagonal the rows give
    everything: (A^2)_ii is a sum of two |A_ij|^2, the off-diagonal entries
    of A^2 are single products, (A^2)_01 = A02 conj(A12),
    (A^2)_02 = A01 A12, (A^2)_12 = conj(A01) A02, and
    c0 = 2 Re(A01 A12 conj(A02)). Steps beyond spectral radius 0.5 are
    scaled by 2^-s and squared s times in coefficient space (Moler & Van
    Loan, SIAM Rev. 45, 3 (2003)), so a single step is exact too. A step
    whose phase bound exceeds 2^26 rad raises ``ArithmeticError``.

    Each window has the squarings and series length of its largest step: a
    shorter series starts with zero coefficients, which keep (f0, f1, f2) at
    (1, 0, 0) exactly, and only the rare squarings are masked. Every array is
    in ``work``, where each formula is evaluated in its written order and each
    complex product out of place (``_product``). Returns the entry-major (3, 3, w, n) exponentials.
    """
    a01, a02, a12 = np.multiply(rows, dt, out=rows)
    d0, d1, d2, c0, c1, t = _carve(work.real, (6,) + a01.shape)
    q02, f0, f1, f2, g, h, p, term, spare = _carve(work.scratch, (9,) + a01.shape)
    # a step far beyond the phase bound below may overflow here; the bound
    # check rejects its inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        # |A01|^2, |A02|^2, |A12|^2 in d0, c1, d1, then the diagonal of A^2
        for x, s in zip((a01, a02, a12), (d0, c1, d1)):
            np.add(np.square(x.real, out=s), np.square(x.imag, out=t), out=s)
        np.add(c1, d1, out=d2)
        np.add(d0, d1, out=d1)
        np.add(d0, c1, out=d0)
        # c1 is half the trace of A^2
        np.multiply(0.5, np.add(np.add(d0, d1, out=c1), d2, out=c1), out=c1)
        np.multiply(a01, a12, out=q02)
        np.multiply(q02.real, a02.real, out=c0)
        np.multiply(2.0, np.add(c0, np.multiply(q02.imag, a02.imag, out=t), out=c0), out=c0)
    squarings, terms = [], []
    for peak in c1.max(axis=-1).tolist():
        # sqrt(tr A^2) bounds every eigenvalue of A in magnitude
        radius = math.sqrt(2.0 * peak)
        # roundoff grows as ~1e-16 * radius: above 2^26 rad it passes the
        # 1e-8 rad of _AREA_TOL ("not <=" also rejects NaN)
        if not radius <= 2.0**26:
            raise ArithmeticError(
                f"step phase bound {radius} rad exceeds 2**26 rad; use more steps"
            )
        squarings.append(math.ceil(math.log2(radius / 0.5)) if radius > 0.5 else 0)
        radius = radius * 0.5 ** squarings[-1]
        # the first omitted term, radius^(terms+1)/(terms+1)!, is below 1e-17
        count, omitted = 0, radius
        while omitted > 1e-17:
            count += 1
            omitted *= radius / (count + 1)
        terms.append(count)
    lengths, s = np.reshape(terms, (-1, 1)), np.reshape(squarings, (-1, 1))  # per window
    if max(squarings):  # real products by 1.0 change nothing
        np.multiply(c1, np.ldexp(1.0, -2 * s), out=c1)
        np.multiply(c0, np.ldexp(1.0, -3 * s), out=c0)
    # Horner on the scaled A: f <- I + (-i/k) A f, where
    # A (f0 I + f1 A + f2 A^2) = c0 f2 I + (f0 + c1 f2) A + f1 A^2
    f0.fill(1.0)
    f1.fill(0.0)
    f2.fill(0.0)
    # c0 and c1 cast to complex once, not by each Horner product that reads them
    z0, z1 = p, spare
    np.copyto(z0, c0)
    np.copyto(z1, c1)
    for k in range(max(terms), 0, -1):
        x = -1j / k if k <= min(terms) else np.where(lengths >= k, -1j / k, 0j)
        # the new f0 and f1 go to g and h, then f2 is overwritten: both read it
        np.add(1.0, _product(g, term, x, z0, f2), out=g)
        np.multiply(x, np.add(f0, np.multiply(z1, f2, out=term), out=term), out=h)
        np.multiply(x, f1, out=f2)
        f0, f1, g, h = g, h, f0, f1
    for i in range(max(squarings)):
        # (f0, f1, f2) squared, into g, h and p
        np.add(_product(g, term, f0, f0), _product(term, spare, 2.0, c0, f1, f2), out=g)
        np.add(_product(h, p, 2.0, f0, f1), _product(term, spare, 2.0, c1, f1, f2), out=h)
        np.add(h, _product(term, spare, c0, f2, f2), out=h)
        np.add(_product(p, term, 2.0, f0, f2), _product(term, spare, f1, f1), out=p)
        np.add(p, _product(term, spare, c1, f2, f2), out=p)
        for f, squared in zip((f0, f1, f2), (g, h, p)):
            np.copyto(f, squared, where=s > i)
    # f1 and f2 are scaled even by 1, as a complex product by 1 can flip the
    # sign of a zero; window by window, as numpy would copy a (w, 1) factor
    # through its broadcast buffers
    for k, count in enumerate(squarings):
        f1[k] *= math.ldexp(1.0, -count)
        f2[k] *= math.ldexp(1.0, -2 * count)
    # f0 I + f1 A + f2 A^2, entry by entry; A and A^2 are Hermitian
    q01 = np.multiply(a02, np.conjugate(a12, out=term), out=g)
    q12 = np.multiply(np.conjugate(a01, out=term), a02, out=h)
    e = _carve(work.exponentials, (3, 3) + f0.shape)
    for i, d in enumerate((d0, d1, d2)):
        np.add(np.multiply(f2, d, out=e[i, i]), f0, out=e[i, i])
    for (i, j), a, q in zip(_UPPER, (a01, a02, a12), (q01, q02, q12)):
        np.add(np.multiply(f1, a, out=e[i, j]), np.multiply(f2, q, out=term), out=e[i, j])
        np.multiply(f1, np.conjugate(a, out=term), out=e[j, i])
        np.add(e[j, i], np.multiply(f2, np.conjugate(q, out=term), out=spare), out=e[j, i])
    return e


def _propagate(drives: list[CouplingSet], windows: list, grid: TimeGrid) -> np.ndarray:
    """The unprojected step products of w <= 3 drive sets over their own windows
    in one chunk loop: (w, 3, 3), each bit for bit what the loop gives it alone.
    Every chunk works in this thread's workspace and allocates no array but
    the drives' own; its entry-major products are folded in as (w, 3, 3) views."""
    steps = grid.steps
    for t0, t1 in windows:
        if not t1 > t0:
            raise ValueError(f"window must satisfy t1 > t0, got ({t0}, {t1})")
    t0, t1 = np.array(windows, dtype=float).T[:, :, None]
    dt = (t1 - t0) / steps
    u = np.tile(np.eye(3, dtype=complex), (len(windows), 1, 1))
    work = _workspace()
    work.busy = True
    try:
        for first in range(0, steps, _CHUNK):
            n = min(_CHUNK, steps - first)
            midpoints = np.add(_MIDPOINTS[:n], first, out=work.midpoints[:n])
            times = _carve(work.times, (len(windows), n))
            np.add(t0, np.multiply(midpoints, dt, out=times), out=times)
            rows = _carve(work.rows, (3,) + times.shape)
            for k, fields in enumerate(drives):
                _drive_rows(times[k], fields, out=rows[:, k])
            finite = np.isfinite(rows, out=_carve(work.finite, rows.shape))
            if not finite.all():
                bad = float(times.flat[np.argmin(finite.all(axis=0))])
                raise ArithmeticError(f"non-finite drive amplitude at t = {bad}")
            u = _ordered_product(_step_exponentials(rows, dt, work), work).transpose(2, 0, 1) @ u
    finally:
        work.busy = False
    return u


def _polar(u: np.ndarray) -> np.ndarray:
    """The unitary polar factor of each product in a (w, 3, 3) stack: its steps'
    ~2e-16 unitarity defects add up, unprojected, to ~4.6e-13 in 4000 steps of
    one window, and in a protocol to ~3.1e-13 at 4096 and ~9.5e-13 at 16384
    steps per step, against a 1e-12 bound."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def propagate(fields: CouplingSet, window: tuple[float, float], grid: TimeGrid) -> np.ndarray:
    """Time-ordered evolution over ``window``, second-order in the step size.

    Each sub-interval applies the exponential of the midpoint-evaluated
    Hamiltonian. Midpoints are taken ``_CHUNK`` at a time: per chunk the
    drive rows, their step exponentials (``_step_exponentials``) and a
    pairwise time-ordered product, all in the calling thread's workspace,
    1.3 MiB made on its first chunk. Memory does not grow with ``grid.steps``.
    """
    return _polar(_propagate([fields], [window], grid))[0]


def _check_areas(schedule: PulseSchedule) -> None:
    # each test is written as "not within tolerance", so a NaN area fails it
    area_a = pulse_area(schedule.step_a)
    if not abs(area_a - _STEP_AREAS[0]) <= _AREA_TOL:
        raise ScheduleError(f"step A area must be pi/4, got {area_a}")
    area_b = pulse_area(schedule.step_b)
    if not abs(area_b - _STEP_AREAS[1]) <= _AREA_TOL:
        raise ScheduleError(f"step B area must be pi/2, got {area_b}")
    # Step C admits -pi/4 or any (k + 3/4)*pi: congruent to -pi/4 mod pi.
    area_c = pulse_area(schedule.step_c)
    residue = (area_c - _STEP_AREAS[2]) % math.pi
    if not min(residue, math.pi - residue) <= _AREA_TOL:
        raise ScheduleError(f"step C area must equal (k + 3/4)*pi, got {area_c}")


@lru_cache(maxsize=128)
def _protocol_unitary(schedule: PulseSchedule, grid: TimeGrid) -> dict[Chirality, np.ndarray]:
    """Both enantiomers' U_C @ (U_B @ (U_A @ I)) from the three right-handed steps."""
    drives = [signed_couplings(c, Chirality.R) for c in step_couplings(schedule)]
    windows = [(step.t_start, step.t_end) for step in schedule.steps]
    u = _propagate(drives, windows, grid)[[0, 0, 1, 2, 2]]  # A_L, A_R, B, C_L, C_R
    _mirror_13(u[::3], Chirality.L)
    u = _polar(u)
    return dict(zip(Chirality, u[3:] @ (u[2] @ (u[:2] @ np.eye(3, dtype=complex)))))


def run_protocol(
    schedule: PulseSchedule, chirality: Chirality, steps_per_step: int = DEFAULT_STEPS_PER_STEP
) -> np.ndarray:
    """Propagate the full three-step protocol with chirality-signed drives."""
    _check_areas(schedule)
    # the grid checks the step count before the cache can match 2.0 or True to 2 or 1
    return _protocol_unitary(schedule, TimeGrid(steps_per_step))[chirality].copy()
