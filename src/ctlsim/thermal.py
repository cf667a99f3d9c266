"""Boltzmann populations at separate rotational and vibrational temperatures.

The rotational and vibrational degrees of freedom thermalize at different
rates in buffer-gas and supersonic sources, so each level carries two
Boltzmann factors: exp(-h*f_vib / kB*T_vib) * exp(-h*f_rot / kB*T_rot).
Within the three addressed levels the normalizer is the three-term sum; for
proportions relative to the whole molecule the normalizer is the full
ro-vibrational partition function including M degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rotor import RotationalConstants, RotorLevel, block_energies

__all__ = [
    "H_PLANCK",
    "K_BOLTZMANN",
    "K_PER_GHZ",
    "Temperatures",
    "VibrationalMode",
    "RoVibLevel",
    "OccupationTriple",
    "ConvergenceError",
    "check_loop_levels",
    "loop_populations",
    "ctls_populations",
    "rotational_partition",
    "vibrational_partition",
    "global_proportion",
    "yield_eta",
]

H_PLANCK = 6.62607015e-34  # J s, exact SI
K_BOLTZMANN = 1.380649e-23  # J/K, exact SI
K_PER_GHZ = H_PLANCK / K_BOLTZMANN * 1e9  # kelvin per GHz of level frequency

_J_CAP = 200  # hard truncation cap for partition sums
_TIE_RTOL = 1e-12  # relative tolerance for energy ties in zero-temperature limits


class ConvergenceError(RuntimeError):
    """A truncated sum failed to converge within its hard cap."""


@dataclass(frozen=True)
class Temperatures:
    """Effective rotational and vibrational temperatures in kelvin."""

    t_rot_k: float
    t_vib_k: float

    def __post_init__(self) -> None:
        for name in ("t_rot_k", "t_vib_k"):
            _temperature_grid(name, getattr(self, name))


@dataclass(frozen=True)
class VibrationalMode:
    """A harmonic vibrational mode with a truncated ladder."""

    name: str
    frequency_thz: float
    max_quanta: int = 5

    def __post_init__(self) -> None:
        if not np.isfinite(self.frequency_thz) or self.frequency_thz <= 0.0:
            raise ValueError(f"mode frequency must be finite and > 0, got {self.frequency_thz}")
        if self.max_quanta < 1:
            raise ValueError(f"max_quanta must be >= 1, got {self.max_quanta}")


@dataclass(frozen=True)
class RoVibLevel:
    """A product level |v>|J_tau M>; energies split into vib and rot parts.

    ``vib_energy_thz`` is the harmonic ladder energy v * f_mode;
    anharmonicity is ignored.
    """

    vib_quantum: int
    vib_energy_thz: float
    rot: RotorLevel

    def __post_init__(self) -> None:
        if self.vib_quantum < 0:
            raise ValueError(f"vib_quantum must be >= 0, got {self.vib_quantum}")
        if self.vib_energy_thz < 0.0:
            raise ValueError(f"vib_energy_thz must be >= 0, got {self.vib_energy_thz}")

    @property
    def vib_energy_ghz(self) -> float:
        return 1000.0 * self.vib_energy_thz


@dataclass(frozen=True)
class OccupationTriple:
    """Normalized populations of the three addressed levels."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        total = self.p1 + self.p2 + self.p3
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1 within 1e-12, got {total}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3])


def _temperature_grid(name: str, t_k: float | np.ndarray, positive: bool = False) -> np.ndarray:
    """A float or 1-D array of temperatures in kelvin as a 1-D float array.

    Every value must be finite and >= 0 (> 0 when ``positive``); the first
    value that is not is named in the error.
    """
    t = np.atleast_1d(np.asarray(t_k, dtype=float))
    if t.ndim != 1:
        raise ValueError(f"{name} must be a float or a 1-D array, got shape {t.shape}")
    bad = ~np.isfinite(t) | (t <= 0.0 if positive else t < 0.0)
    if bad.any():
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {t[bad][0]}")
    return t


def _ground(energies_ghz: np.ndarray) -> np.ndarray:
    """Mask of the minimal energy, ties included: a frozen degree of freedom."""
    e_min = energies_ghz.min()
    return energies_ghz - e_min <= _TIE_RTOL * max(1.0, abs(e_min))


def check_loop_levels(levels: Sequence[RoVibLevel]) -> None:
    """Require exactly three distinct levels for a loop.

    Levels are told apart by vibrational quantum and rotor level (J, tau);
    M sublevels of one rotor level count as the same level.
    """
    if len(levels) != 3:
        raise ValueError(f"expected exactly 3 levels, got {len(levels)}")
    identities = {(lv.vib_quantum, lv.rot.j, lv.rot.tau) for lv in levels}
    if len(identities) != 3:
        raise ValueError("the three levels must be distinct")


def loop_populations(
    levels: Sequence[RoVibLevel], t_rot_k: float | np.ndarray, t_vib_k: float
) -> np.ndarray:
    """Thermal populations (p1, p2, p3) of the three addressed levels per T_rot.

    Returns shape (N, 3) for N rotational temperatures. Each level is
    weighted by exp(-h f_vib/kB T_vib) * exp(-h f_rot/kB T_rot) and
    normalized over the three levels only; the loop addresses single M
    sublevels, so no degeneracy factors enter. The combined exponent is
    shifted so the largest weight is 1, which keeps the ratios exact for any
    energy scale. A zero temperature is handled as the exact limit: weight
    collapses onto the minimal energy of the frozen degree of freedom
    (minimal total energy if both temperatures are zero), with exact ties
    split equally, and the other one stays thermal within that set. A
    positive temperature so small that one of its exponents overflows gives
    the same limit: every weight outside that ground set underflows to 0.
    """
    check_loop_levels(levels)
    t_rot = _temperature_grid("t_rot_k", t_rot_k)
    (t_vib,) = _temperature_grid("t_vib_k", t_vib_k)
    vib = np.array([lv.vib_energy_ghz for lv in levels])
    rot = np.array([lv.rot.energy_ghz for lv in levels])
    with np.errstate(over="ignore"):  # an infinite exponent freezes its row below
        x = rot * K_PER_GHZ / np.where(t_rot > 0.0, t_rot, np.inf)[:, None]
        x_vib = vib * K_PER_GHZ / (t_vib if t_vib > 0.0 else np.inf)
    hot = (t_rot > 0.0) & np.isfinite(x).all(axis=1)
    x[~hot] = 0.0
    if t_vib > 0.0 and np.isfinite(x_vib).all():
        x += x_vib
        allowed_hot, allowed_cold = np.ones(3, bool), _ground(rot)
    else:
        allowed_hot, allowed_cold = _ground(vib), _ground(vib + rot)
    x = np.where(np.where(hot[:, None], allowed_hot, allowed_cold), x, np.inf)
    weights = np.exp(-(x - x.min(axis=1, keepdims=True)))
    return weights / weights.sum(axis=1, keepdims=True)


def ctls_populations(
    levels: Sequence[RoVibLevel], temps: Temperatures
) -> OccupationTriple:
    """``loop_populations`` at one temperature pair."""
    return OccupationTriple(*loop_populations(levels, temps.t_rot_k, temps.t_vib_k)[0])


def rotational_partition(
    constants: RotationalConstants, t_rot_k: float | np.ndarray, rel_tol: float = 1e-8
) -> float | np.ndarray:
    """Rotational partition function with (2J+1) M degeneracy.

    A float ``t_rot_k`` gives a float, a 1-D array an array of its length.
    One walk over the J blocks serves the whole grid: each temperature
    accumulates blocks until a whole block contributes less than rel_tol
    times its running sum.
    """
    t = _temperature_grid("t_rot_k", t_rot_k, positive=True)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    total = np.zeros(len(t))
    active = np.arange(len(t))
    for j in range(_J_CAP + 1):
        energies = block_energies(j, constants)
        with np.errstate(over="ignore"):  # weights below the float range are 0
            contribution = (2 * j + 1) * np.exp(
                -energies * K_PER_GHZ / t[active, None]
            ).sum(axis=1)
        total[active] += contribution
        active = active[~(contribution < rel_tol * total[active])]
        if not active.size:
            return total if np.ndim(t_rot_k) else float(total[0])
    raise ConvergenceError(
        f"rotational partition sum did not converge below J = {_J_CAP} "
        f"(T = {t[active[0]]} K, rel_tol = {rel_tol})"
    )


def vibrational_partition(
    modes: Iterable[VibrationalMode], t_vib_k: float
) -> float:
    """Product of truncated harmonic-ladder sums over the declared modes."""
    _temperature_grid("t_vib_k", t_vib_k)
    z = 1.0
    for mode in modes:
        if t_vib_k == 0.0:
            continue  # only v = 0 survives; the ladder sum is 1
        x = 1000.0 * mode.frequency_thz * K_PER_GHZ / t_vib_k
        # v = 0 is the 1.0 start: with x = inf its term exp(-0 * inf) would be NaN
        z *= sum((math.exp(-v * x) for v in range(1, mode.max_quanta + 1)), 1.0)
    return z


def global_proportion(
    levels: Sequence[RoVibLevel],
    constants: RotationalConstants,
    modes: Iterable[VibrationalMode],
    t_rot_k: float | np.ndarray,
    t_vib_k: float,
) -> np.ndarray:
    """Population share of each level against the full ro-vibrational manifold.

    Returns shape (N, len(levels)) for N rotational temperatures. The
    normalizer factorizes as Z_vib(T_vib) * Z_rot(T_rot) because rigid-rotor
    level energies do not depend on the vibrational state; each factor is
    computed once for the grid.
    """
    t_rot = _temperature_grid("t_rot_k", t_rot_k, positive=True)
    z_rot = rotational_partition(constants, t_rot)
    z_vib = vibrational_partition(modes, t_vib_k)
    with np.errstate(over="ignore"):  # weights below the float range are 0
        if t_vib_k == 0.0:
            p_vib = np.array([float(lv.vib_quantum == 0) for lv in levels])
        else:
            p_vib = np.exp(-(np.array([lv.vib_energy_ghz for lv in levels]) * K_PER_GHZ / t_vib_k))
        p_rot = np.exp(-(np.array([lv.rot.energy_ghz for lv in levels]) * K_PER_GHZ / t_rot[:, None]))
    return p_vib * p_rot / (z_vib * z_rot[:, None])


def yield_eta(p1: float | np.ndarray) -> float | np.ndarray:
    """Fraction of a racemic mixture converted to pure enantiomers, P1 / 2."""
    if not np.all((0.0 <= p1) & (p1 <= 1.0)):
        raise ValueError(f"P1 must lie in [0, 1], got {p1}")
    return p1 / 2.0
