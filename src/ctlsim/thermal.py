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
    "boltzmann_exponent",
    "check_loop_levels",
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
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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

    @property
    def total_energy_ghz(self) -> float:
        return self.vib_energy_ghz + self.rot.energy_ghz


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


def boltzmann_exponent(level_freq_ghz: float, t_k: float) -> float:
    """Dimensionless h*f / (kB*T) for a level frequency in GHz."""
    if t_k <= 0.0:
        raise ValueError(f"temperature must be > 0, got {t_k}")
    return level_freq_ghz * K_PER_GHZ / t_k


def _ground_indicator(energies_ghz: np.ndarray) -> np.ndarray:
    """Zero-temperature limit weights: 1 on the minimal energy, ties included."""
    e_min = energies_ghz.min()
    tol = _TIE_RTOL * max(1.0, abs(e_min))
    return (energies_ghz - e_min <= tol).astype(float)


def _shifted_weights(energies_ghz: np.ndarray, t_k: float) -> np.ndarray:
    """Boltzmann factors exp(-h f/kB T), rescaled so the largest is 1."""
    x = energies_ghz * K_PER_GHZ / t_k
    return np.exp(-(x - x.min()))


def _two_temperature_weights(
    vib_ghz: np.ndarray, rot_ghz: np.ndarray, temps: Temperatures
) -> np.ndarray:
    """Relative weights exp(-h f_vib/kB T_vib) exp(-h f_rot/kB T_rot).

    The combined exponent is shifted so the largest weight is 1, which keeps
    the ratios exact for any energy scale. Zero temperatures are exact
    limits: the frozen degree of freedom restricts weight to its ground
    levels (ties included), the other one remains thermal within that set.
    """
    if temps.t_rot_k == 0.0 and temps.t_vib_k == 0.0:
        return _ground_indicator(vib_ghz + rot_ghz)
    if temps.t_vib_k == 0.0 or temps.t_rot_k == 0.0:
        frozen, thermal, t_k = (
            (vib_ghz, rot_ghz, temps.t_rot_k)
            if temps.t_vib_k == 0.0
            else (rot_ghz, vib_ghz, temps.t_vib_k)
        )
        weights = np.zeros(len(frozen))
        mask = _ground_indicator(frozen) > 0.0
        weights[mask] = _shifted_weights(thermal[mask], t_k)
        return weights
    x = vib_ghz * K_PER_GHZ / temps.t_vib_k + rot_ghz * K_PER_GHZ / temps.t_rot_k
    return np.exp(-(x - x.min()))


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


def ctls_populations(
    levels: Sequence[RoVibLevel], temps: Temperatures
) -> OccupationTriple:
    """Thermal populations of the three addressed levels.

    Each level is weighted by exp(-h f_vib/kB T_vib) * exp(-h f_rot/kB T_rot)
    and normalized over the three levels only; the loop addresses single M
    sublevels, so no degeneracy factors enter. A zero temperature is handled
    as the exact limit: weight collapses onto the minimal energy of the
    frozen degree of freedom (minimal total energy if both temperatures are
    zero), with exact ties split equally.
    """
    check_loop_levels(levels)
    vib = np.array([lv.vib_energy_ghz for lv in levels])
    rot = np.array([lv.rot.energy_ghz for lv in levels])
    weights = _two_temperature_weights(vib, rot, temps)
    p = weights / weights.sum()
    return OccupationTriple(p1=p[0], p2=p[1], p3=p[2])


def rotational_partition(
    constants: RotationalConstants, t_rot_k: float, rel_tol: float = 1e-8
) -> float:
    """Rotational partition function with (2J+1) M degeneracy.

    J blocks are accumulated until a whole block contributes less than
    rel_tol times the running sum.
    """
    if t_rot_k <= 0.0:
        raise ValueError(f"t_rot_k must be > 0, got {t_rot_k}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    total = 0.0
    for j in range(_J_CAP + 1):
        energies = block_energies(j, constants)
        contribution = (2 * j + 1) * float(
            np.exp(-energies * K_PER_GHZ / t_rot_k).sum()
        )
        total += contribution
        if contribution < rel_tol * total:
            return total
    raise ConvergenceError(
        f"rotational partition sum did not converge below J = {_J_CAP} "
        f"(T = {t_rot_k} K, rel_tol = {rel_tol})"
    )


def vibrational_partition(
    modes: Iterable[VibrationalMode], t_vib_k: float
) -> float:
    """Product of truncated harmonic-ladder sums over the declared modes."""
    if t_vib_k < 0.0:
        raise ValueError(f"t_vib_k must be >= 0, got {t_vib_k}")
    z = 1.0
    for mode in modes:
        if t_vib_k == 0.0:
            continue  # only v = 0 survives; the ladder sum is 1
        x = boltzmann_exponent(1000.0 * mode.frequency_thz, t_vib_k)
        z *= sum(math.exp(-v * x) for v in range(mode.max_quanta + 1))
    return z


def global_proportion(
    level: RoVibLevel,
    constants: RotationalConstants,
    modes: Iterable[VibrationalMode],
    temps: Temperatures,
    rel_tol: float = 1e-8,
) -> float:
    """Population share of one level against the full ro-vibrational manifold.

    The normalizer factorizes as Z_vib(T_vib) * Z_rot(T_rot) because
    rigid-rotor level energies do not depend on the vibrational state.
    """
    z_rot = rotational_partition(constants, temps.t_rot_k, rel_tol)
    z_vib = vibrational_partition(modes, temps.t_vib_k)
    if temps.t_vib_k == 0.0:
        p_vib = 1.0 if level.vib_quantum == 0 else 0.0
    else:
        p_vib = math.exp(-boltzmann_exponent(level.vib_energy_ghz, temps.t_vib_k))
    p_rot = math.exp(-boltzmann_exponent(level.rot.energy_ghz, temps.t_rot_k))
    return p_vib * p_rot / (z_vib * z_rot)


def yield_eta(p1: float) -> float:
    """Fraction of a racemic mixture converted to pure enantiomers, P1 / 2."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"P1 must lie in [0, 1], got {p1}")
    return p1 / 2.0
