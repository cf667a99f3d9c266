"""Boltzmann populations at separate rotational and vibrational temperatures.

The rotational and vibrational degrees of freedom thermalize at different
rates in buffer-gas and supersonic sources, so each level carries two
Boltzmann factors: exp(-h*f_vib / kB*T_vib) * exp(-h*f_rot / kB*T_rot).
Within the three addressed levels the normalizer is the three-term sum; for
proportions relative to the whole molecule the normalizer is the full
ro-vibrational partition function including M degeneracy.

Every exponent h*E / kB*T comes from one kernel, ``_exponents``. T = 0 is
the exact limit T -> 0+: the exponent is 0 for E = 0 and inf for E > 0. An
exponent above the float range is inf as well, so a positive temperature
however small gives the same limit, and the partition sums and shares take
T = 0 too (Z_rot(0) = 1). Whole-manifold shares then keep only E = 0
levels; a loop keeps its own lowest level (``loop_populations``). Loop
populations are one (3,) array (p1, p2, p3) per temperature. The same
kernel normalizes any set of levels over that set (``_populations``): the
excess sweep reads it for levels 1 and 3 alone where both underflow in the
loop.
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
    max_quanta: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.frequency_thz) or self.frequency_thz <= 0.0:
            raise ValueError(f"mode frequency must be finite and > 0, got {self.frequency_thz}")
        if not 1 <= self.max_quanta <= 2**53:  # counts up to 2**53 are exact floats
            raise ValueError(f"max_quanta must lie in [1, 2**53], got {self.max_quanta}")


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


def _temperature_grid(name: str, t_k: float | np.ndarray) -> np.ndarray:
    """A float or 1-D array of temperatures in kelvin as a 1-D float array.

    Every value must be finite and >= 0; the first value that is not is
    named in the error.
    """
    t = np.atleast_1d(np.asarray(t_k, dtype=float))
    if t.ndim != 1:
        raise ValueError(f"{name} must be a float or a 1-D array, got shape {t.shape}")
    bad = ~np.isfinite(t) | (t < 0.0)
    if bad.any():
        raise ValueError(f"{name} must be finite and >= 0, got {t[bad][0]}")
    return t


def _exponents(energies_ghz: Sequence[float] | np.ndarray, t_k: float | np.ndarray) -> np.ndarray:
    """Boltzmann exponents h*E / kB*T, shape (len(t_k), len(energies_ghz)).

    T = 0 gives the limit T -> 0+: 0 where E = 0, inf where E > 0. An
    exponent above the float range is inf too.
    """
    e = np.asarray(energies_ghz, dtype=float)
    t = np.asarray(t_k, dtype=float).reshape(-1, 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = e * K_PER_GHZ / t
        if not t.all():  # T = 0 rows from E itself: E * K_PER_GHZ can underflow to 0
            x[t[:, 0] == 0.0] = np.where(e == 0.0, 0.0, e * np.inf)
    return x


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
    energy scale. A degree of freedom with an infinite exponent is frozen:
    weight collapses onto the loop's own minimal energy for it (minimal
    total energy if both are frozen), with exact ties split equally, and the
    other one stays thermal within that set.
    """
    check_loop_levels(levels)
    return _populations(levels, t_rot_k, t_vib_k)


def _populations(
    levels: Sequence[RoVibLevel], t_rot_k: float | np.ndarray, t_vib_k: float
) -> np.ndarray:
    """``loop_populations`` of any set of levels, normalized over that set:
    shape (N, len(levels)), frozen limits taken within the set."""
    t_rot = _temperature_grid("t_rot_k", t_rot_k)
    vib = np.array([lv.vib_energy_ghz for lv in levels])
    rot = np.array([lv.rot.energy_ghz for lv in levels])
    x = _exponents(rot, t_rot)
    (x_vib,) = _exponents(vib, _temperature_grid("t_vib_k", t_vib_k))
    hot = np.isfinite(x).all(axis=1)  # an infinite exponent freezes its row
    x[~hot] = 0.0
    if np.isfinite(x_vib).all():
        x += x_vib
        allowed_hot, allowed_cold = np.ones(len(levels), bool), _ground(rot)
    else:
        allowed_hot, allowed_cold = _ground(vib), _ground(vib + rot)
    x = np.where(np.where(hot[:, None], allowed_hot, allowed_cold), x, np.inf)
    weights = np.exp(-(x - x.min(axis=1, keepdims=True)))
    return weights / weights.sum(axis=1, keepdims=True)


def ctls_populations(levels: Sequence[RoVibLevel], temps: Temperatures) -> np.ndarray:
    """``loop_populations`` at one temperature pair: the (3,) row (p1, p2, p3)."""
    return loop_populations(levels, temps.t_rot_k, temps.t_vib_k)[0]


def rotational_partition(
    constants: RotationalConstants, t_rot_k: float | np.ndarray, rel_tol: float = 1e-8
) -> float | np.ndarray:
    """Rotational partition function with (2J+1) M degeneracy.

    A float ``t_rot_k`` gives a float, a 1-D array an array of its length.
    One walk over the J blocks serves the whole grid: each temperature
    accumulates blocks until a whole block contributes less than rel_tol
    times its running sum.
    """
    t = _temperature_grid("t_rot_k", t_rot_k)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    total = np.zeros(len(t))
    active = np.arange(len(t))
    for j in range(_J_CAP + 1):
        x = _exponents(block_energies(j, constants), t[active])
        # in place: a fresh (N, 2J+1) temporary costs as much as the exp
        contribution = (2 * j + 1) * np.exp(np.negative(x, out=x), out=x).sum(axis=1)
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
    """Product of truncated harmonic-ladder sums over the declared modes.

    Each ladder sum over v = 0..n of exp(-v x), x = h f / k T_vib, is the
    geometric sum expm1(-(n+1) x) / expm1(-x), so its cost does not grow
    with ``max_quanta``.
    """
    modes = tuple(modes)
    (exponents,) = _exponents(
        [1000.0 * mode.frequency_thz for mode in modes], _temperature_grid("t_vib_k", t_vib_k)
    )
    z = 1.0
    for mode, x in zip(modes, exponents.tolist()):
        n = mode.max_quanta
        # x = inf (T = 0 or overflow) gives -1 / -1 = 1, v = 0 alone;
        # x = 0 (f / T underflows) makes every term 1
        z *= math.expm1(-(n + 1) * x) / math.expm1(-x) if x > 0.0 else n + 1.0
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
    t_rot = _temperature_grid("t_rot_k", t_rot_k)
    z_rot = rotational_partition(constants, t_rot)
    z_vib = vibrational_partition(modes, t_vib_k)
    p_vib = np.exp(-_exponents([lv.vib_energy_ghz for lv in levels], t_vib_k))
    p_rot = np.exp(-_exponents([lv.rot.energy_ghz for lv in levels], t_rot))
    return p_vib * p_rot / (z_vib * z_rot[:, None])


def yield_eta(p1: float | np.ndarray) -> float | np.ndarray:
    """Fraction of a racemic mixture converted to pure enantiomers, P1 / 2."""
    if not np.all((0.0 <= p1) & (p1 <= 1.0)):
        raise ValueError(f"P1 must lie in [0, 1], got {p1}")
    return p1 / 2.0
