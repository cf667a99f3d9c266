"""End-to-end transfer experiments: thermal states through the protocol.

Assembles the pieces: pick three ro-vibrational levels, populate them
thermally, run the pulse protocol for both handednesses, and quantify the
resulting enrichment. Sweep helpers generate the excess, population and
yield curves against rotational temperature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ctls import Chirality, total_unitary
from .propagator import ideal_schedule, run_protocol
from .rotor import RotationalConstants, RotorLevel, level_index, rotor_levels
from .thermal import (
    RoVibLevel,
    Temperatures,
    VibrationalMode,
    _populations,
    check_loop_levels,
    ctls_populations,
    global_proportion,
    loop_populations,
)

__all__ = [
    "RO_VIBRATIONAL",
    "PURELY_ROTATIONAL",
    "LABELINGS",
    "CtlsConfig",
    "rotor_level_for_labels",
    "make_level",
    "check_labeling",
    "check_mode",
    "final_states",
    "enantiomeric_excess",
    "excess_sweep",
    "population_sweep",
    "yield_sweep",
    "default_sweep_grid",
]

RO_VIBRATIONAL = "ro_vibrational"
PURELY_ROTATIONAL = "purely_rotational"
_MODES = (RO_VIBRATIONAL, PURELY_ROTATIONAL)

LABELINGS = ("tau", "ka_kc")

# Bounds the sweep's temporaries: one partition walk holds points x (2J+1) floats.
_MAX_POINTS = 10_000


def rotor_level_for_labels(
    constants: RotationalConstants,
    j: int,
    first: int,
    second: int,
    labeling: str,
) -> RotorLevel:
    """Resolve a rotor level from its two printed subscript digits.

    Under ``tau`` the digits are read as (tau, M); under ``ka_kc`` the same
    digits are read as (K_a, K_c), mapped through tau = K_a - K_c. Both
    conventions agree on which J block is meant, they only reorder levels
    within it.
    """
    check_labeling(labeling)
    if labeling == "tau":
        tau = first
        if not -j <= second <= j:
            raise ValueError(f"M must lie in [-J, J], got M={second} for J={j}")
    else:
        ka, kc = first, second
        if not (0 <= ka <= j and 0 <= kc <= j and ka + kc in (j, j + 1)):
            raise ValueError(
                f"(K_a, K_c) = ({ka}, {kc}) is not a valid label for J = {j}"
            )
        tau = ka - kc
    index = level_index(j, tau)  # before the block is built: J may be huge
    return rotor_levels(j, constants)[index]


def check_labeling(labeling: str) -> None:
    """Raise ``ValueError`` unless ``labeling`` names a level-label convention;
    the message leaves the field to the caller, as a scenario names it."""
    if labeling not in LABELINGS:
        raise ValueError(f"must be one of {LABELINGS}, got {labeling!r}")


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` names a loop mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def make_level(
    constants: RotationalConstants,
    modes: Sequence[VibrationalMode],
    vib: int,
    j: int,
    first: int,
    second: int,
    labeling: str,
) -> RoVibLevel:
    """Build a ro-vibrational level; the vibrational quantum excites the
    first declared mode."""
    if vib > 0 and not modes:
        raise ValueError("a vibrationally excited level requires a declared mode")
    if vib > 0 and vib > modes[0].max_quanta:
        raise ValueError(
            f"vib quantum {vib} exceeds max_quanta {modes[0].max_quanta} "
            f"of mode {modes[0].name!r}"
        )
    vib_energy_thz = vib * modes[0].frequency_thz if vib > 0 else 0.0
    rot = rotor_level_for_labels(constants, j, first, second, labeling)
    return RoVibLevel(vib_quantum=vib, vib_energy_thz=vib_energy_thz, rot=rot)


@dataclass(frozen=True)
class CtlsConfig:
    """A concrete three-level loop choice for one molecule."""

    mode: str
    constants: RotationalConstants
    modes: tuple[VibrationalMode, ...]
    levels: tuple[RoVibLevel, RoVibLevel, RoVibLevel]

    def __post_init__(self) -> None:
        check_mode(self.mode)
        check_loop_levels(self.levels)
        quanta = tuple(level.vib_quantum for level in self.levels)
        if self.mode == RO_VIBRATIONAL and (quanta[0] != 0 or 0 in quanta[1:]):
            raise ValueError(
                f"ro_vibrational loop needs vib quanta (0, >0, >0), got {quanta}"
            )
        if self.mode == PURELY_ROTATIONAL and quanta != (0, 0, 0):
            raise ValueError(
                f"purely_rotational loop needs vib quanta (0, 0, 0), got {quanta}"
            )

    def populations(self, temps: Temperatures) -> np.ndarray:
        """Loop populations (p1, p2, p3) at one temperature pair, shape (3,)."""
        return ctls_populations(self.levels, temps)


def final_states(
    populations: np.ndarray, method: str = "analytic"
) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices after the protocol for the two handednesses.

    ``populations`` is the (3,) row (p1, p2, p3): each value in [0, 1], the
    sum 1 within 1e-12. ``analytic`` conjugates by the closed-form composite
    unitaries; ``numeric`` propagates the canonical rectangular schedule.
    Either way the left-handed final occupations are (p1, p3, p2) and the
    right-handed ones (p2, p1, p3).
    """
    p = np.asarray(populations, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"populations must have shape (3,), got {p.shape}")
    if not ((0.0 <= p) & (p <= 1.0)).all():
        raise ValueError(f"populations must lie in [0, 1], got {p}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"populations must sum to 1 within 1e-12, got {p.sum()}")
    rho = np.diag(p).astype(complex)
    if method == "analytic":
        u_left = total_unitary(Chirality.L)
        u_right = total_unitary(Chirality.R)
    elif method == "numeric":
        schedule = ideal_schedule()
        u_left = run_protocol(schedule, Chirality.L)
        u_right = run_protocol(schedule, Chirality.R)
    else:
        raise ValueError(f"method must be 'analytic' or 'numeric', got {method!r}")
    return u_left @ rho @ u_left.conj().T, u_right @ rho @ u_right.conj().T


def enantiomeric_excess(populations: np.ndarray) -> float | np.ndarray:
    """Normalized population difference between enantiomers in level |2>.

    After the protocol the left-handed |2> occupation is p3 and the
    right-handed one is p1, giving |p3 - p1| / (p3 + p1). A (3,) row
    (p1, p2, p3) gives one excess, an (N, 3) array one per row.
    """
    p1, p3 = populations[..., 0], populations[..., 2]
    if np.any(p1 + p3 == 0.0):
        raise ValueError("excess undefined: levels 1 and 3 are both unoccupied")
    return np.abs(p3 - p1) / (p3 + p1)


def default_sweep_grid(
    t_min_k: float, t_max_k: float, points: int, log_scale: bool
) -> np.ndarray:
    """Temperature grid matching the log-scale axes of the result curves."""
    if not 0.0 < t_min_k < t_max_k < np.inf:
        raise ValueError(f"need 0 < t_min_k < t_max_k < inf, got ({t_min_k}, {t_max_k})")
    if not 2 <= points <= _MAX_POINTS:
        raise ValueError(f"points must lie in [2, {_MAX_POINTS}], got {points}")
    # a bound near the float maximum can round up past it; the check names it
    with np.errstate(over="ignore"):
        if log_scale:
            grid = np.logspace(np.log10(t_min_k), np.log10(t_max_k), points)
        else:
            grid = np.linspace(t_min_k, t_max_k, points)
    if not np.isfinite(grid).all():
        raise ValueError(f"t_max_k = {t_max_k} gives a non-finite grid point")
    return grid


def excess_sweep(
    config: CtlsConfig, t_rot_values: Sequence[float], t_vib_k: float
) -> np.ndarray:
    """Enantiomeric excess at each rotational temperature, in input order.

    A row where levels 1 and 3 both underflow to 0 (level 2 far below them)
    takes the limit of the excess instead: the populations of levels 1 and
    3 alone, normalized over the pair, whose frozen limit keeps the pair's
    own lowest level.
    """
    populations = loop_populations(config.levels, t_rot_values, t_vib_k)
    empty = populations[:, 0] + populations[:, 2] == 0.0
    if empty.any():
        pair = _populations(config.levels[::2], t_rot_values, t_vib_k)
        populations[empty, ::2] = pair[empty]
    return enantiomeric_excess(populations)


def population_sweep(
    config: CtlsConfig, t_rot_values: Sequence[float], t_vib_k: float
) -> np.ndarray:
    """Level populations (p1, p2, p3) per temperature; shape (N, 3)."""
    return loop_populations(config.levels, t_rot_values, t_vib_k)


def yield_sweep(
    config: CtlsConfig, t_rot_values: Sequence[float], t_vib_k: float
) -> np.ndarray:
    """Whole-manifold proportions and yield per temperature; shape (N, 4).

    Columns are (P1, P2, P3, eta) with eta = P1 / 2.
    """
    proportions = global_proportion(
        config.levels, config.constants, config.modes, t_rot_values, t_vib_k
    )
    return np.column_stack([proportions, proportions[:, 0] / 2.0])
