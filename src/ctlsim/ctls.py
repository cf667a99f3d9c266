"""Chirality-dependent couplings and closed-form protocol unitaries.

The protocol's two rules live here and nowhere else:

- ``_STEP_AREAS``, the pulse areas of steps A, B and C as the base drives
  carry them: pi/4 on (1,3), pi/2 split over (1,2) and (2,3), and -pi/4 on
  (1,3). ``propagator`` builds and checks its schedules from them.
- The sign rule ``_signed_13``: the left-handed species sees the negated
  (1,3) amplitude, so the loop phases arg(W12 * W23 * conj(W13)) of the
  two enantiomers differ by pi.

``signed_couplings`` applies the sign rule to drives, ``step_unitaries`` to the
step areas, and ``_mirror_13`` to operators U of drives on (1,3) alone as the
gauge D U D, D = diag(1, 1, -1). Under it the protocol returns left-handed
molecules to the ground state and transfers right-handed ones from |1> to |2>.

A drive is its Rabi function W_nm(t): the ``CouplingSet`` slot it fills,
``drive_12``, ``drive_23`` or ``drive_13``, says which transition it couples,
and a slot left out is undriven.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "Chirality",
    "CouplingSet",
    "signed_couplings",
    "step_unitaries",
    "total_unitary",
]

RabiFunction = Callable[[np.ndarray], np.ndarray | complex]

_SQ2 = 1.0 / np.sqrt(2.0)

# Pulse areas of steps A, B and C in radians, as the base drives carry them.
# Step C also admits any (k + 3/4)*pi, the same area plus a multiple of pi.
_STEP_AREAS = (np.pi / 4.0, np.pi / 2.0, -np.pi / 4.0)


class Chirality(enum.Enum):
    """Handedness label of a chiral molecule."""

    L = "L"
    R = "R"


def _undriven(t) -> complex:
    """The drive of a transition no field couples: zero at every time."""
    return 0j


@dataclass(frozen=True)
class CouplingSet:
    """The three drives of the loop.

    Each drive is the complex coupling amplitude W_nm(t) in rad/s of the
    transition its field names, as a function of time in seconds. It takes
    a scalar or an array of times and returns a value of the same shape; a
    time-independent amplitude may return a scalar for any input, which
    callers broadcast. A detuning Delta is a phase e^{i Delta t} folded into
    the amplitude. An absent drive is zero: ``CouplingSet()`` drives nothing.
    """

    drive_12: RabiFunction = _undriven
    drive_23: RabiFunction = _undriven
    drive_13: RabiFunction = _undriven


def _signed_13(value, chirality: Chirality):
    """The sign rule: a (1,3) amplitude or area as the species ``chirality``
    sees it, negated for the left-handed one and unchanged for the
    right-handed one."""
    return -value if chirality is Chirality.L else value


def _mirror_13(u: np.ndarray, chirality: Chirality) -> None:
    """The sign rule, in place, on a (..., 3, 3) stack of operators of drives on
    (1,3) alone, for which H_L = -H_R = D H_R D with D = diag(1, 1, -1): for L,
    D u D, level 3's couplings to levels 1 and 2 signed by ``_signed_13``."""
    u[..., :2, 2] = _signed_13(u[..., :2, 2], chirality)
    u[..., 2, :2] = _signed_13(u[..., 2, :2], chirality)


def signed_couplings(base: CouplingSet, chirality: Chirality) -> CouplingSet:
    """The drives a species of handedness ``chirality`` sees under the base
    drives: W12 and W23 unchanged, and W13 signed by ``_signed_13``, so
    W13_L = -W13_R and the loop phases differ by pi."""
    return replace(base, drive_13=lambda t: _signed_13(base.drive_13(t), chirality))


def _pulse_13(theta: float) -> np.ndarray:
    """exp(-i * theta * (|1><3| + |3><1|)), a pulse of area ``theta`` on (1,3)."""
    u = np.eye(3, dtype=complex)
    u[0, 0] = u[2, 2] = np.cos(theta)
    u[0, 2] = u[2, 0] = -1j * np.sin(theta)
    return u


_STEP_B = np.array(
    [
        [0.5, _SQ2, -0.5j],
        [-_SQ2, 0.0, -1j * _SQ2],
        [0.5j, -1j * _SQ2, 0.5],
    ]
)

_TOTAL = {
    Chirality.L: np.array(
        [[1.0, 0.0, 0.0], [0.0, 0.0, -1j], [0.0, -1j, 0.0]]
    ),
    Chirality.R: np.array(
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    ),
}


def step_unitaries(chirality: Chirality) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form unitaries (U_A, U_B, U_C) of the protocol steps.

    Steps A and C are pulses on the (1,3) pair whose areas are the
    ``_STEP_AREAS`` signed by ``_signed_13``. Step B does not drive (1,3)
    and is the same for both handednesses.
    """
    area_a, _, area_c = _STEP_AREAS
    return (
        _pulse_13(_signed_13(area_a, chirality)),
        _STEP_B.copy(),
        _pulse_13(_signed_13(area_c, chirality)),
    )


def total_unitary(chirality: Chirality) -> np.ndarray:
    """Composite protocol unitary.

    Exchanges the |2> and |3> populations for the left-handed species
    (leaving |1> untouched) and the |1> and |2> populations for the
    right-handed one.
    """
    return _TOTAL[chirality].copy()
