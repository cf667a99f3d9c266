"""Chirality-dependent couplings and closed-form protocol unitaries.

The three drive fields close a loop over the basis {|1>, |2>, |3>}, and the
loop phase arg(W12 * W23 * W31) is a physical observable that differs by pi
between the two enantiomers. Sign convention used throughout: the (1,3)
amplitude of the left-handed species is the negated base amplitude, which
makes the three-step protocol return left-handed molecules to the ground
state and transfer right-handed ones from |1> to |2>.

A drive is its Rabi function W_nm(t): the ``CouplingSet`` slot it fills,
``drive_12``, ``drive_23`` or ``drive_13``, says which transition it couples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Chirality",
    "CouplingSet",
    "constant_drive",
    "zero_drive",
    "signed_couplings",
    "overall_phase",
    "analytic_step_unitary",
    "total_unitary",
    "bright_state",
]

RabiFunction = Callable[[np.ndarray], np.ndarray | complex]

_SQ2 = 1.0 / np.sqrt(2.0)


class Chirality(enum.Enum):
    """Handedness label of a chiral molecule."""

    L = "L"
    R = "R"


def constant_drive(amplitude: complex) -> RabiFunction:
    """Drive with a time-independent amplitude."""
    value = complex(amplitude)
    return lambda t: value


def zero_drive() -> RabiFunction:
    """Inactive drive."""
    return constant_drive(0.0)


@dataclass(frozen=True)
class CouplingSet:
    """The three drives of the loop, optionally tagged with a chirality.

    Each drive is the complex coupling amplitude W_nm(t) in rad/s of the
    transition its field names, as a function of time in seconds. It takes
    a scalar or an array of times and returns a value of the same shape; a
    time-independent amplitude may return a scalar for any input, which
    callers broadcast. A detuning Delta is a phase e^{i Delta t} folded into
    the amplitude.
    """

    drive_12: RabiFunction
    drive_23: RabiFunction
    drive_13: RabiFunction
    chirality: Chirality | None = None


def _negated(drive: RabiFunction) -> RabiFunction:
    return lambda t: -drive(t)


def signed_couplings(base: CouplingSet, chirality: Chirality) -> CouplingSet:
    """Attach a handedness to a base coupling set.

    The right-handed species sees the base amplitudes unchanged; the
    left-handed one has the sign of the (1,3) amplitude flipped, so
    W13_L = -W13_R and the loop phases differ by pi.
    """
    if base.chirality is not None:
        raise ValueError("base coupling set already carries a chirality")
    drive_13 = base.drive_13 if chirality is Chirality.R else _negated(base.drive_13)
    return CouplingSet(
        drive_12=base.drive_12,
        drive_23=base.drive_23,
        drive_13=drive_13,
        chirality=chirality,
    )


def overall_phase(couplings: CouplingSet, t: float = 0.0) -> float:
    """Loop phase arg(W12 * W23 * conj(W13)) at time ``t``, in [0, 2*pi)."""
    w12 = complex(couplings.drive_12(t))
    w23 = complex(couplings.drive_23(t))
    w13 = complex(couplings.drive_13(t))
    if w12 == 0 or w23 == 0 or w13 == 0:
        raise ValueError(f"loop phase undefined: an amplitude vanishes at t = {t}")
    return float(np.angle(w12 * w23 * np.conj(w13)) % (2.0 * np.pi))


def _pulse_13(quarter_turns: float) -> np.ndarray:
    """exp(-i * theta * (|1><3| + |3><1|)) for theta = quarter_turns * pi/4."""
    theta = quarter_turns * np.pi / 4.0
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

# Signed pulse areas on (1,3) per step and chirality, in units of pi/4.
# The base schedule carries +pi/4 (step A) and -pi/4 (step C); the sign
# flip of the left-handed (1,3) amplitude negates both for Q = L.
_STEP_13_QUARTER_TURNS = {
    ("A", Chirality.L): -1.0,
    ("A", Chirality.R): +1.0,
    ("C", Chirality.L): +1.0,
    ("C", Chirality.R): -1.0,
}


def analytic_step_unitary(step: str, chirality: Chirality) -> np.ndarray:
    """Closed-form unitary of protocol step ``step`` in {"A", "B", "C"}.

    Step B is chirality independent; steps A and C are quarter-pulse
    rotations on the (1,3) pair whose sense follows the signed coupling.
    """
    if step == "B":
        return _STEP_B.copy()
    if step in ("A", "C"):
        return _pulse_13(_STEP_13_QUARTER_TURNS[(step, chirality)])
    raise ValueError(f"step must be one of 'A', 'B', 'C', got {step!r}")


def total_unitary(chirality: Chirality) -> np.ndarray:
    """Composite protocol unitary.

    Exchanges the |2> and |3> populations for the left-handed species
    (leaving |1> untouched) and the |1> and |2> populations for the
    right-handed one.
    """
    return _TOTAL[chirality].copy()


def bright_state() -> np.ndarray:
    """State coupled to |2> during step B, (i|1> + |3>)/sqrt(2); the same for
    both handednesses, since step B does not drive (1,3)."""
    return np.array([1j * _SQ2, 0.0, _SQ2])
