"""Asymmetric-top rigid-rotor spectra.

Level energies are stored as frequencies (energy divided by the Planck
constant) in GHz. The rotor Hamiltonian is built in the symmetric-top basis
{|J,k>, k = -J..J} with the quantization axis along the inertial a axis,
which keeps the A-dominant terms on the diagonal. The spectrum itself is
representation independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RotationalConstants",
    "RotorLevel",
    "RotorSpectrum",
    "block_energies",
    "build_rotor_block",
    "rotor_levels",
    "rotor_spectrum",
]


@dataclass(frozen=True)
class RotationalConstants:
    """Rotational constants A >= B >= C > 0 as frequencies in GHz."""

    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"rotational constant {name} must be finite and > 0, got {value}")
        if not self.A >= self.B >= self.C:
            raise ValueError(
                f"rotational constants must satisfy A >= B >= C, got "
                f"A={self.A}, B={self.B}, C={self.C}"
            )


@dataclass(frozen=True)
class RotorLevel:
    """One asymmetric-top level |J_tau> with its M multiplicity.

    ``tau`` runs from -J to J in order of ascending energy within the J block.
    """

    j: int
    tau: int
    energy_ghz: float

    def __post_init__(self) -> None:
        if self.j < 0:
            raise ValueError(f"J must be non-negative, got {self.j}")
        if not -self.j <= self.tau <= self.j:
            raise ValueError(f"tau must lie in [-J, J], got tau={self.tau} for J={self.j}")

    @property
    def degeneracy(self) -> int:
        """Number of magnetic sublevels, 2J + 1."""
        return 2 * self.j + 1


@dataclass(frozen=True)
class RotorSpectrum:
    """All rotor levels for J = 0..j_max at fixed rotational constants."""

    constants: RotationalConstants
    levels: tuple[RotorLevel, ...]

    @property
    def j_max(self) -> int:
        return max(level.j for level in self.levels)


def build_rotor_block(j: int, constants: RotationalConstants) -> np.ndarray:
    """Rigid-rotor Hamiltonian block for angular momentum ``j`` in GHz.

    Returns the real symmetric (2J+1) x (2J+1) matrix of
    A*Ja^2 + B*Jb^2 + C*Jc^2 in the symmetric-top basis with the a axis as
    quantization axis: diagonal (B+C)/2 * [J(J+1) - k^2] + A*k^2, and
    k <-> k+-2 couplings (B-C)/4 * sqrt(J(J+1) - k(k+-1)) * sqrt(J(J+1) - (k+-1)(k+-2)).
    """
    if j < 0:
        raise ValueError(f"J must be non-negative, got {j}")
    a, b, c = constants.A, constants.B, constants.C
    jj = j * (j + 1)
    ks = np.arange(-j, j + 1)
    block = np.zeros((2 * j + 1, 2 * j + 1))
    block[np.diag_indices_from(block)] = 0.5 * (b + c) * (jj - ks**2) + a * ks**2
    for i, k in enumerate(ks[:-2]):
        coupling = (
            0.25
            * (b - c)
            * np.sqrt(jj - k * (k + 1))
            * np.sqrt(jj - (k + 1) * (k + 2))
        )
        block[i, i + 2] = coupling
        block[i + 2, i] = coupling
    return block


@lru_cache(maxsize=4096)
def block_energies(j: int, constants: RotationalConstants) -> np.ndarray:
    """Ascending eigenvalues of one J block, cached per (J, constants).

    Every caller shares the cached array, so it is returned read-only.
    """
    energies = np.linalg.eigvalsh(build_rotor_block(j, constants))
    energies.flags.writeable = False
    return energies


def rotor_levels(j: int, constants: RotationalConstants) -> list[RotorLevel]:
    """Levels of one J block, ascending in energy, labeled tau = -J..J."""
    energies = block_energies(j, constants)
    return [
        RotorLevel(j=j, tau=tau, energy_ghz=energy)
        for tau, energy in zip(range(-j, j + 1), energies)
    ]


def rotor_spectrum(constants: RotationalConstants, j_max: int) -> RotorSpectrum:
    """All levels for J = 0..j_max."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    levels: list[RotorLevel] = []
    for j in range(j_max + 1):
        levels.extend(rotor_levels(j, constants))
    return RotorSpectrum(constants=constants, levels=tuple(levels))
