"""Asymmetric-top rigid-rotor spectra.

Level energies are stored as frequencies (energy divided by the Planck
constant) in GHz. The rotor Hamiltonian is built in the symmetric-top basis
{|J,k>, k = -J..J} with the quantization axis along the inertial a axis,
which keeps the A-dominant terms on the diagonal. The spectrum itself is
representation independent.

Each J block couples only k <-> k+-2 and is unchanged under k -> -k, so the
Wang combinations (|k> +- |-k>)/sqrt(2) split it exactly into four blocks of
about J/2 rows: E+ (k = 0, 2, ...), E- (k = 2, 4, ...), O+ and O-
(k = 1, 3, ...). ``block_energies`` diagonalises those instead of the full
block (Wang, Phys. Rev. 34, 243 (1929); King, Hainer and Cross, J. Chem.
Phys. 11, 27 (1943)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RotationalConstants",
    "RotorLevel",
    "block_energies",
    "build_rotor_block",
    "level_index",
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
        level_index(self.j, self.tau)

    @property
    def degeneracy(self) -> int:
        """Number of magnetic sublevels, 2J + 1."""
        return 2 * self.j + 1


def level_index(j: int, tau: int) -> int:
    """Index of |J_tau> among its block's ascending levels; the one check of J and tau."""
    if j < 0:
        raise ValueError(f"J must be non-negative, got {j}")
    if not -j <= tau <= j:
        raise ValueError(f"tau must lie in [-J, J], got tau={tau} for J={j}")
    return tau + j


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
    k = ks[:-2]
    coupling = 0.25 * (b - c) * np.sqrt(jj - k * (k + 1)) * np.sqrt(jj - (k + 1) * (k + 2))
    i = np.arange(len(k))
    block[i, i + 2] = block[i + 2, i] = coupling
    return block


@lru_cache(maxsize=4096)
def block_energies(j: int, constants: RotationalConstants) -> np.ndarray:
    """Ascending eigenvalues of one J block, cached per (J, constants).

    The Wang blocks are sliced out of ``build_rotor_block`` at k >= 0 (row
    j + k). Every caller shares the cached array, so it is returned read-only.
    """
    block = build_rotor_block(j, constants)
    e_plus = block[j::2, j::2].copy()
    e_plus[0, 1:2] *= np.sqrt(2.0)  # <0|H|2> couples |0> to (|2> + |-2>)/sqrt(2)
    e_plus[1:2, 0] *= np.sqrt(2.0)
    wang = [e_plus, block[j + 2 :: 2, j + 2 :: 2]]
    if j:
        odd = block[j + 1 :: 2, j + 1 :: 2]
        for sign in (1.0, -1.0):  # O+- gain +-<-1|H|1> on their |1> row
            o = odd.copy()
            o[0, 0] += sign * block[j - 1, j + 1]
            wang.append(o)
    energies = np.sort(np.concatenate([np.linalg.eigvalsh(w) for w in wang]))
    energies.flags.writeable = False
    return energies


def rotor_levels(j: int, constants: RotationalConstants) -> list[RotorLevel]:
    """Levels of one J block, ascending in energy, labeled tau = -J..J."""
    energies = block_energies(j, constants)
    return [
        RotorLevel(j=j, tau=tau, energy_ghz=energy)
        for tau, energy in zip(range(-j, j + 1), energies)
    ]


def rotor_spectrum(constants: RotationalConstants, j_max: int) -> list[RotorLevel]:
    """All levels for J = 0..j_max, block by block in ascending J."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    levels: list[RotorLevel] = []
    for j in range(j_max + 1):
        levels.extend(rotor_levels(j, constants))
    return levels
