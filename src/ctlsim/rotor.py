"""Asymmetric-top rigid-rotor spectra.

Level energies are stored as frequencies (energy divided by the Planck
constant) in GHz. The rotor Hamiltonian is built in the symmetric-top basis
{|J,k>, k = -J..J} with the quantization axis along the inertial a axis,
which keeps the A-dominant terms on the diagonal. The spectrum itself is
representation independent.

Each J block couples only k <-> k+-2 and is unchanged under k -> -k, so the
Wang combinations (|k> +- |-k>)/sqrt(2) split it exactly into four
tridiagonal blocks of about J/2 rows: E+ (k = 0, 2, ...), E- (k = 2, 4, ...),
O+ and O- (k = 1, 3, ...). These Wang bands, built from the matrix elements
with k >= -1, are the one J-block builder; ``block_energies`` never forms the
full block (Wang, Phys. Rev. 34, 243 (1929); King, Hainer and Cross,
J. Chem. Phys. 11, 27 (1943)). Its dense oracles are ``generic_block`` in
tests/test_rotor.py and ``rotor_energies`` in perfbench/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "RotationalConstants",
    "RotorLevel",
    "J_MAX",
    "block_energies",
    "check_j",
    "level_index",
    "rotor_levels",
    "rotor_spectrum",
]


# Largest J of a named level. Resolving one diagonalises its four Wang
# blocks of about (J/2)^2 entries, one at a time: a `populations` run peaks
# at about 37 MB with a J = 1000 level and 87 MB with J = 3000 (34 MB with
# the bundled J <= 1 loop). A larger J is rejected before any block is built.
J_MAX = 1000


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
    """One asymmetric-top level |J_tau>.

    ``tau`` runs from -J to J in order of ascending energy within the J block.
    """

    j: int
    tau: int
    energy_ghz: float

    def __post_init__(self) -> None:
        level_index(self.j, self.tau)


def check_j(j: int) -> None:
    """Raise ``ValueError`` unless ``J`` is non-negative."""
    if j < 0:
        raise ValueError(f"J must be non-negative, got {j}")


def level_index(j: int, tau: int) -> int:
    """Index of |J_tau> among its block's ascending levels; the one check of J and tau."""
    check_j(j)
    if not -j <= tau <= j:
        raise ValueError(f"tau must lie in [-J, J], got tau={tau} for J={j}")
    if j > J_MAX:
        raise ValueError(f"J must be at most {J_MAX}, got {j}")
    return tau + j


def _matrix_elements(j: int, constants: RotationalConstants) -> tuple[np.ndarray, np.ndarray]:
    """<k|H|k> = (B+C)/2 * [J(J+1) - k^2] + A*k^2 for k = -1..J and
    <k|H|k+2> = (B-C)/4 * sqrt(J(J+1) - k(k+1)) * sqrt(J(J+1) - (k+1)(k+2))
    for k = -1..J-2, in GHz, of H = A*Ja^2 + B*Jb^2 + C*Jc^2 in the
    symmetric-top basis with the a axis as quantization axis."""
    a, b, c = constants.A, constants.B, constants.C
    jj = j * (j + 1)
    k = np.arange(-1, j + 1)
    diagonal = 0.5 * (b + c) * (jj - k**2) + a * k**2
    k = k[:-2]
    coupling = 0.25 * (b - c) * np.sqrt(jj - k * (k + 1)) * np.sqrt(jj - (k + 1) * (k + 2))
    return diagonal, coupling


def _wang_blocks(
    j: int, constants: RotationalConstants
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (diagonal, sub-diagonal) of the Wang blocks E+, E-, O+ and O- of one J block."""
    # index k + 1 holds <k|H|k> and <k|H|k+2>
    diagonal, coupling = _matrix_elements(j, constants)
    e_plus = coupling[1::2].copy()
    e_plus[:1] *= np.sqrt(2.0)  # <0|H|2> couples |0> to (|2> + |-2>)/sqrt(2)
    yield diagonal[1::2], e_plus
    yield diagonal[3::2], coupling[3::2]
    if j:
        for sign in (1.0, -1.0):  # O+- gain +-<-1|H|1> on their |1> row
            odd = diagonal[2::2].copy()
            odd[0] += sign * coupling[0]
            yield odd, coupling[2::2]


# Room for all of one molecule's blocks up to any J a level or a partition
# walk reaches, so a repeated sweep of one molecule diagonalises nothing
@lru_cache(maxsize=J_MAX + 1)
def block_energies(j: int, constants: RotationalConstants) -> np.ndarray:
    """Ascending eigenvalues of one J block, cached per (J, constants).

    The Wang blocks are built and diagonalised one at a time, each as the
    lower band that ``eigvalsh(..., UPLO="L")`` reads, so no (2J+1) x (2J+1)
    array exists. Every caller shares the cached array, so it is returned
    read-only.
    """
    check_j(j)
    spectra = []
    for diagonal, sub in _wang_blocks(j, constants):
        band = np.diag(diagonal)
        np.fill_diagonal(band[1:], sub)
        spectra.append(np.linalg.eigvalsh(band, UPLO="L"))
    energies = np.sort(np.concatenate(spectra))
    energies.flags.writeable = False
    return energies


def rotor_levels(j: int, constants: RotationalConstants) -> list[RotorLevel]:
    """Levels of one J block, ascending in energy, labeled tau = -J..J."""
    energies = block_energies(j, constants)
    return [
        RotorLevel(j=j, tau=tau, energy_ghz=energy)
        for tau, energy in zip(range(-j, j + 1), energies)
    ]


def rotor_spectrum(
    constants: RotationalConstants, j_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (J, tau, energy in GHz) of all levels for J = 0..j_max, block
    by block in ascending J and ascending energy within a block."""
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    blocks = np.arange(j_max + 1)
    j = np.repeat(blocks, 2 * blocks + 1)
    # block J starts at row J^2, and its tau = -J sits there
    tau = np.arange(len(j)) - (j**2 + j)
    return j, tau, np.concatenate([block_energies(n, constants) for n in range(j_max + 1)])
