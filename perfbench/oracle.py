"""Independent reference values that ctlsim outputs are checked against.

Nothing here imports ctlsim. Rotor energies come from angular-momentum
matrices rather than the program's closed-form block, loop populations
from a separate two-temperature Boltzmann implementation, the partition
function from its high-temperature expansion, and protocol unitaries from
the closed forms of the paper.
"""

from __future__ import annotations

import math

import numpy as np

K_PER_GHZ = 6.62607015e-34 / 1.380649e-23 * 1e9  # h / kB in kelvin per GHz, exact SI

# Second-order midpoint stepping: |U_numeric - U_exact| <= DEFECT_C / steps**2.
# Measured constants are 4.5e-3 (gaussian, step C = -pi/4) up to 1.6e-2
# (gaussian, 7 pi/4); rectangular and sin^2 sit at roundoff.
DEFECT_C = 0.05
ROUNDOFF = 1e-12

_TOTAL = {
    "L": np.array([[1, 0, 0], [0, 0, -1j], [0, -1j, 0]], dtype=complex),
    "R": np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex),
}


def rotor_energies(j: int, a: float, b: float, c: float) -> np.ndarray:
    """Ascending energies (GHz) of H = A Jz^2 + B Jx^2 + C Jy^2 in one J block."""
    k = np.arange(-j, j + 1, dtype=float)
    raise_ = np.diag(np.sqrt(j * (j + 1) - k[:-1] * (k[:-1] + 1)), -1)
    lower = raise_.T
    jx2 = (raise_ + lower) @ (raise_ + lower) / 4.0
    jy2 = -(raise_ - lower) @ (raise_ - lower) / 4.0
    return np.linalg.eigvalsh(a * np.diag(k * k) + b * jx2 + c * jy2)


def loop_energies(mapping: dict, mode: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(vibrational, rotational) energies in GHz of a scenario's three loop levels.

    ``mode`` overrides the scenario's loop mode the way the ``figure``
    subcommands do: ro-vibrational lifts levels 2 and 3 to one quantum,
    purely rotational grounds all three.
    """
    molecule = mapping["molecule"]
    consts = molecule["rotational_constants_ghz"]
    freq_ghz = 1000.0 * molecule["vibrational_modes"][0]["frequency_thz"]
    levels = mapping["ctls"]["levels"]
    vibs = [lv["vib"] for lv in levels]
    if mode is not None and mode != mapping["ctls"]["mode"]:
        vibs = [0, 1, 1] if mode == "ro_vibrational" else [0, 0, 0]
    vib, rot = [], []
    for v, lv in zip(vibs, levels):
        j = lv["J"]
        tau = lv["tau"] if mapping["labeling"] == "tau" else lv["tau"] - lv["M"]
        rot.append(rotor_energies(j, consts["A"], consts["B"], consts["C"])[tau + j])
        vib.append(v * freq_ghz)
    return np.array(vib), np.array(rot)


def _frozen_mask(energies: np.ndarray) -> np.ndarray:
    return energies - energies.min() <= 1e-12 * max(1.0, abs(energies.min()))


def loop_populations(vib: np.ndarray, rot: np.ndarray, t_rot: float, t_vib: float) -> np.ndarray:
    """Normalized (p1, p2, p3); a zero temperature freezes its degree of freedom."""
    if t_rot == 0.0 and t_vib == 0.0:
        mask, x = _frozen_mask(vib + rot), np.zeros(3)
    elif t_vib == 0.0:
        mask, x = _frozen_mask(vib), rot * K_PER_GHZ / t_rot
    elif t_rot == 0.0:
        mask, x = _frozen_mask(rot), vib * K_PER_GHZ / t_vib
    else:
        mask, x = np.ones(3, bool), vib * K_PER_GHZ / t_vib + rot * K_PER_GHZ / t_rot
    w = np.where(mask, np.exp(-(x - x[mask].min())), 0.0)
    return w / w.sum()


def excess(p: np.ndarray) -> float:
    return abs(p[2] - p[0]) / (p[2] + p[0])


def classical_partition(a: float, b: float, c: float, t_k: float) -> float:
    """High-temperature limit sqrt(pi / ABC) (kB T / h)^(3/2)."""
    return math.sqrt(math.pi / (a * b * c)) * (t_k / K_PER_GHZ) ** 1.5


def partition_high_t(a: float, b: float, c: float, t_k: float) -> float:
    """Classical limit with its first quantum correction (Stripp and Kirkwood):
    Z_cl (1 + sigma h / 12 kB T), sigma = 2(A+B+C) - (AB/C + BC/A + CA/B).

    The next term is of order (hA/kB T)^2; against the exact sum it measures
    below 0.01 (hA/kB T)^2.
    """
    sigma = 2.0 * (a + b + c) - (a * b / c + b * c / a + c * a / b)
    return classical_partition(a, b, c, t_k) * (1.0 + sigma * K_PER_GHZ / (12.0 * t_k))


def sweep_grid(sweep: dict) -> np.ndarray:
    lo, hi, n = sweep["t_rot_min_k"], sweep["t_rot_max_k"], sweep["points"]
    if sweep["log_scale"]:
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def expected_unitary(chirality: str, step_c_area: float = -math.pi / 4.0) -> np.ndarray:
    """Composite unitary for a step-C area of (k + 3/4) pi.

    Each extra pi of area on the (1,3) pair multiplies that pair by -1;
    step C is applied last, so the sign lands on rows 1 and 3.
    """
    k = round(step_c_area / math.pi - 0.75)
    s = (-1.0) ** (k + 1)
    return np.diag([s, 1.0, s]) @ _TOTAL[chirality]


def defect_bound(steps: int) -> float:
    return DEFECT_C / steps**2 + ROUNDOFF
