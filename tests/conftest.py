from dataclasses import replace

import numpy as np
import pytest

from ctlsim.rotor import RotationalConstants
from ctlsim.scenario import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    bundled_scenario_path,
    parse_scenario,
    to_ctls_config,
)
from ctlsim.thermal import VibrationalMode
from ctlsim.transfer import CtlsConfig, default_sweep_grid

# 1,2-propanediol: A/2pi = 8.5244 GHz, B/2pi = 3.6354 GHz, C/2pi = 2.7887 GHz,
# OH-stretch at 100.95 THz.
PROPANEDIOL = RotationalConstants(A=8.5244, B=3.6354, C=2.7887)
OH_STRETCH = VibrationalMode(name="OH-stretch", frequency_thz=100.95, max_quanta=5)


def bright_state() -> np.ndarray:
    """State coupled to |2> during step B, (i|1> + |3>)/sqrt(2); the same for
    both handednesses, since step B does not drive (1,3)."""
    sq2 = 1.0 / np.sqrt(2.0)
    return np.array([1j * sq2, 0.0, sq2])


def build_config(mode: str) -> CtlsConfig:
    """The bundled propanediol loop over |0_00>, |1_01>, |1_10> (tau
    labeling), as the scenario builds it in ``mode``."""
    return to_ctls_config(parse_scenario(bundled_scenario_path()), mode)


def paper_grid(**changes) -> np.ndarray:
    """The bundled scenario's sweep grid (1 mK to 300 K, 200 log-spaced
    points), with ``changes`` to its ``sweep`` entries."""
    sweep = replace(parse_scenario(bundled_scenario_path()).sweep, **changes)
    return default_sweep_grid(sweep.t_rot_min_k, sweep.t_rot_max_k, sweep.points, sweep.log_scale)


def label_digits(labeling):
    """(J, first, second, tau) for every valid label of the J = 1 and 2 blocks."""
    digits = []
    for j in (1, 2):
        for first in range(-j, j + 1):
            for second in range(-j, j + 1):
                if labeling == "tau":
                    digits.append((j, first, second, first))
                elif first >= 0 and second >= 0 and first + second in (j, j + 1):
                    digits.append((j, first, second, first - second))
    return digits


@pytest.fixture
def propanediol() -> RotationalConstants:
    return PROPANEDIOL


@pytest.fixture
def oh_stretch() -> VibrationalMode:
    return OH_STRETCH


@pytest.fixture
def rovib_config() -> CtlsConfig:
    return build_config(RO_VIBRATIONAL)


@pytest.fixture
def rotational_config() -> CtlsConfig:
    return build_config(PURELY_ROTATIONAL)
