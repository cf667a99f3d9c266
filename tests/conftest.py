import pytest

from ctlsim.rotor import RotationalConstants
from ctlsim.thermal import VibrationalMode
from ctlsim.transfer import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    CtlsConfig,
    make_level,
)

# 1,2-propanediol: A/2pi = 8.5244 GHz, B/2pi = 3.6354 GHz, C/2pi = 2.7887 GHz,
# OH-stretch at 100.95 THz.
PROPANEDIOL = RotationalConstants(A=8.5244, B=3.6354, C=2.7887)
OH_STRETCH = VibrationalMode(name="OH-stretch", frequency_thz=100.95, max_quanta=5)


def build_config(mode: str) -> CtlsConfig:
    """The propanediol loop over |0_00>, |1_01>, |1_10| (tau labeling)."""
    modes = (OH_STRETCH,)
    excited = 1 if mode == RO_VIBRATIONAL else 0
    levels = (
        make_level(PROPANEDIOL, modes, 0, 0, 0, 0),
        make_level(PROPANEDIOL, modes, excited, 1, 0, 1),
        make_level(PROPANEDIOL, modes, excited, 1, 1, 0),
    )
    return CtlsConfig(
        mode=mode,
        constants=PROPANEDIOL,
        modes=modes,
        levels=levels,
    )


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
