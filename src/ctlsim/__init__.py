"""Enantiomeric-specific state transfer in cyclic three-level systems.

Simulates the three-step ultrashort-pulse protocol on thermal ensembles of
left- and right-handed molecules and quantifies the resulting enrichment
against rotational and vibrational temperature.
"""

from .ctls import Chirality, total_unitary
from .propagator import ideal_schedule, run_protocol
from .rotor import RotationalConstants
from .scenario import parse_scenario, to_ctls_config
from .thermal import Temperatures
from .transfer import enantiomeric_excess

__version__ = "0.1.0"

__all__ = [
    "Chirality",
    "RotationalConstants",
    "Temperatures",
    "ideal_schedule",
    "run_protocol",
    "total_unitary",
    "parse_scenario",
    "to_ctls_config",
    "enantiomeric_excess",
]
