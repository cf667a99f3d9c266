"""Scenario files: molecule, loop selection, temperatures and sweep grid.

A scenario is a single human-editable YAML document with a fixed schema.
Unknown keys are rejected and every violation names the offending field, so
a scenario that parses is fully normalized and reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import yaml

from .rotor import RotationalConstants
from .thermal import Temperatures, VibrationalMode
from .transfer import (
    LABELINGS,
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    CtlsConfig,
    check_mode,
    default_sweep_grid,
    make_level,
)

__all__ = [
    "SCENARIO_PATH_ENV",
    "LevelSpec",
    "SweepSpec",
    "ScenarioFile",
    "ScenarioError",
    "parse_scenario",
    "scenario_from_mapping",
    "dump_scenario",
    "to_ctls_config",
    "bundled_scenario_path",
    "resolve_scenario_path",
]

SCENARIO_PATH_ENV = "CTLS_SCENARIO_PATH"

_DEFAULT_T_ROT_K = 10.0
_DEFAULT_T_VIB_K = 300.0
_DEFAULT_SWEEP = {"t_rot_min_k": 1e-3, "t_rot_max_k": 300.0, "points": 200, "log_scale": True}
_DEFAULT_MAX_QUANTA = 5


class ScenarioError(ValueError):
    """Schema violation in a scenario file; ``field`` names the bad entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class LevelSpec:
    """One loop level as written in a scenario: vibrational quantum and the
    rotational label digits (read per the scenario's labeling convention)."""

    vib: int
    j: int
    tau: int
    m: int


@dataclass(frozen=True)
class SweepSpec:
    """Rotational-temperature grid for the sweep commands."""

    t_rot_min_k: float
    t_rot_max_k: float
    points: int
    log_scale: bool


@dataclass(frozen=True)
class ScenarioFile:
    molecule_name: str
    constants: RotationalConstants
    vibrational_modes: tuple[VibrationalMode, ...]
    mode: str
    levels: tuple[LevelSpec, LevelSpec, LevelSpec]
    temperatures: Temperatures
    sweep: SweepSpec
    labeling: str


class _Reader:
    """Mapping walker that tracks the key path and rejects unknown keys."""

    def __init__(self, data: Mapping[str, Any], path: str):
        if not isinstance(data, Mapping):
            raise ScenarioError(path, f"expected a mapping, got {type(data).__name__}")
        self._data = dict(data)
        self._path = path
        self._seen: set[str] = set()

    def _label(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def get(self, key: str, default: Any = None, required: bool = False) -> Any:
        self._seen.add(key)
        if key not in self._data:
            if required:
                raise ScenarioError(self._label(key), "missing required key")
            return default
        return self._data[key]

    def mapping(self, key: str, required: bool = False) -> "_Reader | None":
        value = self.get(key, required=required)
        if value is None:
            return None
        return _Reader(value, self._label(key))

    def number(self, key: str, default: float | None = None, required: bool = False) -> float | None:
        value = self.get(key, default=default, required=required)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(self._label(key), f"expected a number, got {value!r}")
        return float(value)

    def integer(self, key: str, default: int | None = None, required: bool = False) -> int | None:
        value = self.get(key, default=default, required=required)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(self._label(key), f"expected an integer, got {value!r}")
        return value

    def text(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        value = self.get(key, default=default, required=required)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ScenarioError(self._label(key), f"expected a string, got {value!r}")
        return value

    def boolean(self, key: str, default: bool | None = None) -> bool | None:
        value = self.get(key, default=default)
        if value is None:
            return None
        if not isinstance(value, bool):
            raise ScenarioError(self._label(key), f"expected true/false, got {value!r}")
        return value

    def sequence(self, key: str, required: bool = False) -> list[tuple[str, Any]]:
        value = self.get(key, required=required)
        if value is None:
            return []
        if not isinstance(value, list):
            raise ScenarioError(self._label(key), f"expected a list, got {type(value).__name__}")
        return [(f"{self._label(key)}[{i}]", item) for i, item in enumerate(value)]

    def finish(self) -> None:
        unknown = sorted(set(self._data) - self._seen)
        if unknown:
            label = self._label(unknown[0])
            raise ScenarioError(label, "unknown key")


def scenario_from_mapping(data: Mapping[str, Any]) -> ScenarioFile:
    """Validate a raw mapping into a normalized scenario.

    The scenario's declared loop is built once before returning, so every
    loop rule is checked here and a scenario that parses builds its loop.
    """
    root = _Reader(data, "")

    molecule = root.mapping("molecule", required=True)
    name = molecule.text("name", required=True)
    const_reader = molecule.mapping("rotational_constants_ghz", required=True)
    a = const_reader.number("A", required=True)
    b = const_reader.number("B", required=True)
    c = const_reader.number("C", required=True)
    const_reader.finish()
    try:
        constants = RotationalConstants(A=a, B=b, C=c)
    except ValueError as exc:
        raise ScenarioError("molecule.rotational_constants_ghz", str(exc)) from exc

    modes: list[VibrationalMode] = []
    for label, item in molecule.sequence("vibrational_modes"):
        mode_reader = _Reader(item, label)
        mode_name = mode_reader.text("name", required=True)
        frequency = mode_reader.number("frequency_thz", required=True)
        max_quanta = mode_reader.integer("max_quanta", default=_DEFAULT_MAX_QUANTA)
        mode_reader.finish()
        try:
            modes.append(
                VibrationalMode(name=mode_name, frequency_thz=frequency, max_quanta=max_quanta)
            )
        except ValueError as exc:
            raise ScenarioError(label, str(exc)) from exc
    molecule.finish()

    ctls_reader = root.mapping("ctls", required=True)
    mode = ctls_reader.text("mode", required=True)
    if mode not in (RO_VIBRATIONAL, PURELY_ROTATIONAL):
        raise ScenarioError(
            "ctls.mode", f"must be '{RO_VIBRATIONAL}' or '{PURELY_ROTATIONAL}', got {mode!r}"
        )
    levels = []
    for label, item in ctls_reader.sequence("levels", required=True):
        level_reader = _Reader(item, label)
        levels.append(
            LevelSpec(
                vib=level_reader.integer("vib", required=True),
                j=level_reader.integer("J", required=True),
                tau=level_reader.integer("tau", required=True),
                m=level_reader.integer("M", required=True),
            )
        )
        level_reader.finish()
    ctls_reader.finish()

    temps_reader = root.mapping("temperatures")
    if temps_reader is None:
        temperatures = Temperatures(_DEFAULT_T_ROT_K, _DEFAULT_T_VIB_K)
    else:
        t_rot = temps_reader.number("t_rot_k", default=_DEFAULT_T_ROT_K)
        t_vib = temps_reader.number("t_vib_k", default=_DEFAULT_T_VIB_K)
        temps_reader.finish()
        try:
            temperatures = Temperatures(t_rot, t_vib)
        except ValueError as exc:
            raise ScenarioError("temperatures", str(exc)) from exc

    sweep_reader = root.mapping("sweep")
    if sweep_reader is None:
        sweep = SweepSpec(**_DEFAULT_SWEEP)
    else:
        t_min = sweep_reader.number("t_rot_min_k", default=_DEFAULT_SWEEP["t_rot_min_k"])
        t_max = sweep_reader.number("t_rot_max_k", default=_DEFAULT_SWEEP["t_rot_max_k"])
        points = sweep_reader.integer("points", default=_DEFAULT_SWEEP["points"])
        log_scale = sweep_reader.boolean("log_scale", default=_DEFAULT_SWEEP["log_scale"])
        sweep_reader.finish()
        try:
            default_sweep_grid(t_min, t_max, points, log_scale)
        except ValueError as exc:
            raise ScenarioError("sweep", str(exc)) from exc
        sweep = SweepSpec(t_rot_min_k=t_min, t_rot_max_k=t_max, points=points, log_scale=log_scale)

    labeling = root.text("labeling", default="tau")
    if labeling not in LABELINGS:
        raise ScenarioError("labeling", f"must be one of {LABELINGS}, got {labeling!r}")
    root.finish()

    scenario = ScenarioFile(
        molecule_name=name,
        constants=constants,
        vibrational_modes=tuple(modes),
        mode=mode,
        levels=tuple(levels),
        temperatures=temperatures,
        sweep=sweep,
        labeling=labeling,
    )
    to_ctls_config(scenario)
    return scenario


def parse_scenario(path: str | Path) -> ScenarioFile:
    """Load and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError("<document>", f"not valid YAML: {exc}") from exc
    if data is None:
        raise ScenarioError("<document>", "scenario file is empty")
    return scenario_from_mapping(data)


def dump_scenario(scenario: ScenarioFile) -> str:
    """Serialize a scenario so that re-parsing reproduces it exactly."""
    data: dict[str, Any] = {
        "molecule": {
            "name": scenario.molecule_name,
            "rotational_constants_ghz": {
                "A": scenario.constants.A,
                "B": scenario.constants.B,
                "C": scenario.constants.C,
            },
            "vibrational_modes": [
                {
                    "name": mode.name,
                    "frequency_thz": mode.frequency_thz,
                    "max_quanta": mode.max_quanta,
                }
                for mode in scenario.vibrational_modes
            ],
        },
        "ctls": {
            "mode": scenario.mode,
            "levels": [
                {"vib": lv.vib, "J": lv.j, "tau": lv.tau, "M": lv.m}
                for lv in scenario.levels
            ],
        },
        "temperatures": {
            "t_rot_k": scenario.temperatures.t_rot_k,
            "t_vib_k": scenario.temperatures.t_vib_k,
        },
        "sweep": {
            "t_rot_min_k": scenario.sweep.t_rot_min_k,
            "t_rot_max_k": scenario.sweep.t_rot_max_k,
            "points": scenario.sweep.points,
            "log_scale": scenario.sweep.log_scale,
        },
        "labeling": scenario.labeling,
    }
    return yaml.safe_dump(data, sort_keys=False)


def to_ctls_config(scenario: ScenarioFile, mode: str | None = None) -> CtlsConfig:
    """Build the loop configuration, optionally overriding the mode.

    Switching to ``ro_vibrational`` excites levels 2 and 3 to the first
    vibrational quantum; switching to ``purely_rotational`` grounds all
    three. The rotational labels are kept either way.

    This is the one place where a loop rule's ``ValueError`` becomes a
    ``ScenarioError``: ``ctls.levels[i]`` names a bad level and
    ``ctls.levels`` a bad combination of levels. An unknown ``mode``
    argument is the caller's error, not the scenario's, so it raises a
    plain ``ValueError``.
    """
    target_mode = scenario.mode if mode is None else mode
    check_mode(target_mode)
    if target_mode == RO_VIBRATIONAL and not scenario.vibrational_modes:
        raise ScenarioError(
            "molecule.vibrational_modes",
            f"{RO_VIBRATIONAL} mode requires at least one vibrational mode",
        )
    entries = scenario.levels
    if target_mode != scenario.mode:
        excited = 1 if target_mode == RO_VIBRATIONAL else 0
        entries = tuple(
            replace(entry, vib=excited if i else 0) for i, entry in enumerate(entries)
        )
    levels = []
    for i, entry in enumerate(entries):
        try:
            levels.append(
                make_level(
                    scenario.constants,
                    scenario.vibrational_modes,
                    entry.vib,
                    entry.j,
                    entry.tau,
                    entry.m,
                    scenario.labeling,
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"ctls.levels[{i}]", str(exc)) from exc
    try:
        return CtlsConfig(
            mode=target_mode,
            constants=scenario.constants,
            modes=scenario.vibrational_modes,
            levels=tuple(levels),
            labeling=scenario.labeling,
        )
    except ValueError as exc:
        raise ScenarioError("ctls.levels", str(exc)) from exc


def bundled_scenario_path() -> Path:
    """Path of the scenario shipped with the package."""
    return Path(resources.files("ctlsim").joinpath("data/propanediol.scenario"))


def resolve_scenario_path(explicit: str | None) -> Path:
    """Choose the scenario: explicit flag, then environment, then bundled."""
    if explicit is not None:
        return Path(explicit)
    from_env = os.environ.get(SCENARIO_PATH_ENV)
    if from_env:
        return Path(from_env)
    return bundled_scenario_path()
