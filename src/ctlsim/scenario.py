"""Scenario files: molecule, loop selection, temperatures and sweep grid.

A scenario is a single human-editable YAML document with a fixed schema.
Unknown keys are rejected and every violation names the offending field, so
a scenario that parses is fully normalized and reproducible. The schema is
written once, as the walk in ``scenario_from_mapping``: the walk also records
what it read, and ``dump_scenario`` writes that record back out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

import yaml

from .rotor import RotationalConstants
from .thermal import Temperatures, VibrationalMode
from .transfer import (
    RO_VIBRATIONAL,
    CtlsConfig,
    check_labeling,
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

_T = TypeVar("_T")


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
    # the document as the parser read it; ``dump_scenario`` writes it out
    echo: dict = field(compare=False, repr=False)


# the kinds of value ``_Reader.value`` reads, as its messages name them
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true/false"}


class _Reader:
    """Mapping walker that tracks the key path, rejects unknown keys and
    records what it read.

    ``get`` is the one place that decides a key is absent: a key written
    with no value (null) counts as absent, so it takes its default or, when
    required, is reported missing.

    Every typed value, section and list stores what it returns under its
    key in ``echo``: defaults filled in, ``-0.0`` read as ``0.0``, keys in
    the order they were read rather than the order they were written. So
    the walk that reads a document also fixes how it is written back.
    """

    def __init__(self, data: Mapping[str, Any], path: str):
        if not isinstance(data, Mapping):
            field = path or "<document>"  # the root reader's path is empty
            raise ScenarioError(field, f"expected a mapping, got {type(data).__name__}")
        self._data = dict(data)
        self.path = path
        self._seen: set[str] = set()
        self.echo: dict[str, Any] = {}

    def _label(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key: str, default: Any = None, required: bool = False) -> Any:
        self._seen.add(key)
        value = self._data.get(key)
        if value is None:
            if required:
                raise ScenarioError(self._label(key), "missing required key")
            return default
        return value

    def mapping(self, key: str, required: bool = False) -> "_Reader":
        """The section under ``key``; an absent optional one reads as empty."""
        section = _Reader(self.get(key, {}, required), self._label(key))
        self.echo[key] = section.echo
        return section

    def value(self, key: str, kind: type, default: Any = None, required: bool = False) -> Any:
        """The ``kind`` value under ``key``, ``kind`` one of ``_KINDS``: a bool
        is never read as a number, and a number reads as a float."""
        value = self.get(key, default, required)
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
            raise ScenarioError(self._label(key), f"expected {_KINDS[kind]}, got {value!r}")
        if kind is float:
            try:
                value = float(value) + 0.0  # + 0.0 reads -0.0 as 0.0
            except OverflowError as exc:  # an int beyond the float range
                raise ScenarioError(self._label(key), str(exc)) from exc
        self.echo[key] = value
        return value

    def sequence(self, key: str, required: bool = False) -> list["_Reader"]:
        """One reader per item of the list under ``key``, each item a mapping."""
        value = self.get(key, [], required)
        if not isinstance(value, list):
            raise ScenarioError(self._label(key), f"expected a list, got {type(value).__name__}")
        items = [_Reader(item, f"{self._label(key)}[{i}]") for i, item in enumerate(value)]
        self.echo[key] = [item.echo for item in items]
        return items

    def finish(self) -> None:
        unknown = sorted(set(self._data) - self._seen, key=str)  # YAML keys may be ints
        if unknown:
            label = self._label(unknown[0])
            raise ScenarioError(label, "unknown key")


def _checked(field: str, build: Callable[..., _T], *args: Any) -> _T:
    """``build(*args)``, with a model ``ValueError`` reported on ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(field, str(exc)) from exc


def scenario_from_mapping(data: Mapping[str, Any]) -> ScenarioFile:
    """Validate a raw mapping into a normalized scenario.

    The scenario's declared loop is built once before returning, so every
    loop rule is checked here and a scenario that parses builds its loop.
    """
    root = _Reader(data, "")

    molecule = root.mapping("molecule", required=True)
    name = molecule.value("name", str, required=True)
    const_reader = molecule.mapping("rotational_constants_ghz", required=True)
    a = const_reader.value("A", float, required=True)
    b = const_reader.value("B", float, required=True)
    c = const_reader.value("C", float, required=True)
    const_reader.finish()
    constants = _checked("molecule.rotational_constants_ghz", RotationalConstants, a, b, c)

    modes: list[VibrationalMode] = []
    for mode_reader in molecule.sequence("vibrational_modes"):
        mode_name = mode_reader.value("name", str, required=True)
        frequency = mode_reader.value("frequency_thz", float, required=True)
        max_quanta = mode_reader.value("max_quanta", int, 5)
        mode_reader.finish()
        modes.append(_checked(mode_reader.path, VibrationalMode, mode_name, frequency, max_quanta))
    molecule.finish()

    ctls_reader = root.mapping("ctls", required=True)
    mode = ctls_reader.value("mode", str, required=True)
    _checked("ctls.mode", check_mode, mode)
    levels = []
    for level_reader in ctls_reader.sequence("levels", required=True):
        levels.append(
            LevelSpec(
                vib=level_reader.value("vib", int, required=True),
                j=level_reader.value("J", int, required=True),
                tau=level_reader.value("tau", int, required=True),
                m=level_reader.value("M", int, required=True),
            )
        )
        level_reader.finish()
    ctls_reader.finish()

    temps_reader = root.mapping("temperatures")
    t_rot = temps_reader.value("t_rot_k", float, 10.0)
    t_vib = temps_reader.value("t_vib_k", float, 300.0)
    temps_reader.finish()
    temperatures = _checked("temperatures", Temperatures, t_rot, t_vib)

    sweep_reader = root.mapping("sweep")
    sweep = SweepSpec(
        t_rot_min_k=sweep_reader.value("t_rot_min_k", float, 1e-3),
        t_rot_max_k=sweep_reader.value("t_rot_max_k", float, 300.0),
        points=sweep_reader.value("points", int, 200),
        log_scale=sweep_reader.value("log_scale", bool, True),
    )
    sweep_reader.finish()
    _checked(
        "sweep", default_sweep_grid,
        sweep.t_rot_min_k, sweep.t_rot_max_k, sweep.points, sweep.log_scale,
    )

    labeling = root.value("labeling", str, "tau")
    _checked("labeling", check_labeling, labeling)
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
        echo=root.echo,
    )
    to_ctls_config(scenario)
    return scenario


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key written twice in one mapping,
    where it would keep the last value; a key that a merge (``<<``) brings
    in may still be written over."""

    def construct_mapping(self, node, deep=False):
        written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # rejects unhashable keys first
        seen = set()
        for key_node in written:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark,
                )
            seen.add(key)
        return mapping


def parse_scenario(path: str | Path) -> ScenarioFile:
    """Load and validate a scenario file."""
    try:
        data = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
    except UnicodeDecodeError as exc:
        raise ScenarioError("<document>", f"not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError("<document>", f"not valid YAML: {exc}") from exc
    if data is None:
        raise ScenarioError("<document>", "scenario file is empty")
    return scenario_from_mapping(data)


def dump_scenario(scenario: ScenarioFile) -> str:
    """Serialize a scenario so that re-parsing reproduces it exactly: the
    document as the parser read it, keys in schema order, defaults filled in."""
    return yaml.safe_dump(scenario.echo, sort_keys=False)


def to_ctls_config(scenario: ScenarioFile, mode: str | None = None) -> CtlsConfig:
    """Build the loop configuration, optionally overriding the mode.

    Switching to ``ro_vibrational`` excites levels 2 and 3 to the first
    vibrational quantum; switching to ``purely_rotational`` grounds all
    three. The rotational labels are kept either way.

    This is the one place where a loop rule's ``ValueError`` becomes a
    ``ScenarioError``: ``ctls.levels[i]`` names a bad level and
    ``ctls.levels`` a bad combination of levels; under an overriding
    ``mode`` its message names the loop that failed, since the scenario's
    own loop passed at parse time. An unknown ``mode``
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
    levels = [
        _checked(
            f"ctls.levels[{i}]",
            make_level,
            scenario.constants,
            scenario.vibrational_modes,
            entry.vib,
            entry.j,
            entry.tau,
            entry.m,
            scenario.labeling,
        )
        for i, entry in enumerate(entries)
    ]
    try:
        return CtlsConfig(target_mode, scenario.constants, scenario.vibrational_modes, tuple(levels))
    except ValueError as exc:
        message = str(exc)
        if target_mode != scenario.mode:
            message += f" in the {target_mode} loop this command builds"
        raise ScenarioError("ctls.levels", message) from exc


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
