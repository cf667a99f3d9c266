"""Scenario files: molecule, loop selection, temperatures and sweep grid.

A scenario is a single human-editable YAML document with a fixed schema.
Unknown keys are rejected and every violation names the offending field, so
a scenario that parses is fully normalized and reproducible. The schema is
written once, as the table ``SCHEMA`` with one row per key: one walk over it
reads a document, runs each key's check and records what it read, and
``dump_scenario`` writes that record back out.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, TypeVar

import yaml

from .rotor import RotationalConstants
from .thermal import Temperatures, VibrationalMode
from .transfer import LABELINGS, CtlsConfig, check_labeling, default_sweep_grid, make_level

__all__ = [
    "RO_VIBRATIONAL",
    "PURELY_ROTATIONAL",
    "SCENARIO_PATH_ENV",
    "LevelSpec",
    "SweepSpec",
    "ScenarioFile",
    "ScenarioError",
    "check_mode",
    "Row",
    "SCHEMA",
    "parse_scenario",
    "scenario_from_mapping",
    "dump_scenario",
    "to_ctls_config",
    "bundled_scenario_path",
    "resolve_scenario_path",
]

SCENARIO_PATH_ENV = "CTLS_SCENARIO_PATH"

# The two kinds of loop, told apart by their levels' vibrational quanta
RO_VIBRATIONAL = "ro_vibrational"
PURELY_ROTATIONAL = "purely_rotational"
_MODES = (RO_VIBRATIONAL, PURELY_ROTATIONAL)

_T = TypeVar("_T")


class ScenarioError(ValueError):
    """Schema violation in a scenario file; ``field`` names the bad entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` names a loop mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


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


# the kinds of value a row reads, as its messages name them
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true/false"}


class Row(NamedTuple):
    """One key of the scenario schema; with no ``default`` it is required.

    ``kind`` is ``float``, ``int``, ``str`` or ``bool`` for a value, ``dict``
    for a section and ``list`` for a list of sections, whose keys are
    ``rows``. ``check`` runs on a value read, or on a section's values in row
    order, the section reading as what it returns; its ``ValueError`` names
    this key. ``choices`` are the strings an enumeration's check accepts.
    """

    key: str
    kind: type
    default: Any = None
    check: Callable[..., Any] | None = None
    rows: tuple["Row", ...] = ()
    choices: tuple[str, ...] = ()


def _sweep(t_rot_min_k: float, t_rot_max_k: float, points: int, log_scale: bool) -> SweepSpec:
    """The sweep section, once its grid passes ``default_sweep_grid``."""
    default_sweep_grid(t_rot_min_k, t_rot_max_k, points, log_scale)
    return SweepSpec(t_rot_min_k, t_rot_max_k, points, log_scale)


# The whole document, a section named as its errors name it. A key written
# with no value (null) counts as absent: it takes its default or, with none,
# is reported missing. An absent optional section reads as empty.
SCHEMA = Row("<document>", dict, rows=(
    Row("molecule", dict, rows=(
        Row("name", str),
        Row("rotational_constants_ghz", dict, check=RotationalConstants, rows=(
            Row("A", float),
            Row("B", float),
            Row("C", float),
        )),
        Row("vibrational_modes", list, [], VibrationalMode, rows=(
            Row("name", str),
            Row("frequency_thz", float),
            Row("max_quanta", int, 5),
        )),
    )),
    Row("ctls", dict, rows=(
        Row("mode", str, check=check_mode, choices=_MODES),
        Row("levels", list, check=LevelSpec, rows=(
            Row("vib", int),
            Row("J", int),
            Row("tau", int),
            Row("M", int),
        )),
    )),
    Row("temperatures", dict, {}, Temperatures, rows=(
        Row("t_rot_k", float, 10.0),
        Row("t_vib_k", float, 300.0),
    )),
    Row("sweep", dict, {}, _sweep, rows=(
        Row("t_rot_min_k", float, 1e-3),
        Row("t_rot_max_k", float, 300.0),
        Row("points", int, 200),
        Row("log_scale", bool, True),
    )),
    Row("labeling", str, "tau", check_labeling, choices=LABELINGS),
))

# YAML 1.2's exponent floats, which YAML 1.1 reads as strings when they lack
# a dot or the exponent's sign (``1e3``, ``1.0e308``): plain, they read as
# floats; quoted, as strings. Loader and dumper share it, so "1e3" is dumped quoted.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


def _checked(field: str, build: Callable[..., _T], *args: Any) -> _T:
    """``build(*args)``, with a model ``ValueError`` reported on ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(field, str(exc)) from exc


def _mapping(data: Any, field: str) -> Mapping[Any, Any]:
    if not isinstance(data, Mapping):
        raise ScenarioError(field, f"expected a mapping, got {type(data).__name__}")
    return data


def _section(row: Row, data: Mapping[Any, Any], path: str, echo: dict) -> Any:
    """What the section ``data`` at ``path`` reads as under ``row``.

    Its keys are read in row order, each storing what it reads as in
    ``echo``: defaults filled in, ``-0.0`` read as ``0.0``. Keys that no row
    names are rejected once every row is read; ``row.check`` runs last.
    """
    prefix = f"{path}." if path else ""
    values = tuple(
        _read(child, data.get(child.key), prefix + child.key, echo) for child in row.rows
    )
    unknown = sorted(set(data) - {child.key for child in row.rows}, key=str)  # keys may be ints
    if unknown:
        raise ScenarioError(f"{prefix}{unknown[0]}", "unknown key")
    return _checked(path, row.check, *values) if row.check else values


def _read(row: Row, value: Any, field: str, echo: dict) -> Any:
    """What ``value``, written under ``row``'s key as ``field``, reads as."""
    if value is None:
        value = row.default
        if value is None:
            raise ScenarioError(field, "missing required key")
    if row.kind is dict:
        echo[row.key] = {}
        return _section(row, _mapping(value, field), field, echo[row.key])
    if row.kind is list:
        if not isinstance(value, list):
            raise ScenarioError(field, f"expected a list, got {type(value).__name__}")
        # every item is a mapping before any item is read
        items = [_mapping(item, f"{field}[{i}]") for i, item in enumerate(value)]
        echo[row.key] = echoes = [{} for _ in items]
        return tuple(_section(row, item, f"{field}[{i}]", echoes[i]) for i, item in enumerate(items))
    accepted = (int, float) if row.kind is float else row.kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and row.kind is not bool):
        raise ScenarioError(field, f"expected {_KINDS[row.kind]}, got {value!r}")
    if row.kind is float:
        try:
            value = float(value) + 0.0  # + 0.0 reads -0.0 as 0.0
        except OverflowError as exc:  # an int beyond the float range
            raise ScenarioError(field, str(exc)) from exc
    echo[row.key] = value
    if row.check:
        _checked(field, row.check, value)
    return value


def scenario_from_mapping(data: Mapping[str, Any]) -> ScenarioFile:
    """Validate a raw mapping into a normalized scenario.

    The scenario's declared loop is built once before returning, so every
    loop rule is checked here and a scenario that parses builds its loop.
    """
    echo: dict[str, Any] = {}
    document = _section(SCHEMA, _mapping(data, SCHEMA.key), "", echo)
    (name, constants, modes), (mode, levels), temps, sweep, labeling = document
    scenario = ScenarioFile(name, constants, modes, mode, levels, temps, sweep, labeling, echo)
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


class _Dumper(yaml.SafeDumper):
    """``yaml.SafeDumper`` that quotes a string ``_UniqueKeyLoader`` reads as a float."""


for _yaml in (_UniqueKeyLoader, _Dumper):
    _yaml.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))


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
    return yaml.dump(scenario.echo, Dumper=_Dumper, sort_keys=False)


def to_ctls_config(scenario: ScenarioFile, mode: str | None = None) -> CtlsConfig:
    """Build the loop configuration, optionally overriding the mode.

    Switching to ``ro_vibrational`` excites levels 2 and 3 to the first
    vibrational quantum; switching to ``purely_rotational`` grounds all
    three. The rotational labels are kept either way.

    This is the one place where a loop rule's ``ValueError`` becomes a
    ``ScenarioError``: ``ctls.levels[i]`` names a bad level and
    ``ctls.levels`` a bad combination of levels, either one that
    ``CtlsConfig`` rejects or vibrational quanta that do not fit the mode;
    under an overriding ``mode`` its message names the loop that failed,
    since the scenario's own loop passed at parse time. An unknown ``mode``
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
    levels = tuple(
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
    )
    try:
        config = CtlsConfig(scenario.constants, scenario.vibrational_modes, levels)
    except ValueError as exc:
        message = str(exc)
        if target_mode != scenario.mode:
            message += f" in the {target_mode} loop this command builds"
        raise ScenarioError("ctls.levels", message) from exc
    # an overriding mode writes quanta that fit it, so only the scenario's own can fail
    quanta = tuple(level.vib_quantum for level in levels)
    if target_mode == RO_VIBRATIONAL and (quanta[0] != 0 or 0 in quanta[1:]):
        raise ScenarioError(
            "ctls.levels", f"{RO_VIBRATIONAL} loop needs vib quanta (0, >0, >0), got {quanta}"
        )
    if target_mode == PURELY_ROTATIONAL and quanta != (0, 0, 0):
        raise ScenarioError(
            "ctls.levels", f"{PURELY_ROTATIONAL} loop needs vib quanta (0, 0, 0), got {quanta}"
        )
    return config


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
