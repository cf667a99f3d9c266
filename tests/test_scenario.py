import copy
import functools
import math
import operator
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.cli import EXIT_OK, EXIT_SCHEMA, main
from ctlsim.scenario import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    SCHEMA,
    ScenarioError,
    _UniqueKeyLoader,
    bundled_scenario_path,
    dump_scenario,
    parse_scenario,
    resolve_scenario_path,
    scenario_from_mapping,
    to_ctls_config,
)
from ctlsim.thermal import VibrationalMode
from ctlsim.transfer import (
    default_sweep_grid,
    excess_sweep,
    make_level,
    population_sweep,
    yield_sweep,
)

from .conftest import OH_STRETCH, PROPANEDIOL, build_config, label_digits

MINIMAL = """
molecule:
  name: test-molecule
  rotational_constants_ghz: {A: 3.0, B: 2.0, C: 1.0}
ctls:
  mode: purely_rotational
  levels:
    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 0, J: 1, tau: 0, M: 1}
    - {vib: 0, J: 1, tau: 1, M: 0}
"""

# MINIMAL as --dump-config writes it: schema order, every default filled in
MINIMAL_ECHO = """\
molecule:
  name: test-molecule
  rotational_constants_ghz:
    A: 3.0
    B: 2.0
    C: 1.0
  vibrational_modes: []
ctls:
  mode: purely_rotational
  levels:
  - vib: 0
    J: 0
    tau: 0
    M: 0
  - vib: 0
    J: 1
    tau: 0
    M: 1
  - vib: 0
    J: 1
    tau: 1
    M: 0
temperatures:
  t_rot_k: 10.0
  t_vib_k: 300.0
sweep:
  t_rot_min_k: 0.001
  t_rot_max_k: 300.0
  points: 200
  log_scale: true
labeling: tau
"""


HUGE_INT = "1" + "0" * 400  # a YAML int beyond the float range
UNKNOWN_MODE = "mode must be one of ('ro_vibrational', 'purely_rotational'), got 'bogus'"


# one key per kind of value: where it is written, how it is read back, and
# the kind its type errors name
TYPED_FIELDS = {
    "temperatures.t_rot_k": (
        lambda v: MINIMAL + f"\ntemperatures: {{t_rot_k: {v}}}\n",
        lambda s: s.temperatures.t_rot_k,
        "a number",
    ),
    "sweep.points": (
        lambda v: MINIMAL + f"\nsweep: {{points: {v}}}\n",
        lambda s: s.sweep.points,
        "an integer",
    ),
    "molecule.name": (
        lambda v: MINIMAL.replace("name: test-molecule", f"name: {v}"),
        lambda s: s.molecule_name,
        "a string",
    ),
    "sweep.log_scale": (
        lambda v: MINIMAL + f"\nsweep: {{log_scale: {v}}}\n",
        lambda s: s.sweep.log_scale,
        "true/false",
    ),
}
# each YAML value, as a type error shows it
TYPED_VALUES = {
    "true": "True", "7": "7", "7.5": "7.5", '"x"': "'x'", "[1]": "[1]", "{a: 1}": "{'a': 1}",
    "1e3": "1000.0", '"1e3"': "'1e3'",
}
# the (field, value) pairs that parse, and what they read as
TYPED_ACCEPTED = {
    ("temperatures.t_rot_k", "7"): 7.0,
    ("temperatures.t_rot_k", "7.5"): 7.5,
    ("temperatures.t_rot_k", "1e3"): 1000.0,
    ("sweep.points", "7"): 7,
    ("molecule.name", '"x"'): "x",
    ("molecule.name", '"1e3"'): "1e3",
    ("sweep.log_scale", "true"): True,
}


def write(tmp_path, text):
    path = tmp_path / "case.scenario"
    path.write_text(text, encoding="utf-8")
    return path


def schema_keys(row=SCHEMA, path=""):
    """(field, row) for every key of the schema table, each field as a
    ScenarioError names it, a list's item as item 0."""
    for key in row.rows:
        field = f"{path}.{key.key}" if path else key.key
        yield field, key
        yield from schema_keys(key, f"{field}[0]" if key.kind is list else field)


SCHEMA_KEYS = dict(schema_keys())


def edged(inner, *edges):
    """``inner``, with the edges of its range drawn as often as the rest."""
    return st.one_of(st.sampled_from(edges), inner)


TEMPERATURE = edged(st.floats(0.0, sys.float_info.max), 0.0, 5e-324, sys.float_info.max)
# a sweep bound near the float maximum may round past it on the grid
SWEEP_BOUND = edged(st.floats(5e-324, 1e300), 5e-324, 1e300)
CONSTANT = st.floats(1e-3, 1e3)

# the range that each number key's check accepts, by field, which the keys
# that a rule ties to others leave to ``scenario_mappings``
NUMBERS = {
    "molecule.vibrational_modes[0].frequency_thz": st.floats(1e-3, 1e3),
    "molecule.vibrational_modes[0].max_quanta": edged(st.integers(1, 2**53), 1, 2**53),
    "temperatures.t_rot_k": TEMPERATURE,
    "temperatures.t_vib_k": TEMPERATURE,
    "sweep.points": edged(st.integers(2, 10_000), 2, 10_000),
}


@st.composite
def scenario_mappings(draw):
    """A raw scenario drawn from the schema table.

    Each key is drawn by its kind: a number over the range its check
    accepts, edges included; a string from its row's choices, or any text;
    a list of zero to three sections. The rules across keys are built in:
    A >= B >= C, t_rot_min_k < t_rot_max_k, at least one mode for a
    ro-vibrational loop, and level digits valid for the labeling.
    """
    mode = draw(st.sampled_from(SCHEMA_KEYS["ctls.mode"].choices))
    a, b, c = sorted(draw(st.lists(CONSTANT, min_size=3, max_size=3)), reverse=True)
    t_min, t_max = sorted(draw(st.lists(SWEEP_BOUND, min_size=2, max_size=2, unique=True)))
    joint = {
        "molecule.rotational_constants_ghz": {"A": a, "B": b, "C": c},
        "ctls.mode": mode,
        "ctls.levels": None,  # drawn last, from the labeling and the modes
        "sweep.t_rot_min_k": t_min,
        "sweep.t_rot_max_k": t_max,
    }
    least_modes = 1 if mode == RO_VIBRATIONAL else 0
    sizes = {"molecule.vibrational_modes": edged(st.integers(least_modes, 3), least_modes, 3)}
    texts = {str: st.text(max_size=20), bool: st.booleans()}

    def section(row, path):
        fields = ((key, f"{path}.{key.key}" if path else key.key) for key in row.rows)
        return {key.key: value(key, field) for key, field in fields}

    def value(row, field):
        if field in joint:
            return joint[field]
        if row.kind is dict:
            return section(row, field)
        if row.kind is list:
            return [section(row, f"{field}[0]") for _ in range(draw(sizes[field]))]
        if row.choices:
            return draw(st.sampled_from(row.choices))
        return draw(NUMBERS[field] if row.kind in (int, float) else texts[row.kind])

    data = section(SCHEMA, "")
    modes = data["molecule"]["vibrational_modes"]
    excited = st.integers(1, modes[0]["max_quanta"]) if mode == RO_VIBRATIONAL else st.just(0)
    picks = draw(
        st.lists(
            st.sampled_from(label_digits(data["labeling"])),
            min_size=2, max_size=2, unique_by=lambda d: (d[0], d[3]),
        )
    )
    data["ctls"]["levels"] = [{"vib": 0, "J": 0, "tau": 0, "M": 0}] + [
        {"vib": draw(excited), "J": j, "tau": first, "M": second}
        for j, first, second, _ in picks
    ]
    return data


class TestBundledScenario:
    def test_parses(self):
        scenario = parse_scenario(bundled_scenario_path())
        assert scenario.molecule_name == "1,2-propanediol"
        assert (scenario.constants.A, scenario.constants.B, scenario.constants.C) == (
            8.5244,
            3.6354,
            2.7887,
        )
        assert scenario.vibrational_modes[0].frequency_thz == pytest.approx(100.95)
        assert scenario.mode == RO_VIBRATIONAL
        assert scenario.labeling == "tau"
        assert scenario.temperatures.t_vib_k == 300.0

    def test_config_levels(self):
        scenario = parse_scenario(bundled_scenario_path())
        config = to_ctls_config(scenario)
        energies = [lv.rot.energy_ghz for lv in config.levels]
        assert energies == pytest.approx([0.0, 11.3131, 12.1598], abs=1e-9)
        assert [lv.vib_quantum for lv in config.levels] == [0, 1, 1]


class TestValidation:
    def test_minimal_with_defaults(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        assert scenario.temperatures.t_rot_k == 10.0
        assert scenario.temperatures.t_vib_k == 300.0
        assert scenario.sweep.points == 200
        assert scenario.sweep.log_scale is True
        assert scenario.labeling == "tau"
        assert scenario.vibrational_modes == ()

    def test_empty_modes_valid_for_purely_rotational(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        config = to_ctls_config(scenario)
        assert [lv.vib_quantum for lv in config.levels] == [0, 0, 0]

    def test_bad_constant_ordering_names_field(self, tmp_path):
        text = MINIMAL.replace("{A: 3.0, B: 2.0, C: 1.0}", "{A: 1.0, B: 2.0, C: 1.0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "rotational_constants_ghz" in str(err.value)
        assert "A >= B >= C" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\nunexpected_key: 1\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "unexpected_key" in str(err.value)

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL + "\n1: a\nzz: b\n"))
        assert err.value.field == "1"

    def test_unknown_nested_key_rejected(self, tmp_path):
        text = MINIMAL.replace("name: test-molecule", "name: test-molecule\n  color: blue")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "molecule.color" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL.replace("  name: test-molecule\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "molecule.name" in str(err.value)

    def test_wrong_level_count(self, tmp_path):
        text = MINIMAL.replace("    - {vib: 0, J: 1, tau: 1, M: 0}\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "ctls.levels" in str(err.value)

    def test_rovib_mode_requires_modes(self, tmp_path):
        text = MINIMAL.replace("purely_rotational", "ro_vibrational").replace(
            "- {vib: 0, J: 1, tau: 0, M: 1}", "- {vib: 1, J: 1, tau: 0, M: 1}"
        ).replace("- {vib: 0, J: 1, tau: 1, M: 0}", "- {vib: 1, J: 1, tau: 1, M: 0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "vibrational_modes" in str(err.value)

    def test_vib_pattern_must_match_mode(self, tmp_path):
        text = MINIMAL.replace("- {vib: 0, J: 1, tau: 1, M: 0}", "- {vib: 1, J: 1, tau: 1, M: 0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "ctls.levels" in str(err.value)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("{vib: 0, J: 1, tau: 1, M: 0}", "{vib: 0, J: 1, tau: 0, M: 1}"),  # duplicate
            ("{vib: 0, J: 1, tau: 1, M: 0}", "{vib: 0, J: 1, tau: 5, M: 0}"),  # tau > J
        ],
        ids=["duplicate-level", "tau-out-of-range"],
    )
    def test_bad_loop_rejected_at_parse(self, tmp_path, old, new):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL.replace(old, new)))
        assert err.value.field.startswith("ctls.levels")
        # the scenario's own loop: no override to name
        assert "loop this command builds" not in str(err.value)

    @pytest.mark.parametrize(
        "sweep",
        [
            "{t_rot_min_k: 5.0, t_rot_max_k: 1.0}",
            "{t_rot_min_k: 0.0}",
            "{t_rot_max_k: .inf}",
            "{t_rot_max_k: .nan}",
            "{points: 1}",
            "{points: 10001}",
            "{points: 100000000000000000}",
        ],
    )
    def test_bad_sweep_rejected(self, tmp_path, sweep):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL + f"\nsweep: {sweep}\n"))
        assert err.value.field == "sweep"

    def test_non_numeric_rejected(self, tmp_path):
        text = MINIMAL.replace("A: 3.0", "A: three")
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, text))

    @pytest.mark.parametrize(
        "text, field, message",
        [
            (
                MINIMAL.replace("A: 3.0", f"A: {HUGE_INT}"),
                "molecule.rotational_constants_ghz.A",
                "int too large to convert to float",
            ),
            (
                MINIMAL + f"\ntemperatures: {{t_rot_k: {HUGE_INT}}}\n",
                "temperatures.t_rot_k",
                "int too large to convert to float",
            ),
            (MINIMAL.replace("mode: purely_rotational", "mode: bogus"), "ctls.mode", UNKNOWN_MODE),
            # a boolean is not a number, though Python counts it as an int
            (
                MINIMAL + "\ntemperatures: {t_rot_k: true}\n",
                "temperatures.t_rot_k",
                "expected a number, got True",
            ),
            (
                MINIMAL.replace("{vib: 0, J: 0,", "{vib: 0, J: 0.5,"),
                "ctls.levels[0].J",
                "expected an integer, got 0.5",
            ),
            (
                MINIMAL.replace("name: test-molecule", "name: 7"),
                "molecule.name",
                "expected a string, got 7",
            ),
            (
                MINIMAL + "\nsweep: {log_scale: 1}\n",
                "sweep.log_scale",
                "expected true/false, got 1",
            ),
            (
                MINIMAL.replace("name: test-molecule", "name: m\n  vibrational_modes: 5"),
                "molecule.vibrational_modes",
                "expected a list, got int",
            ),
            # exponent floats read as numbers, checked as any number is
            (
                MINIMAL + "temperatures: {t_rot_k: -2E-3}\n",
                "temperatures",
                "t_rot_k must be finite and >= 0, got -0.002",
            ),
            (
                MINIMAL + "temperatures: {t_vib_k: 1e400}\n",
                "temperatures",
                "t_vib_k must be finite and >= 0, got inf",
            ),
            (
                MINIMAL + "sweep: {t_rot_max_k: 1e400}\n",
                "sweep",
                "need 0 < t_min_k < t_max_k < inf, got (0.001, inf)",
            ),
        ],
        ids=[
            "huge-int-A", "huge-int-t_rot", "unknown-mode", "bool-number", "float-integer",
            "int-string", "int-boolean", "int-list", "exponent-negative",
            "exponent-overflow-temperature", "exponent-overflow-bound",
        ],
    )
    def test_bad_value_names_field(self, tmp_path, text, field, message):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    @pytest.mark.parametrize("value", TYPED_VALUES)
    @pytest.mark.parametrize("field", TYPED_FIELDS)
    def test_typed_read_kind_matrix(self, tmp_path, field, value):
        # every value against every kind: a value is read by its own kind only
        place, read, kind = TYPED_FIELDS[field]
        path = write(tmp_path, place(value))
        if (field, value) in TYPED_ACCEPTED:
            expected = TYPED_ACCEPTED[field, value]
            got = read(parse_scenario(path))
            assert got == expected and type(got) is type(expected)
        else:
            with pytest.raises(ScenarioError) as err:
                parse_scenario(path)
            assert err.value.field == field
            assert str(err.value) == f"{field}: expected {kind}, got {TYPED_VALUES[value]}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a value's check runs as soon as it is read, before later keys
            (
                MINIMAL.replace("mode: purely_rotational", "mode: bogus")
                .replace("{vib: 0, J: 1, tau: 0,", "{vib: 0, J: one, tau: 0,"),
                f"ctls.mode: {UNKNOWN_MODE}",
            ),
            (
                MINIMAL + "\nlabeling: other\nextra: 1\n",
                "labeling: must be one of ('tau', 'ka_kc'), got 'other'",
            ),
            # a section's unknown keys, once its keys are read, before later sections
            (
                MINIMAL.replace("name: test-molecule", "name: test-molecule\n  extra: 1")
                + "\nsweep: {points: 1}\n",
                "molecule.extra: unknown key",
            ),
            (
                MINIMAL.replace("name: test-molecule", "name: test-molecule\n  extra: 1")
                + "\nextra: 1\n",
                "molecule.extra: unknown key",
            ),
            (MINIMAL + "\nzz: 1\naa: 1\n", "aa: unknown key"),
            # ... and before the section's own check
            (
                MINIMAL.replace("{A: 3.0, B: 2.0, C: 1.0}", "{A: 1.0, B: 2.0, C: 1.0, D: 1}"),
                "molecule.rotational_constants_ghz.D: unknown key",
            ),
            # every item of a list is a mapping before any item is read
            (
                MINIMAL.replace("{vib: 0, J: 0,", "{vib: 0, J: zero,")
                .replace("- {vib: 0, J: 1, tau: 0, M: 1}", "- 5"),
                "ctls.levels[1]: expected a mapping, got int",
            ),
            # an item is read and its unknown keys rejected before the next item
            (
                MINIMAL.replace("{vib: 0, J: 0, tau: 0, M: 0}", "{vib: 0, J: 0, tau: 0, M: 0, x: 1}")
                .replace("{vib: 0, J: 1, tau: 0,", "{vib: 0, J: one, tau: 0,"),
                "ctls.levels[0].x: unknown key",
            ),
            # keys in schema order, not in the order written
            (
                MINIMAL.replace("{vib: 0, J: 0, tau: 0, M: 0}", "{M: m, tau: t, J: j, vib: 0}"),
                "ctls.levels[0].J: expected an integer, got 'j'",
            ),
            # a section's check, before the sections after it
            (
                MINIMAL.replace("name: test-molecule", "name: m\n  vibrational_modes:"
                                "\n    - {name: s, frequency_thz: -1.0}\n  extra: 1"),
                "molecule.vibrational_modes[0]: mode frequency must be finite and > 0, got -1.0",
            ),
            (
                MINIMAL + "\ntemperatures: {t_rot_k: -1.0}\nsweep: {points: 1}\n",
                "temperatures: t_rot_k must be finite and >= 0, got -1.0",
            ),
            (
                MINIMAL.replace("  name: test-molecule\n", "")
                .replace("{A: 3.0, B: 2.0, C: 1.0}", "{A: 1.0, B: 2.0, C: 1.0}"),
                "molecule.name: missing required key",
            ),
            # the loop's rules, once every key has been read
            (
                MINIMAL.replace("{vib: 0, J: 1, tau: 1, M: 0}", "{vib: 0, J: 1, tau: 0, M: 1}")
                + "\nsweep: {points: 1}\n",
                "sweep: points must lie in [2, 10000], got 1",
            ),
        ],
        ids=[
            "mode-before-levels", "labeling-before-unknown", "unknown-before-next-section",
            "section-unknown-before-top-unknown", "unknown-in-key-order",
            "unknown-before-section-check", "list-items-mappings-first",
            "item-unknown-before-next-item", "schema-order", "section-check-before-unknown",
            "temperatures-before-sweep", "missing-before-section-check", "sweep-before-loop",
        ],
    )
    def test_first_fault_is_reported(self, tmp_path, text, message):
        # a document with two faults names the one the schema walk reaches first
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert str(err.value) == message

    def test_bad_labeling_rejected(self, tmp_path):
        # the parser names the field, before a level is read by an unknown labeling
        text = MINIMAL + "\nlabeling: other\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert err.value.field == "labeling"
        assert str(err.value) == "labeling: must be one of ('tau', 'ka_kc'), got 'other'"

    @pytest.mark.parametrize(
        "text, key, line",
        [
            (MINIMAL + "labeling: tau\nlabeling: ka_kc\n", "labeling", 12),
            (MINIMAL.replace("name: test-molecule\n", "name: test-molecule\n  name: x\n"), "name", 4),
            (MINIMAL.replace("M: 0}", "M: 0, M: 1}", 1), "M", 8),
        ],
        ids=["top-level", "section", "flow-mapping"],
    )
    def test_key_written_twice_rejected(self, tmp_path, text, key, line):
        # YAML itself would keep the last value silently
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert err.value.field == "<document>"
        assert f'found duplicate key {key!r}\n  in "<unicode string>", line {line},' in str(err.value)

    def test_merged_key_may_be_written_over(self, tmp_path):
        merged = "    - {<<: {vib: 0, J: 1, tau: 0, M: 1}, tau: 1, M: 0}\n"
        text = MINIMAL.replace("    - {vib: 0, J: 1, tau: 1, M: 0}\n", merged)
        assert parse_scenario(write(tmp_path, text)) == parse_scenario(write(tmp_path, MINIMAL))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_scenario(tmp_path / "nope.scenario")

    def test_empty_document_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, "\n"))

    def test_mapping_not_list(self):
        with pytest.raises(ScenarioError):
            scenario_from_mapping({"molecule": []})


# Every key of the schema set to a value other than its default.
FULL = {
    "molecule": {
        "name": "test-molecule",
        "rotational_constants_ghz": {"A": 3.0, "B": 2.0, "C": 1.0},
        "vibrational_modes": [{"name": "stretch", "frequency_thz": 90.0, "max_quanta": 3}],
    },
    "ctls": {
        "mode": "purely_rotational",
        "levels": [
            {"vib": 0, "J": 0, "tau": 0, "M": 0},
            {"vib": 0, "J": 1, "tau": 0, "M": 1},
            {"vib": 0, "J": 1, "tau": 1, "M": 0},
        ],
    },
    "temperatures": {"t_rot_k": 20.0, "t_vib_k": 250.0},
    "sweep": {"t_rot_min_k": 0.1, "t_rot_max_k": 50.0, "points": 5, "log_scale": False},
    "labeling": "ka_kc",
}
OPTIONAL = {
    "molecule.vibrational_modes",
    "molecule.vibrational_modes[0].max_quanta",
    "temperatures",
    "temperatures.t_rot_k",
    "temperatures.t_vib_k",
    "sweep",
    "sweep.t_rot_min_k",
    "sweep.t_rot_max_k",
    "sweep.points",
    "sweep.log_scale",
    "labeling",
}


def key_paths(node, path=()):
    """Every key of a nested mapping, as a path of keys and list indices."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(key, str):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))


def field_name(path):
    """The path as a ScenarioError names it, e.g. ``ctls.levels[0].J``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def with_key(path, null):
    """FULL with the key at ``path`` set to null, or left out."""
    data = copy.deepcopy(FULL)
    *parents, last = path
    section = functools.reduce(operator.getitem, parents, data)
    if null:
        section[last] = None
    else:
        del section[last]
    return data


class TestNullKeys:
    @pytest.mark.parametrize("path", list(key_paths(FULL)), ids=field_name)
    def test_null_key_reads_as_absent(self, tmp_path, capsys, path):
        field = field_name(path)
        nulled = with_key(path, null=True)
        code = main(["populations", "--scenario", str(write(tmp_path, yaml.safe_dump(nulled)))])
        err = capsys.readouterr().err
        if field in OPTIONAL:
            assert scenario_from_mapping(nulled) == scenario_from_mapping(with_key(path, null=False))
            assert code == EXIT_OK, err
        else:
            with pytest.raises(ScenarioError) as info:
                scenario_from_mapping(nulled)
            assert info.value.field == field
            assert code == EXIT_SCHEMA
            assert f"invalid scenario: {field}: missing required key" in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_scenario_section():
    """The README's "Scenario files" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]


class TestSchemaTable:
    def test_optional_keys_are_the_tables(self):
        assert {field for field, row in SCHEMA_KEYS.items() if row.default is not None} == OPTIONAL

    def test_readme_example_writes_every_key(self):
        block = readme_scenario_section().split("```yaml\n", 1)[1].split("```", 1)[0]
        example = yaml.load(block, Loader=_UniqueKeyLoader)
        written = {re.sub(r"\[\d+\]", "[0]", field_name(path)) for path in key_paths(example)}
        assert sorted(written - SCHEMA_KEYS.keys()) == [], "in the README example only"
        assert sorted(SCHEMA_KEYS.keys() - written) == [], "in the table only"

    def test_readme_lists_each_optional_key_with_its_default(self):
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", readme_scenario_section(), re.M)
        listed = {
            key.replace("[i]", "[0]"): yaml.load(default, Loader=_UniqueKeyLoader)
            for key, default in rows
        }
        defaults = {field: row.default for field, row in SCHEMA_KEYS.items() if row.default is not None}
        assert sorted(listed.keys() - defaults.keys()) == [], "optional in the README only"
        assert sorted(defaults.keys() - listed.keys()) == [], "optional in the table only"
        for key, default in defaults.items():
            assert (listed[key], type(listed[key])) == (default, type(default)), key


class TestNumberSyntax:
    # YAML 1.2's exponent floats, which YAML 1.1 alone reads as strings
    @pytest.mark.parametrize(
        "written, number",
        [("1e3", 1000.0), ("1.0e308", 1e308), ("-2E-3", -0.002), ("+.5e1", 5.0), ("1e400", math.inf)],
    )
    def test_exponent_form_reads_as_a_float(self, written, number):
        assert yaml.safe_load(f"x: {written}") == {"x": written}
        assert yaml.load(f"x: {written}", Loader=_UniqueKeyLoader) == {"x": number}

    @pytest.mark.parametrize("written", ['"1e3"', "'1e3'", "1e3x", "1_0e3", "e3", "1e"])
    def test_quoted_or_malformed_stays_a_string(self, written):
        assert yaml.load(f"x: {written}", Loader=_UniqueKeyLoader) == yaml.safe_load(f"x: {written}")
        assert isinstance(yaml.safe_load(f"x: {written}")["x"], str)

    def test_bundled_scenario_takes_an_exponent(self, tmp_path, capsys):
        text = bundled_scenario_path().read_text(encoding="utf-8")
        path = write(tmp_path, text.replace("t_rot_max_k: 300.0", "t_rot_max_k: 1e3"))
        assert main(["excess", "--scenario", str(path), "--dump-config"]) == EXIT_OK
        assert yaml.safe_load(capsys.readouterr().out)["sweep"]["t_rot_max_k"] == 1000.0

    def test_string_written_like_a_number_dumps_quoted(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL.replace("test-molecule", '"1e3"')))
        assert scenario.molecule_name == "1e3"
        text = dump_scenario(scenario)
        assert "  name: '1e3'\n" in text
        assert parse_scenario(write(tmp_path, text)) == scenario


class TestRoundTrip:
    def test_bundled_round_trips(self):
        scenario = parse_scenario(bundled_scenario_path())
        text = dump_scenario(scenario)
        again = scenario_from_mapping(yaml.safe_load(text))
        assert again == scenario

    def test_minimal_round_trips(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        again = scenario_from_mapping(yaml.safe_load(dump_scenario(scenario)))
        assert again == scenario

    def test_echo_is_in_schema_order(self):
        # every section's keys written in reverse; the echo keeps the read order
        def reverse(node):
            if isinstance(node, dict):
                return {key: reverse(node[key]) for key in reversed(list(node))}
            if isinstance(node, list):
                return [reverse(item) for item in node]
            return node

        data = yaml.safe_load(bundled_scenario_path().read_text(encoding="utf-8"))
        reversed_data = reverse(data)
        assert list(reversed_data) != list(data)
        scenario = scenario_from_mapping(data)
        again = scenario_from_mapping(reversed_data)
        assert again == scenario
        assert dump_scenario(again) == dump_scenario(scenario)

    def test_echo_fills_in_every_default(self, tmp_path):
        assert dump_scenario(parse_scenario(write(tmp_path, MINIMAL))) == MINIMAL_ECHO

    def test_echo_normalizes_numbers_and_nulls(self, tmp_path):
        text = MINIMAL.replace("A: 3.0", "A: 3") + (
            "temperatures: {t_rot_k: -0.0, t_vib_k: null}\n"
            "sweep: {points: null}\n"
        )
        echo = yaml.safe_load(dump_scenario(parse_scenario(write(tmp_path, text))))
        assert repr(echo["molecule"]["rotational_constants_ghz"]["A"]) == "3.0"
        assert repr(echo["temperatures"]["t_rot_k"]) == "0.0"
        assert echo["temperatures"]["t_vib_k"] == 300.0
        assert echo["sweep"]["points"] == 200

    def test_scenario_hashes_on_its_fields(self):
        scenario = parse_scenario(bundled_scenario_path())
        assert hash(scenario) == hash(parse_scenario(bundled_scenario_path()))
        assert "echo" not in repr(scenario)

    @given(scenario_mappings())
    @settings(deadline=None, max_examples=100)
    def test_dump_then_parse_is_identity(self, data):
        # read back as ``--scenario`` reads a file that ``--dump-config`` wrote
        scenario = scenario_from_mapping(data)
        text = dump_scenario(scenario)
        again = scenario_from_mapping(yaml.load(text, Loader=_UniqueKeyLoader))
        assert again == scenario
        assert dump_scenario(again) == text


class TestModeOverride:
    def test_to_purely_rotational(self):
        scenario = parse_scenario(bundled_scenario_path())
        config = to_ctls_config(scenario, PURELY_ROTATIONAL)
        assert [lv.vib_quantum for lv in config.levels] == [0, 0, 0]
        # rotational labels preserved
        assert config.levels[2].rot.energy_ghz == pytest.approx(12.1598, abs=1e-9)

    def test_to_ro_vibrational(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "ctls:",
            "  vibrational_modes:\n"
            "    - {name: stretch, frequency_thz: 90.0}\n"
            "ctls:",
        )
        path = write(tmp_path, text)
        scenario = parse_scenario(path)
        config = to_ctls_config(scenario, RO_VIBRATIONAL)
        assert [lv.vib_quantum for lv in config.levels] == [0, 1, 1]
        assert config.levels[1].vib_energy_thz == pytest.approx(90.0)
        # the mode's ladder takes the schema's default top, and the echo says so
        assert scenario.vibrational_modes == (VibrationalMode("stretch", 90.0, 5),)
        assert main(["excess", "--scenario", str(path), "--dump-config"]) == EXIT_OK
        echo = yaml.safe_load(capsys.readouterr().out)
        assert echo["molecule"]["vibrational_modes"] == [
            {"name": "stretch", "frequency_thz": 90.0, "max_quanta": 5}
        ]

    def test_to_ro_vibrational_without_modes_fails(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        with pytest.raises(ScenarioError):
            to_ctls_config(scenario, RO_VIBRATIONAL)

    @given(scenario_mappings(), st.booleans())
    @settings(deadline=None, max_examples=100)
    def test_override_keeps_the_written_rotational_levels(self, data, collide):
        levels = data["ctls"]["levels"]
        modes = data["molecule"]["vibrational_modes"]
        if collide and data["ctls"]["mode"] == RO_VIBRATIONAL and modes[0]["max_quanta"] >= 2:
            # level 3 on level 2's rotational level, one quantum apart: a
            # distinct level until the purely rotational loop grounds both
            levels[2] = dict(levels[1], vib=1 if levels[1]["vib"] != 1 else 2)
        scenario = scenario_from_mapping(data)
        written = [
            (lv.j, lv.tau if scenario.labeling == "tau" else lv.tau - lv.m)
            for lv in scenario.levels
        ]
        declared = to_ctls_config(scenario)
        assert [(lv.rot.j, lv.rot.tau) for lv in declared.levels] == written
        for mode in (RO_VIBRATIONAL, PURELY_ROTATIONAL):
            if mode == scenario.mode:
                assert to_ctls_config(scenario, mode) == declared
                continue
            quanta = (0, 1, 1) if mode == RO_VIBRATIONAL else (0, 0, 0)
            if mode == RO_VIBRATIONAL and not scenario.vibrational_modes:
                field = "molecule.vibrational_modes"
                message = "ro_vibrational mode requires at least one vibrational mode"
            elif len(set(zip(quanta, written))) < 3:
                field = "ctls.levels"
                message = f"the three levels must be distinct in the {mode} loop this command builds"
            else:
                config = to_ctls_config(scenario, mode)
                assert tuple(lv.vib_quantum for lv in config.levels) == quanta
                assert [lv.rot for lv in config.levels] == [lv.rot for lv in declared.levels]
                continue
            with pytest.raises(ScenarioError) as err:
                to_ctls_config(scenario, mode)
            assert (err.value.field, str(err.value)) == (field, f"{field}: {message}")

    def test_unknown_mode_is_the_callers_error(self):
        scenario = parse_scenario(bundled_scenario_path())
        expected = r"mode must be one of \('ro_vibrational', 'purely_rotational'\), got 'bogus'"
        with pytest.raises(ValueError, match=expected) as info:
            to_ctls_config(scenario, "bogus")
        assert not isinstance(info.value, ScenarioError)


# library calls that leave out a value the scenario schema defaults, and the
# parameters they then miss: the parser is the one home of each default
WITHOUT_SCHEMA_DEFAULT = [
    (excess_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (population_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (yield_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (default_sweep_grid, (), "'t_min_k', 't_max_k', 'points', and 'log_scale'"),
    (VibrationalMode, ("m", 30.0), "'max_quanta'"),
    (make_level, (PROPANEDIOL, (OH_STRETCH,), 0, 0, 0, 0), "'labeling'"),
]


@pytest.mark.parametrize(
    "function, args, missing",
    WITHOUT_SCHEMA_DEFAULT,
    ids=[function.__name__ for function, _, _ in WITHOUT_SCHEMA_DEFAULT],
)
def test_library_call_needs_the_schema_value(function, args, missing):
    with pytest.raises(TypeError, match=rf"missing \d required positional arguments?: {missing}$"):
        function(*args)


class TestResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTLS_SCENARIO_PATH", "/elsewhere.scenario")
        assert str(resolve_scenario_path("/explicit.scenario")) == "/explicit.scenario"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("CTLS_SCENARIO_PATH", "/from-env.scenario")
        assert str(resolve_scenario_path(None)) == "/from-env.scenario"

    def test_bundled_default(self, monkeypatch):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        assert resolve_scenario_path(None) == bundled_scenario_path()
