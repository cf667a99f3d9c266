"""Command-line front end.

Subcommands compute level tables, loop populations, protocol unitaries and
the temperature-sweep curves, emitting deterministic CSV (or JSON) records.
Exit codes: 0 success, 1 computation failure, 2 unreadable scenario file
or unwritable output, 3 scenario schema violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .ctls import Chirality, total_unitary
from .propagator import DEFAULT_STEPS_PER_STEP, ideal_schedule, run_protocol
from .rotor import J_MAX, rotor_spectrum
from .scenario import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    SCENARIO_PATH_ENV,
    ScenarioError,
    ScenarioFile,
    dump_scenario,
    parse_scenario,
    resolve_scenario_path,
    to_ctls_config,
)
from .transfer import default_sweep_grid, excess_sweep, population_sweep, yield_sweep

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems with exit code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(names: Sequence[str], columns: Sequence[Sequence[Any]], fmt: str) -> str:
    """CSV (9 significant digits per float) or JSON records of equal-length columns."""
    columns = [np.asarray(column) for column in columns]
    values = [column.tolist() for column in columns]
    if fmt == "csv":
        row = ",".join("{:.8e}" if column.dtype.kind == "f" else "{}" for column in columns)
        return "\n".join([",".join(names), *map(row.format, *values)]) + "\n"
    records = [dict(zip(names, row)) for row in zip(*values)]
    return json.dumps(records, indent=2) + "\n"


def _cmd_levels(scenario: ScenarioFile, args) -> tuple[list[str], list[np.ndarray]]:
    j, tau, energy = rotor_spectrum(scenario.constants, args.jmax)
    return ["j", "tau", "energy_ghz", "degeneracy"], [j, tau, energy, 2 * j + 1]


def _cmd_populations(scenario: ScenarioFile, args) -> tuple[list[str], list[list[float]]]:
    temps = scenario.temperatures
    values = [temps.t_rot_k, temps.t_vib_k, *to_ctls_config(scenario).populations(temps)]
    return ["t_rot_k", "t_vib_k", "p1", "p2", "p3"], [[value] for value in values]


def _cmd_protocol(scenario: ScenarioFile, args) -> tuple[list[str], list[np.ndarray]]:
    chiralities = (
        [Chirality(args.chirality)] if args.chirality != "both" else [Chirality.L, Chirality.R]
    )
    schedule = ideal_schedule()
    analytic = np.array([total_unitary(chirality) for chirality in chiralities])
    numeric = np.array([run_protocol(schedule, chirality, args.steps) for chirality in chiralities])
    defect = np.abs(numeric - analytic).max(axis=(1, 2))
    # one row per matrix entry, chirality by chirality, row-major within each
    row, col = np.divmod(np.arange(analytic.size) % 9, 3)
    names = [
        "chirality", "row", "col",
        "analytic_re", "analytic_im", "numeric_re", "numeric_im", "defect_max",
    ]
    return names, [
        np.repeat([chirality.value for chirality in chiralities], 9), row, col,
        analytic.real.ravel(), analytic.imag.ravel(),
        numeric.real.ravel(), numeric.imag.ravel(),
        np.repeat(defect, 9),
    ]


_POPULATIONS = ["p1", "p2", "p3"]
_PROPORTIONS = ["P1", "P2", "P3", "eta"]

# target: (sweep kernel, loop modes, columns after t_rot_k, plot). A mode of
# None keeps the scenario's; the figure targets fix theirs, and their plot is
# (title, one series label per column, in column order).
_SWEEPS = {
    "excess": ("excess", (None,), ["epsilon"], None),
    "yield": ("yield", (None,), _PROPORTIONS, None),
    "fig2c": ("population", (RO_VIBRATIONAL,), _POPULATIONS,
              ("loop populations, ro-vibrational", _POPULATIONS)),
    "fig2d": ("population", (PURELY_ROTATIONAL,), _POPULATIONS,
              ("loop populations, purely rotational", _POPULATIONS)),
    "fig3": ("excess", (RO_VIBRATIONAL, PURELY_ROTATIONAL), ["epsilon_rovib", "epsilon_rot"],
             ("enantiomeric excess", ["ro-vibrational", "purely rotational"])),
    "fig4": ("yield", (RO_VIBRATIONAL,), _PROPORTIONS,
             ("whole-manifold proportions and yield", _PROPORTIONS)),
}


def _cmd_sweep(scenario: ScenarioFile, args) -> tuple[list[str], list[np.ndarray]]:
    kernel, modes, columns, _ = _SWEEPS[args.target]
    # looked up per call, so that names rebound on this module take effect
    sweep = {"excess": excess_sweep, "population": population_sweep, "yield": yield_sweep}[kernel]
    spec = scenario.sweep
    grid = default_sweep_grid(spec.t_rot_min_k, spec.t_rot_max_k, spec.points, spec.log_scale)
    tables = [
        sweep(to_ctls_config(scenario, mode), grid, scenario.temperatures.t_vib_k)
        for mode in modes
    ]
    return ["t_rot_k", *columns], [grid, *np.column_stack(tables).T]


def _plotscript(target: str, data_path: Path) -> str:
    title, labels = _SWEEPS[target][3]
    name = data_path.name.replace("'", "''")  # gnuplot's escape inside single quotes
    # column 1 is t_rot_k, so the series are columns 2, 3, ...
    plots = ", \\\n    ".join(
        f"'{name}' using 1:{col} with lines title '{label}'"
        for col, label in enumerate(labels, start=2)
    )
    return (
        "set datafile separator ','\n"
        "set logscale x\n"
        "set xlabel 'T_rot (K)'\n"
        f"set title '{title}'\n"
        "set key left bottom\n"
        f"plot {plots}\n"
    )


def _int_range(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than ``minimum`` and no larger
    than ``maximum``, if one is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="ctlsim", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sub: _Parser, handler, **defaults) -> None:
        # what the subcommand runs, with a sweep's ``target``, and the shared options
        sub.set_defaults(handler=handler, emit_plotscript=False, **defaults)
        sub.add_argument(
            "--scenario",
            help=f"scenario file (default: ${SCENARIO_PATH_ENV} or the bundled one)",
        )
        sub.add_argument("--output", help="write records to this path instead of stdout")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument(
            "--dump-config",
            action="store_true",
            help="emit the normalized scenario instead of running",
        )

    levels = subparsers.add_parser("levels", help="rotor level table")
    levels.add_argument("--jmax", type=_int_range(0, J_MAX), default=3)
    add_common(levels, _cmd_levels)

    populations = subparsers.add_parser("populations", help="loop thermal populations")
    add_common(populations, _cmd_populations)

    protocol = subparsers.add_parser(
        "protocol", help="closed-form and propagated composite unitaries"
    )
    protocol.add_argument("--chirality", choices=("L", "R", "both"), default="both")
    protocol.add_argument("--steps", type=_int_range(1), default=DEFAULT_STEPS_PER_STEP)
    add_common(protocol, _cmd_protocol)

    excess = subparsers.add_parser("excess", help="excess vs rotational temperature")
    add_common(excess, _cmd_sweep, target="excess")

    yld = subparsers.add_parser("yield", help="manifold proportions and yield")
    add_common(yld, _cmd_sweep, target="yield")

    figure = subparsers.add_parser("figure", help="emit one result-curve dataset")
    figure.add_argument("target", choices=tuple(t for t, row in _SWEEPS.items() if row[3]))
    figure.add_argument(
        "--emit-plotscript",
        action="store_true",
        help="also write a gnuplot script next to --output",
    )
    add_common(figure, _cmd_sweep)

    return parser


def _run(args) -> int:
    scenario = parse_scenario(resolve_scenario_path(args.scenario))
    if args.dump_config:
        text = dump_scenario(scenario)
    else:
        text = _emit(*args.handler(scenario, args), args.format)
    try:
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8", newline="")
        else:
            sys.stdout.write(text)
        if args.emit_plotscript and not args.dump_config:
            script = _plotscript(args.target, Path(args.output))
            Path(str(args.output) + ".gp").write_text(script, encoding="utf-8")
    except OSError as exc:
        print(f"ctlsim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK

    if args.emit_plotscript and (not args.output or args.format != "csv"):
        print(
            "ctlsim figure: error: --emit-plotscript requires --output and --format csv",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        return _run(args)
    except OSError as exc:
        print(f"ctlsim: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        print(f"ctlsim: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:
        print(f"ctlsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
