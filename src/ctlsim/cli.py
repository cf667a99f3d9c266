"""Command-line front end.

Subcommands compute level tables, loop populations, protocol unitaries and
the temperature-sweep curves, emitting deterministic CSV (or JSON) records.
Exit codes: 0 success, 1 computation failure, 2 unreadable scenario file,
3 scenario schema violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .ctls import Chirality, total_unitary
from .propagator import ideal_schedule, run_protocol
from .rotor import rotor_spectrum
from .scenario import (
    SCENARIO_PATH_ENV,
    ScenarioError,
    ScenarioFile,
    dump_scenario,
    parse_scenario,
    resolve_scenario_path,
    to_ctls_config,
)
from .transfer import (
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    default_sweep_grid,
    excess_sweep,
    population_sweep,
    yield_sweep,
)

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


def _format_number(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.8e}"  # 9 significant digits
    return str(value)


def _emit(columns: Sequence[str], rows: Sequence[Sequence[Any]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(_format_number(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    records = [dict(zip(columns, (_json_value(v) for v in row))) for row in rows]
    return json.dumps(records, indent=2) + "\n"


def _json_value(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _cmd_levels(scenario: ScenarioFile, args) -> tuple[list[str], list[list[Any]]]:
    columns = ["j", "tau", "energy_ghz", "degeneracy"]
    rows = [
        [level.j, level.tau, level.energy_ghz, level.degeneracy]
        for level in rotor_spectrum(scenario.constants, args.jmax)
    ]
    return columns, rows


def _cmd_populations(scenario: ScenarioFile, args) -> tuple[list[str], list[list[Any]]]:
    config = to_ctls_config(scenario)
    p = config.populations(scenario.temperatures)
    columns = ["t_rot_k", "t_vib_k", "p1", "p2", "p3"]
    rows = [[scenario.temperatures.t_rot_k, scenario.temperatures.t_vib_k, p.p1, p.p2, p.p3]]
    return columns, rows


def _cmd_protocol(scenario: ScenarioFile, args) -> tuple[list[str], list[list[Any]]]:
    chiralities = (
        [Chirality(args.chirality)] if args.chirality != "both" else [Chirality.L, Chirality.R]
    )
    schedule = ideal_schedule()
    columns = [
        "chirality", "row", "col",
        "analytic_re", "analytic_im", "numeric_re", "numeric_im", "defect_max",
    ]
    rows: list[list[Any]] = []
    for chirality in chiralities:
        analytic = total_unitary(chirality)
        numeric = run_protocol(schedule, chirality, args.steps)
        defect = float(np.abs(numeric - analytic).max())
        for i in range(3):
            for j in range(3):
                rows.append(
                    [
                        chirality.value, i, j,
                        analytic[i, j].real, analytic[i, j].imag,
                        numeric[i, j].real, numeric[i, j].imag,
                        defect,
                    ]
                )
    return columns, rows


_POPULATIONS = ["p1", "p2", "p3"]
_PROPORTIONS = ["P1", "P2", "P3", "eta"]

# target: (sweep kernel, loop modes, columns after t_rot_k). A mode of None
# keeps the scenario's; the figure targets fix theirs.
_SWEEPS = {
    "excess": ("excess", (None,), ["epsilon"]),
    "yield": ("yield", (None,), _PROPORTIONS),
    "fig2c": ("population", (RO_VIBRATIONAL,), _POPULATIONS),
    "fig2d": ("population", (PURELY_ROTATIONAL,), _POPULATIONS),
    "fig3": ("excess", (RO_VIBRATIONAL, PURELY_ROTATIONAL), ["epsilon_rovib", "epsilon_rot"]),
    "fig4": ("yield", (RO_VIBRATIONAL,), _PROPORTIONS),
}


def _cmd_sweep(scenario: ScenarioFile, args) -> tuple[list[str], list[list[Any]]]:
    kernel, modes, columns = _SWEEPS[getattr(args, "target", args.command)]
    # looked up per call, so that names rebound on this module take effect
    sweep = {"excess": excess_sweep, "population": population_sweep, "yield": yield_sweep}[kernel]
    spec = scenario.sweep
    grid = default_sweep_grid(spec.t_rot_min_k, spec.t_rot_max_k, spec.points, spec.log_scale)
    tables = [
        sweep(to_ctls_config(scenario, mode), grid, scenario.temperatures.t_vib_k)
        for mode in modes
    ]
    return ["t_rot_k", *columns], [[t, *row] for t, row in zip(grid, np.column_stack(tables))]


_PLOT_SPECS = {
    "fig2c": ("loop populations, ro-vibrational", [("p1", 2), ("p2", 3), ("p3", 4)]),
    "fig2d": ("loop populations, purely rotational", [("p1", 2), ("p2", 3), ("p3", 4)]),
    "fig3": ("enantiomeric excess", [("ro-vibrational", 2), ("purely rotational", 3)]),
    "fig4": ("whole-manifold proportions and yield", [("P1", 2), ("P2", 3), ("P3", 4), ("eta", 5)]),
}


def _plotscript(target: str, data_path: Path) -> str:
    title, series = _PLOT_SPECS[target]
    plots = ", \\\n    ".join(
        f"'{data_path.name}' using 1:{col} with lines title '{label}'"
        for label, col in series
    )
    return (
        "set datafile separator ','\n"
        "set logscale x\n"
        "set xlabel 'T_rot (K)'\n"
        f"set title '{title}'\n"
        "set key left bottom\n"
        f"plot {plots}\n"
    )


_COMMANDS = {
    "levels": _cmd_levels,
    "populations": _cmd_populations,
    "protocol": _cmd_protocol,
    "excess": _cmd_sweep,
    "yield": _cmd_sweep,
    "figure": _cmd_sweep,
}


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="ctlsim", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sub: _Parser) -> None:
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
    levels.add_argument("--jmax", type=_at_least(0), default=3)
    add_common(levels)

    populations = subparsers.add_parser("populations", help="loop thermal populations")
    add_common(populations)

    protocol = subparsers.add_parser(
        "protocol", help="closed-form and propagated composite unitaries"
    )
    protocol.add_argument("--chirality", choices=("L", "R", "both"), default="both")
    protocol.add_argument("--steps", type=_at_least(1), default=2000)
    add_common(protocol)

    excess = subparsers.add_parser("excess", help="excess vs rotational temperature")
    add_common(excess)

    yld = subparsers.add_parser("yield", help="manifold proportions and yield")
    add_common(yld)

    figure = subparsers.add_parser("figure", help="emit one result-curve dataset")
    figure.add_argument("target", choices=tuple(_PLOT_SPECS))
    figure.add_argument(
        "--emit-plotscript",
        action="store_true",
        help="also write a gnuplot script next to --output",
    )
    add_common(figure)

    return parser


def _run(args) -> int:
    scenario = parse_scenario(resolve_scenario_path(args.scenario))
    if args.dump_config:
        text = dump_scenario(scenario)
    else:
        text = _emit(*_COMMANDS[args.command](scenario, args), args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)

    if getattr(args, "emit_plotscript", False) and not args.dump_config:
        script = _plotscript(args.target, Path(args.output))
        Path(str(args.output) + ".gp").write_text(script, encoding="utf-8")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK

    if getattr(args, "emit_plotscript", False) and (not args.output or args.format != "csv"):
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
        print(f"ctlsim: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
