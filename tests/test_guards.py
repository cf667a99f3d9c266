"""Guards on names that code outside the package relies on."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import ctlsim

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # traced benchmark runs setattr every (module, attr) in TARGETS, so a
    # refactor that drops one of these imports would break them
    spans = load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def spans_under_main(monkeypatch, capsys, command: str) -> Counter:
    """The traced spans whose parent is ``cli.main``, by name, for one command."""
    # the tracer rebinds ctlsim.cli's names after import, so a command that
    # reached its targets through functions captured at import would run
    # untraced even though every target name resolves
    monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
    tracer = load_spans().Tracer().install()
    try:
        code = importlib.import_module("ctlsim.cli").main(command.split())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = [tracer.names[i] for i in tracer.name]
    return Counter(
        name for name, parent in zip(names, tracer.parent) if parent >= 0 and names[parent] == "cli.main"
    )


@pytest.mark.parametrize(
    "command, sweep, loops",
    [
        ("excess", "transfer.excess_sweep", 1),
        ("yield", "transfer.yield_sweep", 1),
        ("figure fig2c", "transfer.population_sweep", 1),
        ("figure fig3", "transfer.excess_sweep", 2),
        ("figure fig4", "transfer.yield_sweep", 1),
    ],
)
def test_cli_sweeps_record_benchmark_spans(capsys, monkeypatch, command, sweep, loops):
    called_by_cli = spans_under_main(monkeypatch, capsys, command)
    assert called_by_cli[sweep] == loops
    assert called_by_cli["scenario.to_ctls_config"] == loops


@pytest.mark.parametrize(
    "command, targets",
    [
        ("populations", {"thermal.ctls_populations": 1}),
        ("protocol", {"propagator.run_protocol": 2, "ctls.total_unitary": 2}),
        ("levels", {"rotor.rotor_spectrum": 1}),
    ],
)
def test_cli_commands_record_benchmark_spans(capsys, monkeypatch, command, targets):
    # a command routed around its target would read 0 on that layer's metrics
    called_by_cli = spans_under_main(monkeypatch, capsys, command)
    assert {name: called_by_cli[name] for name in targets} == targets


def test_readme_library_example_runs_and_matches_namespace():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), {})
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "ctlsim"
        for alias in node.names
    }
    assert set(ctlsim.__all__) == imported


def test_every_all_entry_resolves():
    # `from ctlsim.<module> import *` fails on a name left in __all__ after
    # its definition is deleted
    modules = [ctlsim] + [
        importlib.import_module(f"ctlsim.{info.name}")
        for info in pkgutil.iter_modules(ctlsim.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert len(modules) > 1
    assert stale == []
