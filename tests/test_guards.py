"""Guards on names that code outside the package relies on."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import ctlsim

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_span_targets_resolve():
    # traced benchmark runs setattr every (module, attr) in TARGETS, so a
    # refactor that drops one of these imports would break them
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


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
