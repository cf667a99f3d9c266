#!/usr/bin/env python3
"""Run the Tier-1 suite against hand-written mutants of src/ and report each.

Usage, from anywhere in a source checkout:

    python3 tools/mutants.py

A mutant is one exact text replacement in one file under src/. Its old text
must occur exactly once in that file, so a mutant whose target has been
rewritten stops the run instead of silently testing nothing. Each mutant is
applied to a temporary copy of src/, and Tier-1 runs against that copy with
``-x -q``: a failing suite kills the mutant, a passing one lets it survive.

Exit status: 0 if every mutant is killed, 1 if any survives, 2 if a mutant
no longer applies or the copy of src/ is not the one the suite imports.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, file under src/, old text, new text)
MUTANTS = (
    # Each area bound of _check_areas loosened from _AREA_TOL to 1e-3 rad
    (
        "areas-A-loose",
        "ctlsim/propagator.py",
        "if not abs(area_a - _STEP_AREAS[0]) <= _AREA_TOL:",
        "if not abs(area_a - _STEP_AREAS[0]) <= 1e-3:",
    ),
    (
        "areas-B-loose",
        "ctlsim/propagator.py",
        "if not abs(area_b - _STEP_AREAS[1]) <= _AREA_TOL:",
        "if not abs(area_b - _STEP_AREAS[1]) <= 1e-3:",
    ),
    (
        "areas-C-loose",
        "ctlsim/propagator.py",
        "if not min(residue, math.pi - residue) <= _AREA_TOL:",
        "if not min(residue, math.pi - residue) <= 1e-3:",
    ),
    (
        "areas-C-one-sided",
        "ctlsim/propagator.py",
        "if not min(residue, math.pi - residue) <= _AREA_TOL:",
        "if not residue <= _AREA_TOL:",
    ),
    # Energy ties in the zero-temperature limits: exact only, or far too wide
    (
        "tie-rtol-zero",
        "ctlsim/thermal.py",
        "_TIE_RTOL = 1e-12",
        "_TIE_RTOL = 0.0",
    ),
    (
        "tie-rtol-wide",
        "ctlsim/thermal.py",
        "_TIE_RTOL = 1e-12",
        "_TIE_RTOL = 1e-6",
    ),
    # Both temperatures frozen: keep the lowest rotational, not total, energy
    (
        "both-frozen-rot",
        "ctlsim/thermal.py",
        "_ground(vib), _ground(vib + rot)",
        "_ground(vib), _ground(rot)",
    ),
    # The sign rule dropped, or applied to the wrong species
    (
        "sign-rule-off",
        "ctlsim/ctls.py",
        "return -value if chirality is Chirality.L else value",
        "return value",
    ),
    (
        "sign-rule-swapped",
        "ctlsim/ctls.py",
        "return -value if chirality is Chirality.L else value",
        "return -value if chirality is Chirality.R else value",
    ),
    (
        "step-c-area-flipped",
        "ctlsim/ctls.py",
        "_STEP_AREAS = (np.pi / 4.0, np.pi / 2.0, -np.pi / 4.0)",
        "_STEP_AREAS = (np.pi / 4.0, np.pi / 2.0, np.pi / 4.0)",
    ),
    # An infinite step duration reported as a bad end time, not by its source
    (
        "schedule-duration-unbounded",
        "ctlsim/propagator.py",
        "if not 0.0 < duration < math.inf:",
        "if not 0.0 < duration:",
    ),
    # The Wang blocks built wrong: O- given the O+ sign, E+ without the sqrt(2)
    # of <0|H|2>, E- given the odd-k couplings, O+- given <0|H|2> as corner
    (
        "wang-odd-sign",
        "ctlsim/rotor.py",
        "for sign in (1.0, -1.0):",
        "for sign in (1.0, 1.0):",
    ),
    (
        "wang-e-plus-no-sqrt2",
        "ctlsim/rotor.py",
        "e_plus[:1] *= np.sqrt(2.0)",
        "e_plus[:1] *= 1.0",
    ),
    (
        "wang-e-minus-odd-couplings",
        "ctlsim/rotor.py",
        "yield diagonal[3::2], coupling[3::2]",
        "yield diagonal[3::2], coupling[2::2][: len(diagonal[3::2]) - 1]",
    ),
    (
        "wang-corner-wrong-coupling",
        "ctlsim/rotor.py",
        "odd[0] += sign * coupling[0]",
        "odd[0] += sign * coupling[1:2].sum()",
    ),
    # Each Wang block's sub-diagonal written above the diagonal, where
    # eigvalsh(..., UPLO="L") never reads it
    (
        "wang-band-above",
        "ctlsim/rotor.py",
        "np.fill_diagonal(band[1:], sub)",
        "np.fill_diagonal(band[:, 1:], sub)",
    ),
    # The level table's tau column offset by J^2 alone, so that each block
    # starts at tau = 0
    (
        "spectrum-tau-offset",
        "ctlsim/rotor.py",
        "tau = np.arange(len(j)) - (j**2 + j)",
        "tau = np.arange(len(j)) - (j**2)",
    ),
    # The emitter: floats printed to 8 significant digits, the float format
    # given to every column but the floats, and JSON records of numpy scalars
    (
        "csv-eight-digits",
        "ctlsim/cli.py",
        '"{:.8e}" if column.dtype.kind',
        '"{:.7e}" if column.dtype.kind',
    ),
    (
        "csv-float-test-inverted",
        "ctlsim/cli.py",
        'column.dtype.kind == "f"',
        'column.dtype.kind != "f"',
    ),
    (
        "json-without-tolist",
        "ctlsim/cli.py",
        "records = [dict(zip(names, row)) for row in zip(*values)]",
        "records = [dict(zip(names, row)) for row in zip(*columns)]",
    ),
    # The protocol's step windows, stacked in one pass, given the longest
    # series or the most squarings of any window: still exponentials to
    # roundoff, but no longer bit for bit those of each window alone
    (
        "windows-one-taylor-length",
        "ctlsim/propagator.py",
        "np.where(lengths >= k, -1j / k, 0j)",
        "-1j / k",
    ),
    (
        "windows-one-squaring-count",
        "ctlsim/propagator.py",
        "    lengths, s = np.reshape(terms, (-1, 1)), np.reshape(squarings, (-1, 1))",
        "    squarings = [max(squarings)] * len(squarings)\n"
        "    lengths, s = np.reshape(terms, (-1, 1)), np.reshape(squarings, (-1, 1))",
    ),
    # The one kernel call of a chunk given window A's step size for every window
    (
        "windows-one-step-size",
        "ctlsim/propagator.py",
        "_step_exponentials(rows, dt, work)",
        "_step_exponentials(rows, dt[:1], work)",
    ),
    # Each window's entry-major product folded in transposed
    (
        "fold-transposed",
        "ctlsim/propagator.py",
        ".transpose(2, 0, 1) @ u",
        ".transpose(2, 1, 0) @ u",
    ),
    # The chunk loop's in-place steps out of order: the diagonal of A^2 read
    # after it is overwritten, the Horner update and the squaring reading
    # coefficients they have just replaced, a product level written over the
    # level it reads, and complex products written over their own factors,
    # which rounds one-element chunks differently
    (
        "diagonal-reads-overwritten-d1",
        "ctlsim/propagator.py",
        "        np.add(c1, d1, out=d2)\n        np.add(d0, d1, out=d1)\n",
        "        np.add(d0, d1, out=d1)\n        np.add(c1, d1, out=d2)\n",
    ),
    (
        "horner-reads-new-f1",
        "ctlsim/propagator.py",
        "np.multiply(x, f1, out=f2)",
        "np.multiply(x, h, out=f2)",
    ),
    (
        "squaring-overwrites-f0-first",
        "ctlsim/propagator.py",
        "_product(term, spare, 2.0, c0, f1, f2), out=g)",
        "_product(term, spare, 2.0, c0, f1, f2), out=f0)",
    ),
    (
        "levels-read-their-own-end",
        "ctlsim/propagator.py",
        "at_end = not at_end",
        "at_end = False",
    ),
    (
        "products-in-place",
        "ctlsim/propagator.py",
        "buffers = (out, spare) if len(factors) % 2 else (spare, out)",
        "buffers = (out, out)",
    ),
    # One workspace for every thread and every call, and a drive that
    # propagates in turn given the workspace of the chunk it is evaluated for
    (
        "workspace-shared-by-threads",
        "ctlsim/propagator.py",
        "    work = getattr(_THREAD, \"work\", None)\n"
        "    if work is None:\n"
        "        work = _THREAD.work = _Workspace(3, _CHUNK)\n"
        "    return _Workspace(3, _CHUNK) if work.busy else work\n",
        "    if not hasattr(_Workspace, \"shared\"):\n"
        "        _Workspace.shared = _Workspace(3, _CHUNK)\n"
        "    return _Workspace.shared\n",
    ),
    (
        "workspace-reentered",
        "ctlsim/propagator.py",
        "return _Workspace(3, _CHUNK) if work.busy else work",
        "return work",
    ),
    # The left-handed protocol from the right-handed windows: step B mirrored
    # as well, A and C not mirrored, or the gauge taken after the projection,
    # which leaves zeros of the other sign where the direct propagation has them
    (
        "gauge-step-b-too",
        "ctlsim/propagator.py",
        "_mirror_13(u[::3], Chirality.L)",
        "_mirror_13(u[::3], Chirality.L); _mirror_13(u[2], Chirality.L)",
    ),
    (
        "gauge-off",
        "ctlsim/propagator.py",
        "_mirror_13(u[::3], Chirality.L)",
        "_mirror_13(u[::3], Chirality.R)",
    ),
    (
        "gauge-after-projection",
        "ctlsim/propagator.py",
        "    _mirror_13(u[::3], Chirality.L)\n    u = _polar(u)\n",
        "    u = _polar(u)\n    _mirror_13(u[::3], Chirality.L)\n",
    ),
    # Scenario validation: an unknown key let through, a boolean read as a
    # number or as an integer only, and an unknown labeling left for a level
    # to trip over
    (
        "unknown-key-accepted",
        "ctlsim/scenario.py",
        'raise ScenarioError(label, "unknown key")',
        "return",
    ),
    (
        "number-accepts-bool",
        "ctlsim/scenario.py",
        "if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):",
        "if not isinstance(value, accepted):",
    ),
    (
        "integer-accepts-bool",
        "ctlsim/scenario.py",
        "(isinstance(value, bool) and kind is not bool)",
        "(isinstance(value, bool) and kind is float)",
    ),
    (
        "labeling-unchecked",
        "ctlsim/transfer.py",
        "if labeling not in LABELINGS:",
        "if False:",
    ),
    # The schema's defaults, whose one home is the parser: a mode's ladder top
    # and the vibrational temperature
    (
        "max-quanta-default",
        "ctlsim/scenario.py",
        'mode_reader.value("max_quanta", int, 5)',
        'mode_reader.value("max_quanta", int, 6)',
    ),
    (
        "t-vib-default",
        "ctlsim/scenario.py",
        'temps_reader.value("t_vib_k", float, 300.0)',
        'temps_reader.value("t_vib_k", float, 301.0)',
    ),
    # A key written twice read as its last value, and a grid taken where one
    # temperature is meant
    (
        "duplicate-key-kept",
        "ctlsim/scenario.py",
        "if key in seen:",
        "if False:",
    ),
    (
        "single-temperature-grid",
        "ctlsim/thermal.py",
        "if np.ndim(t_k) > 0:",
        "if np.ndim(t_k) > 1:",
    ),
    # A figure's plot series numbered from t_rot_k's column, not the first after it
    (
        "plot-columns-from-1",
        "ctlsim/cli.py",
        "enumerate(labels, start=2)",
        "enumerate(labels, start=1)",
    ),
    # Loop and sweep rules: the sweep's point bounds, the ladder's top quantum
    # and either half of the ro-vibrational quanta rule
    (
        "sweep-one-point",
        "ctlsim/transfer.py",
        "if not 2 <= points <= _MAX_POINTS:",
        "if not 1 <= points <= _MAX_POINTS:",
    ),
    (
        "sweep-points-unbounded",
        "ctlsim/transfer.py",
        "if not 2 <= points <= _MAX_POINTS:",
        "if not 2 <= points:",
    ),
    (
        "max-quanta-off-by-one",
        "ctlsim/transfer.py",
        "if vib > 0 and vib > modes[0].max_quanta:",
        "if vib > 0 and vib > modes[0].max_quanta + 1:",
    ),
    (
        "rovib-ground-excited",
        "ctlsim/transfer.py",
        "(quanta[0] != 0 or 0 in quanta[1:])",
        "(0 in quanta[1:])",
    ),
    (
        "rovib-upper-unexcited",
        "ctlsim/transfer.py",
        "(quanta[0] != 0 or 0 in quanta[1:])",
        "(quanta[0] != 0)",
    ),
)


def check_applicable(mutants) -> list[str]:
    """Names and counts of mutants whose old text is not found exactly once."""
    problems = []
    for name, path, old, _ in mutants:
        count = (SRC / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in src/{path}")
    return problems


def run_tier1(src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", "import ctlsim; print(ctlsim.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if not probe.stdout.strip().startswith(str(src)):
        print(f"the suite would import ctlsim from {probe.stdout.strip()!r}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def main() -> int:
    problems = check_applicable(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 2
    survivors = []
    for name, path, old, new in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="ctlsim-mutant-") as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            target = src / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), "utf-8")
            result = run_tier1(src)
        seconds = time.perf_counter() - start
        if result.returncode == 0:
            survivors.append(name)
            print(f"survived  {name}  ({seconds:.1f} s)", flush=True)
        else:
            killed_by = first_failure(result.stdout)
            print(f"killed    {name}  by {killed_by}  ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
