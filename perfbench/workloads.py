"""The three workloads: seeded input generators, timed ops and per-op checks.

Every workload is a closed loop with one client: the next op starts when
the previous one returns. Inputs are generated from the seed before timing;
each op's output is kept and checked against ``oracle`` after the timed
loop, so checking costs no op time.

The parameters that set an op's cost (the J a partition sum reaches, grid
size, step count) follow one fixed low-discrepancy schedule by op index;
everything else (molecule, levels, labeling, temperatures, pulse shape
details) comes from the seed. Runs with different seeds then get different
inputs but do the same mix of cheap and costly work, so seed-to-seed
spread is machine noise rather than input luck.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
J_SAFE = 200  # thermal._J_CAP, the last block the partition sum checks before it gives up
# Each workload draws its op inputs up front and op i takes input i modulo
# these counts; each exceeds the ops a 60 s run reaches at the mean op
# times (scan about 0.6 s, pulses about 0.5 s, cli 0.9 s or more), so no
# run repeats an input: no scan or pulses op finds its molecule or its
# schedule already cached.
SCAN_SPECS = 256
PULSE_SPECS = 1024
CLI_SPECS = 88  # a multiple of the 11 cli kinds
SHAPES = ("rectangular", "gaussian", "sin_squared")
STEP_C_AREAS = (-math.pi / 4.0, 0.75 * math.pi, 1.75 * math.pi)
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))

# Runs `ctlsim` the way its console script does.
CTLSIM = "import sys; from ctlsim.cli import main; sys.exit(main())"


def schedule(i: int, base: int) -> float:
    """Element i >= 1 of the base-b van der Corput sequence.

    Any first n elements cover [0, 1) within about log(n)/n, so every run,
    however long, holds the same spread of values; coprime bases for
    different parameters make their joint values a Halton sequence.
    """
    x, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        x += digit * scale
    return x


def t_rot_safe(a: float, b: float, c: float) -> float:
    """Highest T_rot at which the partition sum provably stops by J_SAFE,
    and so never raises ConvergenceError.

    Block J contributes (2J+1) Tr exp(-H/kT), where in that block
    H = C J(J+1) + (A-C) Ja^2 + (B-C) Jb^2. By Golden-Thompson, and since
    exp(-(B-C) Jb^2/kT) has norm 1, the trace is at most
    exp(-C J(J+1) h/kT) sum_{k=-J..J} exp(-(A-C) k^2 h/kT). The sum stops
    once the contribution falls below 1e-8 of the running total, taken here
    as half the classical partition function.
    """
    j = J_SAFE
    k2 = np.arange(-j, j + 1, dtype=float) ** 2

    def stops(t: float) -> bool:
        x = oracle.K_PER_GHZ / t
        trace = float(np.exp(-(a - c) * x * k2).sum())
        tail = (2 * j + 1) * math.exp(-c * j * (j + 1) * x) * trace
        return tail < 0.5e-8 * oracle.classical_partition(a, b, c, t)

    lo, hi = 1.0, 3000.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stops(mid) else (lo, mid)
    return lo


def draw_constants(rng: np.random.Generator) -> tuple[float, float, float]:
    """A >= B >= C in GHz, spanning small chiral molecules such as propanediol."""
    c = round(rng.uniform(1.5, 4.0), 4)
    b = round(c * rng.uniform(1.05, 1.45), 4)
    return round(b * rng.uniform(1.3, 3.0), 4), b, c


def _label_pairs(j: int, labeling: str) -> list[tuple[int, int, int]]:
    """(tau, first digit, second digit) of every level of block J."""
    if labeling == "tau":
        return [(tau, tau, 0) for tau in range(-j, j + 1)]
    return [
        (ka - kc, ka, kc)
        for ka in range(j + 1)
        for kc in range(j + 1)
        if ka + kc in (j, j + 1)
    ]


def draw_scenario(rng: np.random.Generator, i: int) -> dict:
    """A schema-valid scenario mapping for op ``i``.

    The schedule sets T_rot max, T_rot min, the grid size and, for one op
    in eight, a linear grid, which puts most points at the costly high end.
    T_rot max lies between a quarter of and the whole of ``t_rot_safe``, the
    only cap: the J where the hottest partition sum stops grows about as
    sqrt(T), so those sums stop evenly over the upper half of the J that
    ``t_rot_safe`` allows, where the cost of the cold rotor blocks grows
    about as J^4. At the top that J is about 188-193, the regime of the
    bundled scenario's default 300 K sweep (J about 188).
    """
    size = schedule(i, 2)
    a, b, c = draw_constants(rng)
    labeling = str(rng.choice(["tau", "ka_kc"]))
    mode = str(rng.choice(["ro_vibrational", "purely_rotational"]))
    modes = [
        {"name": f"mode{i}", "frequency_thz": round(rng.uniform(20.0, 120.0), 3),
         "max_quanta": int(rng.integers(1, 7))}
        for i in range(int(rng.integers(1, 3)))
    ]
    top = min(2, modes[0]["max_quanta"])
    vibs = [0, int(rng.integers(1, top + 1)), int(rng.integers(1, top + 1))]
    if mode == "purely_rotational":
        vibs = [0, 0, 0]
    pairs = [(j, *p) for j in (1, 2) for p in _label_pairs(j, labeling)]
    picks = rng.choice(len(pairs), size=2, replace=False)
    levels = [{"vib": 0, "J": 0, "tau": 0, "M": 0}]
    for v, idx in zip(vibs[1:], picks):
        j, _, first, second = pairs[idx]
        if labeling == "tau":
            second = int(rng.integers(-j, j + 1))  # the M digit
        levels.append({"vib": v, "J": j, "tau": first, "M": second})
    t_top = t_rot_safe(a, b, c)
    t_max = t_top * (0.5 + 0.5 * size) ** 2
    return {
        "molecule": {
            "name": "generated",
            "rotational_constants_ghz": {"A": a, "B": b, "C": c},
            "vibrational_modes": modes,
        },
        "ctls": {"mode": mode, "levels": levels},
        "temperatures": {
            "t_rot_k": 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, t_top)),
            "t_vib_k": 0.0 if rng.random() < 0.1 else float(rng.uniform(50.0, 1000.0)),
        },
        "sweep": {
            "t_rot_min_k": float(10 ** (-3.0 + 3.0 * schedule(i, 7))),
            "t_rot_max_k": t_max,
            "points": int(50 + 150 * schedule(i, 3)),
            "log_scale": schedule(i, 5) >= 0.125,
        },
        "labeling": labeling,
    }


def _max_abs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def check_loop_tables(mapping: dict, grid, pops=None, eps=None, props=None,
                      mode: str | None = None, tol: float = 1e-9, sum_tol: float = 1e-12) -> str | None:
    """Check sweep outputs against independent loop populations.

    ``pops`` is (N, 3) populations, ``eps`` the excess column, ``props`` the
    (N, 4) whole-manifold table (P1, P2, P3, eta). Returns a failure message.
    """
    vib, rot = oracle.loop_energies(mapping, mode)
    t_vib = mapping["temperatures"]["t_vib_k"]
    want = np.array([oracle.loop_populations(vib, rot, t, t_vib) for t in grid])
    if pops is not None:
        pops = np.asarray(pops, dtype=float)
        if np.any(np.abs(pops.sum(axis=1) - 1.0) > sum_tol):
            return f"populations do not sum to 1 within {sum_tol}"
        if np.any(pops < 0.0) or np.any(pops > 1.0):
            return "population outside [0, 1]"
        if _max_abs(pops, want) > tol:
            return f"populations off the oracle by {_max_abs(pops, want):.3e}"
        if eps is not None:
            from_pops = np.abs(pops[:, 2] - pops[:, 0]) / (pops[:, 2] + pops[:, 0])
            if _max_abs(eps, from_pops) > tol:
                return "excess differs from |p3-p1|/(p3+p1) of the populations"
    if eps is not None:
        want_eps = [oracle.excess(p) for p in want]
        if _max_abs(eps, want_eps) > tol:
            return f"excess off the oracle by {_max_abs(eps, want_eps):.3e}"
    if props is not None:
        props = np.asarray(props, dtype=float)
        if np.any(props < 0.0) or np.any(props > 1.0):
            return "manifold proportion outside [0, 1]"
        if np.any(np.abs(props[:, 3] - props[:, 0] / 2.0) > tol * np.maximum(props[:, 0], 1e-300) + 1e-300):
            return "eta differs from P1 / 2"
        failure = _check_classical_limit(mapping, grid[-1], props[-1][0])
        if failure:
            return failure
        if t_vib > 0.0:
            for t, (p1, _, p3, _) in zip(grid, props):
                x = ((vib[0] - vib[2]) / t_vib + (rot[0] - rot[2]) / t) * oracle.K_PER_GHZ
                if p1 > 1e-290 and p3 > 1e-290 and abs(x) < 600.0:
                    if abs(p1 / p3 / math.exp(-x) - 1.0) > max(tol, 1e-9) * 10:
                        return f"P1/P3 off the Boltzmann ratio at T_rot = {t}"
    return None


def _check_classical_limit(mapping: dict, t_rot: float, p1: float) -> str | None:
    """Where kT >> hA, compare the partition function implied by P1 with its
    high-temperature expansion.

    Level 1 is the ground state |v=0, 0_00>, so P1 = 1 / (Z_vib Z_rot). The
    allowance covers the expansion's next term and the sum's own 1e-8
    truncation.
    """
    molecule = mapping["molecule"]
    a, b, c = (molecule["rotational_constants_ghz"][k] for k in "ABC")
    ha_over_kt = a * oracle.K_PER_GHZ / t_rot
    if ha_over_kt > 0.05:
        return None
    t_vib = mapping["temperatures"]["t_vib_k"]
    z_vib = 1.0
    for mode in molecule["vibrational_modes"] if t_vib > 0.0 else ():
        x = 1000.0 * mode["frequency_thz"] * oracle.K_PER_GHZ / t_vib
        z_vib *= sum(math.exp(-v * x) for v in range(mode["max_quanta"] + 1))
    ratio = 1.0 / (z_vib * p1) / oracle.partition_high_t(a, b, c, t_rot)
    if abs(ratio - 1.0) > 0.05 * ha_over_kt**2 + 1e-7:
        return f"Z_rot off its high-temperature expansion by {ratio - 1.0:.2e} at {t_rot} K"
    return None


class Scan:
    """Fresh molecules through the three sweeps: rotor, thermal and transfer."""

    name = "scan"
    cycle = 1  # the schedule spreads any run of consecutive ops over the whole mix

    def __init__(self, seed: int, workdir: Path):
        import ctlsim.scenario
        import ctlsim.transfer

        self.scenario, self.transfer = ctlsim.scenario, ctlsim.transfer
        rng = np.random.default_rng([seed, 1])
        self.specs = [draw_scenario(rng, i) for i in range(1, SCAN_SPECS + 1)]

    def warm_up(self) -> None:
        rng = np.random.default_rng([0, 99])
        mapping = draw_scenario(rng, 1)
        mapping["sweep"].update(t_rot_max_k=5.0, points=5)
        self._run(mapping)

    def _run(self, mapping: dict):
        config = self.scenario.to_ctls_config(self.scenario.scenario_from_mapping(mapping))
        sweep = mapping["sweep"]
        grid = self.transfer.default_sweep_grid(
            sweep["t_rot_min_k"], sweep["t_rot_max_k"], sweep["points"], sweep["log_scale"]
        )
        t_vib = mapping["temperatures"]["t_vib_k"]
        return (
            self.transfer.excess_sweep(config, grid, t_vib),
            self.transfer.population_sweep(config, grid, t_vib),
            self.transfer.yield_sweep(config, grid, t_vib),
        )

    def op(self, i: int):
        return self._run(self.specs[i % len(self.specs)])

    def check(self, i: int, output) -> str | None:
        mapping = self.specs[i % len(self.specs)]
        eps, pops, props = output
        return check_loop_tables(mapping, oracle.sweep_grid(mapping["sweep"]), pops, eps, props)

    def defect(self, i: int, output) -> float:
        return 0.0


class Pulses:
    """Fresh pulse schedules through both chiralities: ctls and propagator."""

    name = "pulses"
    cycle = 1  # the schedule spreads any run of consecutive ops over the whole mix

    def __init__(self, seed: int, workdir: Path):
        import ctlsim.ctls
        import ctlsim.propagator

        self.propagator = ctlsim.propagator
        self.chiralities = (ctlsim.ctls.Chirality.L, ctlsim.ctls.Chirality.R)
        rng = np.random.default_rng([seed, 2])
        self.specs = [
            {
                "shape": SHAPES[int(schedule(i, 3) * len(SHAPES))],
                "peak": float(2.0 * math.pi * 10 ** rng.uniform(5.0, 7.0)),
                "t_start": float(rng.uniform(0.0, 1e-6)),
                "gap": float(rng.uniform(0.0, 1e-7)),
                "step_c_area": float(rng.choice(STEP_C_AREAS)),
                "steps": int(250 + 3750 * schedule(i, 2)),
            }
            for i in range(1, PULSE_SPECS + 1)
        ]

    def warm_up(self) -> None:
        plan = self.propagator.ideal_schedule("gaussian", t_start=5e-6)
        self.propagator.run_protocol(plan, self.chiralities[0], 50)

    def op(self, i: int):
        spec = dict(self.specs[i % len(self.specs)])
        steps = spec.pop("steps")
        plan = self.propagator.ideal_schedule(**spec)
        return [self.propagator.run_protocol(plan, q, steps) for q in self.chiralities]

    def defect(self, i: int, output) -> float:
        spec = self.specs[i % len(self.specs)]
        return max(
            _max_abs(u, oracle.expected_unitary(q.value, spec["step_c_area"]))
            for u, q in zip(output, self.chiralities)
        )

    def check(self, i: int, output) -> str | None:
        steps = self.specs[i % len(self.specs)]["steps"]
        for u in output:
            if np.abs(u.conj().T @ u - np.eye(3)).max() > oracle.ROUNDOFF:
                return "propagated unitary is not unitary"
        defect = self.defect(i, output)
        if defect > oracle.defect_bound(steps):
            return f"defect {defect:.3e} above {oracle.DEFECT_C}/steps^2 at {steps} steps"
        return None


CLI_KINDS = (
    "populations", "levels", "protocol", "excess", "fig2c", "yield",
    "fig2d", "fig3", "dump-config", "fig4", "golden",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CTLS_SCENARIO_PATH", None)
    return env


def run_child(argv: list[str], out_path: Path) -> tuple[int, bytes, float]:
    """Run one process to completion; return exit code, stdout and peak RSS in MB."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0


class Cli:
    """Fresh `ctlsim` processes, one at a time, over generated scenario files.

    The subcommands run in a fixed round-robin order so that every run does
    the same mix; arguments and scenarios are drawn from the seed.
    """

    name = "cli"
    cycle = len(CLI_KINDS)  # ops per round of the subcommands

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.spans_dir: Path | None = None
        rng = np.random.default_rng([seed, 3])
        self.specs = []
        for i in range(CLI_SPECS):
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            # kinds repeat every 11 ops: index the schedule by repetition
            n = i // len(CLI_KINDS) + 1
            mapping = draw_scenario(rng, n)
            mapping["sweep"]["points"] = int(2 + 199 * schedule(n, 3))
            path = workdir / f"scenario-{i}.yaml"
            path.write_text(yaml.safe_dump(mapping, sort_keys=False), encoding="utf-8")
            spec = {"kind": kind, "mapping": mapping, "json": bool(rng.random() < 0.3)}
            if kind == "golden":
                # the same bundled-scenario commands, in file order, on every seed
                spec["args"] = list(GOLDEN)[i // len(CLI_KINDS) % len(GOLDEN)].split()
            else:
                spec["args"] = self._args(kind, rng, n, spec) + ["--scenario", str(path)]
                if spec["json"]:
                    spec["args"] += ["--format", "json"]
            self.specs.append(spec)

    @staticmethod
    def _args(kind: str, rng: np.random.Generator, n: int, spec: dict) -> list[str]:
        if kind == "levels":
            spec["jmax"] = int(21 * schedule(n, 11))
            return ["levels", "--jmax", str(spec["jmax"])]
        if kind == "protocol":
            spec["steps"] = int(250 + 3751 * schedule(n, 11))
            return ["protocol", "--steps", str(spec["steps"]),
                    "--chirality", ("L", "R", "both")[int(3 * schedule(n, 13))]]
        if kind == "dump-config":
            return [str(rng.choice(["levels", "populations", "excess", "yield"])), "--dump-config"]
        if kind.startswith("fig"):
            return ["figure", kind]
        return [kind]

    def warm_up(self) -> None:
        code, _, _ = run_child([sys.executable, "-c", CTLSIM, "populations"],
                               self.workdir / "warm-up.out")
        if code != 0:
            raise RuntimeError(f"ctlsim populations exited with {code}")

    def op(self, i: int):
        spec = self.specs[i % len(self.specs)]
        if self.spans_dir is None:
            argv = [sys.executable, "-c", CTLSIM, *spec["args"]]
        else:
            argv = [sys.executable, str(BENCH / "cli_child.py"),
                    str(self.spans_dir / f"op-{i}.npz"), *spec["args"]]
        return run_child(argv, self.workdir / "op.out")

    def check(self, i: int, output) -> str | None:
        code, out, _ = output
        spec = self.specs[i % len(self.specs)]
        if code != 0:
            return f"exit code {code} on a schema-valid scenario: {' '.join(spec['args'])}"
        if spec["kind"] == "golden":
            digest = hashlib.sha256(out).hexdigest()
            return None if digest == GOLDEN[" ".join(spec["args"])] else "bundled-scenario output changed"
        if spec["kind"] == "dump-config":
            return None if yaml.safe_load(out) == spec["mapping"] else "dump-config does not round-trip"
        return check_cli_table(spec, out.decode("utf-8"))

    def golden_failures(self) -> list[str]:
        """Run every bundled-scenario command once; timed runs reach only the first few."""
        failures = []
        for key, digest in GOLDEN.items():
            code, out, _ = run_child([sys.executable, "-c", CTLSIM, *key.split()], self.workdir / "golden.out")
            if code != 0 or hashlib.sha256(out).hexdigest() != digest:
                failures.append(f"bundled-scenario output of `ctlsim {key}` changed")
        return failures

    def defect(self, i: int, output) -> float:
        spec = self.specs[i % len(self.specs)]
        if spec["kind"] != "protocol" or output[0] != 0:
            return 0.0
        return max(_columns(output[1].decode("utf-8"), spec["json"])["defect_max"])


def _columns(text: str, as_json: bool) -> dict[str, list]:
    if as_json:
        records = json.loads(text)
        return {key: [r[key] for r in records] for key in records[0]}
    rows = list(csv.reader(io.StringIO(text)))
    return {key: [_number(r[i]) for r in rows[1:]] for i, key in enumerate(rows[0])}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def check_cli_table(spec: dict, text: str) -> str | None:
    """Check one subcommand's CSV/JSON records; printed CSV carries 9 digits."""
    kind, mapping = spec["kind"], spec["mapping"]
    cols = _columns(text, spec["json"])
    tol, sum_tol = (1e-10, 1e-12) if spec["json"] else (2e-8, 3e-8)
    grid = oracle.sweep_grid(mapping["sweep"])
    if kind == "levels":
        a, b, c = (mapping["molecule"]["rotational_constants_ghz"][k] for k in "ABC")
        want = np.concatenate([oracle.rotor_energies(j, a, b, c) for j in range(spec["jmax"] + 1)])
        got = np.asarray(cols["energy_ghz"], dtype=float)
        if len(got) != len(want) or np.any(np.abs(got - want) > tol * np.maximum(1.0, np.abs(want))):
            return "level energies off the angular-momentum oracle"
        if any(d != 2 * j + 1 for d, j in zip(cols["degeneracy"], cols["j"])):
            return "degeneracy is not 2J+1"
        return None
    if kind == "protocol":
        return _check_protocol(cols, spec["steps"], tol)
    if kind == "populations":
        pops = np.array([[cols["p1"][0], cols["p2"][0], cols["p3"][0]]])
        t_rot = mapping["temperatures"]["t_rot_k"]
        return check_loop_tables(mapping, [t_rot], pops=pops, tol=tol, sum_tol=sum_tol)
    if _max_abs(cols["t_rot_k"], grid) > tol * float(np.max(grid)):
        return "temperature grid differs from the scenario sweep"
    if kind in ("fig2c", "fig2d"):
        mode = "ro_vibrational" if kind == "fig2c" else "purely_rotational"
        pops = np.column_stack([cols["p1"], cols["p2"], cols["p3"]])
        return check_loop_tables(mapping, grid, pops=pops, mode=mode, tol=tol, sum_tol=sum_tol)
    if kind == "excess":
        return check_loop_tables(mapping, grid, eps=cols["epsilon"], tol=tol)
    if kind == "fig3":
        return (check_loop_tables(mapping, grid, eps=cols["epsilon_rovib"], mode="ro_vibrational", tol=tol)
                or check_loop_tables(mapping, grid, eps=cols["epsilon_rot"], mode="purely_rotational", tol=tol))
    props = np.column_stack([cols["P1"], cols["P2"], cols["P3"], cols["eta"]])
    mode = "ro_vibrational" if kind == "fig4" else None
    return check_loop_tables(mapping, grid, props=props, mode=mode, tol=tol)


def _check_protocol(cols: dict, steps: int, tol: float) -> str | None:
    for chirality in sorted(set(cols["chirality"])):
        rows = [i for i, q in enumerate(cols["chirality"]) if q == chirality]
        if len(rows) != 9:
            return f"expected 9 entries for chirality {chirality}, got {len(rows)}"
        analytic = np.zeros((3, 3), complex)
        numeric = np.zeros((3, 3), complex)
        for i in rows:
            r, c = int(cols["row"][i]), int(cols["col"][i])
            analytic[r, c] = cols["analytic_re"][i] + 1j * cols["analytic_im"][i]
            numeric[r, c] = cols["numeric_re"][i] + 1j * cols["numeric_im"][i]
        if _max_abs(analytic, oracle.expected_unitary(chirality)) > tol:
            return f"analytic unitary for {chirality} differs from the closed form"
        defect = float(cols["defect_max"][rows[0]])
        if abs(_max_abs(numeric, analytic) - defect) > tol:
            return "defect_max does not match the printed unitaries"
        if defect > oracle.defect_bound(steps):
            return f"defect {defect:.3e} above {oracle.DEFECT_C}/steps^2 at {steps} steps"
    return None


def j_cap_probe(seed: int, count: int) -> int:
    """How many seeded molecule/temperature pairs raise ConvergenceError.

    Unlike the timed ops, T_rot here ranges over 30-1000 K without regard to
    J_SAFE, as the scenario schema allows; every error is a hit of the
    partition sum's hard J cap.
    """
    import ctlsim.thermal
    from ctlsim.rotor import RotationalConstants

    rng = np.random.default_rng([seed, 4])
    errors = 0
    for _ in range(count):
        constants = RotationalConstants(*draw_constants(rng))
        try:
            ctlsim.thermal.rotational_partition(constants, float(10 ** rng.uniform(math.log10(30.0), 3.0)))
        except ctlsim.thermal.ConvergenceError:
            errors += 1
    return errors


WORKLOADS = {w.name: w for w in (Cli, Scan, Pulses)}
