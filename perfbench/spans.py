"""Spans around the calls into each ctlsim module, recorded from outside.

The tracer replaces a function with a timing wrapper under the name its
callers look up (``ctlsim.thermal.block_energies`` for the partition sum,
``ctlsim.rotor.block_energies`` for ``rotor_levels``), so the program runs
unmodified. Each span records name, start, end, parent and op id in flat
arrays, which keeps hundreds of thousands of per-step spans small; they are
aggregated into per-layer numbers, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from array import array

import numpy as np

LAYERS = ("cli", "scenario", "rotor", "thermal", "transfer", "ctls", "propagator")

# (module, attribute, layer). A function bound in several modules is wrapped
# in each, because a caller looks it up in its own module's namespace.
TARGETS = (
    ("ctlsim.cli", "main", "cli"),
    ("ctlsim.cli", "parse_scenario", "scenario"),
    ("ctlsim.scenario", "scenario_from_mapping", "scenario"),
    ("ctlsim.cli", "to_ctls_config", "scenario"),
    ("ctlsim.scenario", "to_ctls_config", "scenario"),
    ("ctlsim.cli", "rotor_spectrum", "rotor"),
    ("ctlsim.rotor", "rotor_levels", "rotor"),
    ("ctlsim.transfer", "rotor_levels", "rotor"),
    ("ctlsim.rotor", "block_energies", "rotor"),
    ("ctlsim.thermal", "block_energies", "rotor"),
    ("ctlsim.thermal", "rotational_partition", "thermal"),
    ("ctlsim.transfer", "ctls_populations", "thermal"),
    ("ctlsim.transfer", "global_proportion", "thermal"),
    ("ctlsim.cli", "excess_sweep", "transfer"),
    ("ctlsim.cli", "population_sweep", "transfer"),
    ("ctlsim.cli", "yield_sweep", "transfer"),
    ("ctlsim.transfer", "excess_sweep", "transfer"),
    ("ctlsim.transfer", "population_sweep", "transfer"),
    ("ctlsim.transfer", "yield_sweep", "transfer"),
    ("ctlsim.cli", "total_unitary", "ctls"),
    ("ctlsim.transfer", "total_unitary", "ctls"),
    ("ctlsim.propagator", "signed_couplings", "ctls"),
    ("ctlsim.cli", "ideal_schedule", "propagator"),
    ("ctlsim.propagator", "ideal_schedule", "propagator"),
    ("ctlsim.cli", "run_protocol", "propagator"),
    ("ctlsim.transfer", "run_protocol", "propagator"),
    ("ctlsim.propagator", "run_protocol", "propagator"),
    ("ctlsim.propagator", "propagate", "propagator"),
    ("ctlsim.propagator", "interaction_hamiltonian", "propagator"),
    ("ctlsim.propagator", "pulse_area", "propagator"),
)

_SWEEPS = ("excess_sweep", "population_sweep", "yield_sweep")
_MISS = "block_energies:miss"  # a block_energies span that diagonalised

# Counts that spans alone cannot give, summed when span sets are merged.
_COUNTERS = (
    "diag_flops", "j_max", "convergence_errors", "sweep_points", "runtime_warnings",
    "steps", "protocol_hits", "protocol_misses", "bytes_out",
)


class Tracer:
    """Installs the wrappers and owns the span arrays of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def install(self) -> "Tracer":
        self._rotor_cache = importlib.import_module("ctlsim.rotor").block_energies
        self._protocol_cache = importlib.import_module("ctlsim.propagator")._protocol_unitary
        self._convergence_error = importlib.import_module("ctlsim.thermal").ConvergenceError
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, attr: str, layer: str):
        name_id = self._name_id(f"{layer}.{attr}", layer)
        hook = getattr(self, f"_hook_{attr}", None)
        if attr in _SWEEPS:
            hook = self._hook_sweep
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs, index)
            finally:
                ends[index] = clock()
                stack.pop()

        for cache_method in ("cache_info", "cache_clear"):  # keep an lru_cache's interface
            if hasattr(fn, cache_method):
                setattr(traced, cache_method, getattr(fn, cache_method))
        return traced

    def _hook_block_energies(self, fn, args, kwargs, index):
        misses = self._rotor_cache.cache_info().misses
        result = fn(*args, **kwargs)
        if self._rotor_cache.cache_info().misses > misses:
            j = args[0]
            self.name[index] = self._name_id(f"rotor.{_MISS}", "rotor")
            self.counters["diag_flops"] += (2 * j + 1) ** 3
            self.counters["j_max"] = max(self.counters["j_max"], j)
        return result

    def _hook_rotational_partition(self, fn, args, kwargs, index):
        try:
            return fn(*args, **kwargs)
        except self._convergence_error:
            self.counters["convergence_errors"] += 1
            raise

    def _hook_sweep(self, fn, args, kwargs, index):
        self.counters["sweep_points"] += len(args[1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters["runtime_warnings"] += sum(
                    issubclass(w.category, RuntimeWarning) for w in caught
                )

    def _hook_run_protocol(self, fn, args, kwargs, index):
        misses = self._protocol_cache.cache_info().misses
        result = fn(*args, **kwargs)
        hit = self._protocol_cache.cache_info().misses == misses
        self.counters["protocol_hits" if hit else "protocol_misses"] += 1
        return result

    def _hook_propagate(self, fn, args, kwargs, index):
        self.counters["steps"] += args[2].steps
        return fn(*args, **kwargs)

    def write(self, path) -> None:
        """Save every span and counter to one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            layers=np.array(self.layers, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            counters=json.dumps(self.counters),
        )

    def merge(self, path) -> None:
        """Add the spans another process saved with ``write``, under the current op."""
        with np.load(path) as data:
            offset = len(self.name)
            remap = np.array(
                [self._name_id(str(n), str(layer)) for n, layer in zip(data["names"], data["layers"])] or [0]
            )
            self.name.extend(remap[data["name"]].tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(np.where(data["parent"] >= 0, data["parent"] + offset, -1).tolist())
            self.op.extend([self.current_op] * len(data["name"]))
            counters = json.loads(str(data["counters"]))
        for key, value in counters.items():
            if key == "j_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer plus the named counts and times at each boundary."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS.index(layer) for layer in self.layers], dtype=np.int64)

        def spans(*attrs: str) -> np.ndarray:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[1] in attrs]
            return np.isin(name, ids)

        def outermost(mask: np.ndarray) -> np.ndarray:
            nested = np.zeros(len(mask), bool)
            nested[has_parent] = mask[parent[has_parent]]
            return mask & ~nested

        c = self.counters
        partition = spans("rotational_partition")
        blocks = spans("block_energies", _MISS)
        misses = spans(_MISS)
        hamiltonian = spans("interaction_hamiltonian")
        pulse_area = spans("pulse_area")
        in_partition = np.zeros(len(name), bool)
        in_partition[has_parent] = partition[parent[has_parent]]
        lookups, protocols = int(blocks.sum()), c["protocol_hits"] + c["protocol_misses"]

        metrics = {
            f"{layer}.self_s": float(self_time[layer_of[name] == i].sum()) for i, layer in enumerate(LAYERS)
        }
        metrics.update({
            "cli.bytes_out": c["bytes_out"],
            "scenario.parse_calls": int(spans("scenario_from_mapping").sum()),
            "scenario.parse_s": float(dur[outermost(spans("parse_scenario", "scenario_from_mapping"))].sum()),
            "scenario.config_s": float(dur[outermost(spans("to_ctls_config"))].sum()),
            "rotor.block_misses": int(misses.sum()),
            "rotor.block_hits": lookups - int(misses.sum()),
            "rotor.block_hit_ratio": (lookups - int(misses.sum())) / lookups if lookups else 0.0,
            "rotor.diag_s": float(dur[misses].sum()),
            "rotor.diag_flops": c["diag_flops"],
            "rotor.j_max": c["j_max"],
            "thermal.partition_calls": int(partition.sum()),
            "thermal.partition_blocks": int((blocks & in_partition).sum()),
            "thermal.partition_s": float(self_time[partition].sum()),
            "thermal.populations_calls": int(spans("ctls_populations").sum()),
            "thermal.convergence_errors": c["convergence_errors"],
            "transfer.sweep_points": c["sweep_points"],
            "transfer.sweep_self_s": float(self_time[spans(*_SWEEPS)].sum()),
            "transfer.runtime_warnings": c["runtime_warnings"],
            "propagator.protocol_calls": int(outermost(spans("run_protocol")).sum()),
            "propagator.protocol_cache_hit_ratio": c["protocol_hits"] / protocols if protocols else 0.0,
            "propagator.steps": c["steps"],
            "propagator.propagate_s": float(dur[spans("propagate")].sum()),
            "propagator.hamiltonian_calls": int(hamiltonian.sum()),
            "propagator.hamiltonian_s": float(dur[hamiltonian].sum()),
            "propagator.pulse_area_calls": int(pulse_area.sum()),
            "propagator.pulse_area_s": float(dur[pulse_area].sum()),
        })
        return metrics
