"""Spans around calls into the package's modules, and the layer metrics.

The layers are the modules of ``sftbounds``.  ``Recorder.install`` wraps
the public functions listed in ``TRACED`` by rebinding every name that
refers to them: the module globals of every ``sftbounds`` module and the
values of dicts held in those globals (``cli._COMMANDS``).  That is where
each caller looks the function up, so ``bounds.count_patterns``,
``gluing.count_patterns`` and ``cli.count_patterns`` are all covered, as
are same-module calls such as ``count_patterns`` -> ``count_via_transfer``.
Nothing in ``src/`` is edited.

A span is (name, parent span, start, end).  A generator is timed per
resumption: each ``next`` on it is one span, so the time the consumer
spends between items stays with the consumer.  A resumption that ends the
generator (or raises) is recorded as ``<name>#end``, so the plain name
counts yielded items.  Spans live in flat arrays in memory and are written
out once, by ``dump``, after ``cli.main`` returns.

Self time is a span's duration minus the durations of its direct child
spans.  A layer's self time is the self time of all spans of that layer,
so it includes every helper its wrapped functions call without a span of
their own (``surface_state`` called from ``sampling`` counts as sampling).
The layer self times of one operation sum to the root ``cli.main`` span.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli", "models", "patterns", "enumeration",
    "transfer", "gluing", "bounds", "sampling",
)

TRACED = {
    "cli": ("cmd_count", "cmd_bounds", "cmd_verify", "cmd_glue_demo"),
    "models": ("builtin_model", "parse_model", "drop_last_axis", "model_to_doc"),
    "patterns": ("is_locally_admissible",),
    "enumeration": ("count_patterns_dfs", "enumerate_patterns", "count_by_state"),
    "transfer": ("count_patterns", "count_via_transfer", "build_slice_space"),
    "gluing": ("glue", "periodic_core", "tiling_witness", "verify_key_inequality"),
    "bounds": (
        "build_report", "verify_power_mean_bound", "verify_doubling_monotonicity",
        "verify_qd_recurrence", "report_to_json_dict", "report_to_csv",
    ),
    "sampling": ("sample_same_state_group", "sample_admissible", "sample_with_state"),
}


def _count_via_transfer_hook(counters, args, result):
    model, n = args["model"], args["n"]
    d = model.dimension
    counters["transfer.phases"] += (n - 1) * n ** (d - 1)
    counters["transfer.count_bits"] += result.bit_length()


def _slice_space_hook(counters, args, result):
    counters["transfer.slices"] += len(result)


def _by_state_hook(counters, args, result):
    counters["enumeration.by_state_states"] += len(result)
    counters["enumeration.by_state_patterns"] += sum(result.values())


HOOKS = {
    "transfer.count_via_transfer": _count_via_transfer_hook,
    "transfer.build_slice_space": _slice_space_hook,
    "enumeration.count_by_state": _by_state_hook,
}
COUNTERS = (
    "transfer.phases", "transfer.count_bits", "transfer.slices",
    "enumeration.by_state_states", "enumeration.by_state_patterns",
)


class Recorder:
    """In-memory span table plus the counters recorded at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        i = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        bind = inspect.signature(fn).bind if hook else None

        if inspect.isgeneratorfunction(fn):
            end_nid = self._id(name + "#end")

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        self.name_id[i] = end_nid
                        self._close(i)
                        return
                    except BaseException:
                        self.name_id[i] = end_nid
                        self._close(i)
                        raise
                    self._close(i)
                    yield value

            return traced_gen

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self.counters, bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to a TRACED function in sftbounds."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "sftbounds" or name.startswith("sftbounds.")
        ]
        for layer, funcs in TRACED.items():
            home = sys.modules[f"sftbounds.{layer}"]
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self.wrap(f"{layer}.{func}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is orig:
                                    value[k] = wrapper

    def dump(self, path: str) -> None:
        header = {"names": self.names, "count": len(self.start),
                  "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


class SpanTable:
    """Spans as numpy columns: name id, parent index (-1 at the root)."""

    def __init__(self, names, name_id, parent, start, end, counters=None):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
        self.counters = dict.fromkeys(COUNTERS, 0) | dict(counters or {})
        has_parent = self.parent >= 0
        child_dur = np.zeros(len(self.dur))
        np.add.at(child_dur, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_dur
        self.children = np.bincount(self.parent[has_parent], minlength=len(self.dur))
        self.parent_name = np.where(
            has_parent, self.name_id[np.where(has_parent, self.parent, 0)], -1
        )

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["count"]
            cols = []
            for code in ("i", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                cols.append(arr)
        return cls(header["names"], *cols, counters=header["counters"])

    def _ids(self, *names: str) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def _is(self, *names: str) -> np.ndarray:
        return np.isin(self.name_id, self._ids(*names))

    def calls(self, name: str) -> int:
        return int(self._is(name).sum())

    def total(self, *names: str) -> float:
        """Summed duration of the named spans not directly inside another."""
        outer = self._is(*names) & ~np.isin(self.parent_name, self._ids(*names))
        return float(self.dur[outer].sum())

    def self_of(self, *names: str) -> float:
        return float(self.self_time[self._is(*names)].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def nested_total(self, name: str, parent: str) -> float:
        mask = self._is(name) & np.isin(self.parent_name, self._ids(parent))
        return float(self.dur[mask].sum())

    def nested_calls(self, name: str, parent: str) -> int:
        return int((self._is(name) & np.isin(self.parent_name, self._ids(parent))).sum())


def layer_metrics(table: SpanTable, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced operation."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table.layer_self(layer)
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)

    m["models.load_s"] = table.total("models.builtin_model", "models.parse_model")

    m["transfer.count_s"] = table.total("transfer.count_patterns")
    m["transfer.count_calls"] = table.calls("transfer.count_patterns")
    m["transfer.cache_hits"] = int(
        (table._is("transfer.count_patterns") & (table.children == 0)).sum()
    )
    m["transfer.product_s"] = table.total("transfer.count_via_transfer") - (
        table.nested_total("transfer.build_slice_space", "transfer.count_via_transfer")
    )
    m["transfer.slice_space_s"] = table.total("transfer.build_slice_space")
    for name in COUNTERS:
        m[name] = table.counters[name]

    m["enumeration.by_state_s"] = table.total("enumeration.count_by_state")
    m["enumeration.enumerate_s"] = table.total(
        "enumeration.enumerate_patterns", "enumeration.enumerate_patterns#end"
    )
    m["enumeration.enumerated"] = table.calls("enumeration.enumerate_patterns")

    m["bounds.report_self_s"] = table.self_of("bounds.build_report")
    m["bounds.checks_s"] = table.total(
        "bounds.verify_power_mean_bound", "bounds.verify_doubling_monotonicity",
        "bounds.verify_qd_recurrence",
    )
    m["bounds.format_s"] = table.total("bounds.report_to_json_dict", "bounds.report_to_csv")

    m["gluing.glue_s"] = table.total("gluing.glue")
    m["gluing.glue_calls"] = table.calls("gluing.glue")
    m["gluing.core_s"] = table.total("gluing.periodic_core", "gluing.tiling_witness")
    m["gluing.key_self_s"] = table.self_of("gluing.verify_key_inequality")

    m["patterns.admissible_s"] = table.total("patterns.is_locally_admissible")
    m["patterns.admissible_calls"] = table.calls("patterns.is_locally_admissible")

    groups = table.calls("sampling.sample_same_state_group")
    m["sampling.group_s"] = table.total("sampling.sample_same_state_group")
    m["sampling.groups"] = groups
    m["sampling.enumerated_per_group"] = (
        table.nested_calls(
            "enumeration.enumerate_patterns", "sampling.sample_same_state_group"
        ) / groups if groups else 0.0
    )
    return m
