"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each mqinfo module from outside and
rebinds every name that refers to them, in every loaded ``mqinfo`` module, so
that callers which imported a name with ``from .x import f`` (or look it up
lazily at call time) reach the wrapper.  Each call made while an operation is
open records one span: name, start, end, parent span and operation id.  Spans
stay in compact in-memory arrays and are written out once, at the end.

A function that a later version of the program no longer calls simply records
no spans, and a module that no longer exists is skipped, so its layer reads
zero instead of failing.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer name -> modules whose public functions belong to it
LAYERS = {
    "statekit": ("mqinfo.statekit",),
    "reduction": ("mqinfo.reduction",),
    "pauli": ("mqinfo.pauli", "mqinfo._kernels"),
    "measures": ("mqinfo.measures",),
    "identities": ("mqinfo.identities",),
    "cli": ("mqinfo.cli",),
}
ROOT_LAYER = "bench"

# functions whose input we count in reduction.calls_per_subset
_SUBSET_FUNCS = ("reduction.subset_purity", "reduction.partial_trace")
# functions that build a whole information table
_TABLE_FUNCS = (
    "measures.all_infos_fast",
    "measures.all_infos_enumerated",
    "measures.all_infos_mixed",
)
# state construction (validation included)
_BUILD_FUNCS = ("statekit.PureState.__post_init__", "statekit.MixedState.__post_init__")


def _array_of(obj):
    """The amplitude vector or density matrix behind a state argument."""
    for attr in ("amplitudes", "matrix"):
        arr = getattr(obj, attr, None)
        if isinstance(arr, np.ndarray):
            return arr
    return obj if isinstance(obj, np.ndarray) else None


class Tracer:
    """Records spans and counters for calls into mqinfo's layers."""

    def __init__(self):
        self.names = ["bench.op"]
        self.layer_of = [ROOT_LAYER]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("i")
        self.op_id = array("i")
        self._stack = []
        self._current_op = -1
        self._undo = []
        self.counts = {
            "reduction.elems_in": 0,
            "reduction.subset_calls": 0,
            "measures.tables": 0,
            "statekit.states_built": 0,
            "identities.checks": 0,
            "identities.checks_failed": 0,
        }
        self.subset_keys = set()

    # -- span recording ---------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(name_id)
        self.op_id.append(self._current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span around one benchmark operation; yields its index."""
        self._current_op = op_id
        idx = self._open(0)
        try:
            yield idx
        finally:
            self._close(idx)
            self._current_op = -1

    def op_seconds(self, idx):
        return self.end[idx] - self.start[idx]

    # -- counters -----------------------------------------------------------

    def _count_reduction(self, args, subset_call):
        arr = _array_of(args[0]) if args else None
        if arr is None:
            return
        self.counts["reduction.elems_in"] += arr.size
        if subset_call and len(args) > 1:
            try:
                keep = tuple(sorted(set(args[1])))
            except TypeError:
                return
            self.counts["reduction.subset_calls"] += 1
            # a few leading entries identify a random state
            self.subset_keys.add((arr.ravel()[:4].tobytes(), keep))

    def _count_report(self, result):
        # every identity checker returns an IdentityReport
        if type(result).__name__ == "IdentityReport":
            self.counts["identities.checks"] += 1
            if not result.passed:
                self.counts["identities.checks_failed"] += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, qualname, layer):
        name_id = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        is_reduction = layer == "reduction"
        subset_call = qualname in _SUBSET_FUNCS
        is_identities = layer == "identities"
        counter = (
            "measures.tables" if qualname in _TABLE_FUNCS
            else "statekit.states_built" if qualname in _BUILD_FUNCS
            else None
        )
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside an operation: not traced
                return fn(*args, **kwargs)
            if is_reduction:
                tracer._count_reduction(args, subset_call)
            elif counter is not None:
                counts[counter] += 1
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_identities:
                tracer._count_report(result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer's public functions and rebind all references."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                short = module_name.rpartition(".")[2].lstrip("_")
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(obj):
                        self._wrap_methods(obj, f"{layer}.{obj.__name__}", layer)
                    elif callable(obj) and not name.startswith("_"):
                        if id(obj) not in wrappers:
                            qual = f"{layer}.{name}" if short == layer else f"{layer}.{short}.{name}"
                            wrappers[id(obj)] = (obj, self._wrap(obj, qual, layer))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mqinfo" or mod_name.startswith("mqinfo.")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((module, attr, val))
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, cls, prefix, layer):
        for attr, val in list(vars(cls).items()):
            if inspect.isfunction(val) and (not attr.startswith("_") or attr == "__post_init__"):
                self._undo.append((cls, attr, val))
                setattr(cls, attr, self._wrap(val, f"{prefix}.{attr}", layer))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self, op_factor):
        """{layer: (self seconds, span count)}, the root layer included.

        A span's self time is its duration minus its direct children's
        durations, so the self times of all spans under one root add up to
        the root's duration.  Each span's self time is scaled by
        ``op_factor[op id]``, the calibration factor of its operation.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        factor = np.asarray(op_factor, dtype=np.float64)[np.frombuffer(self.op_id, dtype=np.int32)]
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = (dur - child_sum) * factor
        layers = [ROOT_LAYER] + list(LAYERS)
        layer_index = np.array([layers.index(lay) for lay in self.layer_of], dtype=np.int64)
        span_layer = layer_index[names] if names.size else np.zeros(0, dtype=np.int64)
        seconds = np.bincount(span_layer, weights=own, minlength=len(layers))
        calls = np.bincount(span_layer, minlength=len(layers))
        return {lay: (float(seconds[i]), int(calls[i])) for i, lay in enumerate(layers)}

    def dump(self, path):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer_of=np.array(self.layer_of),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
        )
