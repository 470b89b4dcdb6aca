"""Spans around the calls into each latquot layer, recorded from the benchmark.

``Tracer.install(lq)`` replaces every public function of each layer module,
plus a few kernel methods, by a wrapper that records a span: name, start,
end, parent span and op id.  Spans stay in memory; ``dump`` writes them out
and ``layer_metrics`` turns them into the per-layer table.  Nothing inside
latquot is changed on disk, and ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = (
    "exactnum", "lattice_core", "quotient_torus", "flat_geometry",
    "complex_lattices", "moduli_spaces", "serialize", "cli",
)

# (layer, class, method, span name): the kernels reached through methods.
METHODS = (
    ("exactnum", "MatQ", "det", "exactnum.det"),
    ("exactnum", "MatQ", "inverse", "exactnum.inverse"),
    ("exactnum", "MatQ", "__matmul__", "exactnum.matmul"),
    ("exactnum", "MatZ", "det", "exactnum.det"),
    ("exactnum", "MatZ", "__matmul__", "exactnum.matmul"),
    ("lattice_core", "Lattice", "canonical_basis", "lattice_core.canonical_basis"),
)
# module functions that only delegate to a wrapped method above
DELEGATES = {"exactnum.det", "exactnum.inverse"}
KERNELS = {"exactnum.det", "exactnum.inverse", "exactnum.hnf", "exactnum.ldl", "exactnum.matmul"}
REPEATS = {"exactnum.inverse", "exactnum.ldl"}

# Per-function metrics reported for each layer (calls and self_s each).
FUNCTIONS = {
    "exactnum": ("inverse", "det", "hnf", "ldl", "matmul"),
    "lattice_core": ("from_basis", "contains", "equals", "canonical_basis", "sublattice_index"),
    "quotient_torus": ("reduce", "torus_add", "make_induced_map", "apply_induced"),
    "flat_geometry": ("shortest_vectors", "geodesic_spectrum", "injectivity_radius", "isometric_mod_rotation"),
    "moduli_spaces": ("same_left_coset", "double_coset_equivalent"),
    "complex_lattices": (),
    "serialize": (),
    "cli": (),
}


def entry_bits(m) -> int:
    """Total bit length of a matrix's entries (numerator plus denominator)."""
    total = 0
    for row in m.rows:
        for x in row:
            if isinstance(x, int):
                total += abs(x).bit_length()
            else:
                total += abs(x.numerator).bit_length() + x.denominator.bit_length()
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A span is ``(name, start, end, parent, op)`` with ``parent`` the index of
    the enclosing span or -1.  Children lie inside their parent's interval,
    so subtracting direct children's durations subtracts what they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.bits_in = 0
        self.vectors_out = 0
        self.repeat_calls: Counter = Counter()
        self._seen: dict[str, set] = {name: set() for name in REPEATS}
        self._undo: list[tuple] = []

    # --- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def open(self, name_id: int) -> list:
        rec = [name_id, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens (the cli phases)."""
        rec = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(rec)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        kernel = name in KERNELS
        seen = self._seen.get(name)
        counts_vectors = name in ("flat_geometry.shortest_vectors", "flat_geometry.geodesic_spectrum")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel:
                self.bits_in += sum(entry_bits(a) for a in args if hasattr(a, "rows"))
            if seen is not None:
                key = args[0].rows
                if key in seen:
                    self.repeat_calls[name] += 1
                else:
                    seen.add(key)
            rec = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counts_vectors:
                self.vectors_out += len(result) if name.endswith("shortest_vectors") else sum(k for _, k in result)
            return result

        return traced

    # --- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lq) -> None:
        """Wrap each layer's public functions and the kernel methods.

        A function re-exported by another module (``from .exactnum import
        hnf``) is replaced there too, so every caller goes through the wrapper.
        """
        modules = [lq] + [getattr(lq, layer) for layer in LAYERS if hasattr(lq, layer)]
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(lq, layer, None)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in DELEGATES):
                    wrapped[obj] = self.wrap(obj, name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(getattr(lq, layer), cls_name)
            self._patch(cls, meth, self.wrap(vars(cls)[meth], name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- output -------------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans, "bits_in": self.bits_in,
                "vectors_out": self.vectors_out, "repeat_calls": dict(self.repeat_calls)}

    def merge(self, doc: dict, op: int) -> None:
        """Append the spans of another tracer's ``export`` (a cli child) under op id ``op``."""
        ids = [self.name_id(name) for name in doc["names"]]
        base = len(self.spans)
        for nid, start, end, parent, _ in doc["spans"]:
            self.spans.append([ids[nid], start, end, parent + base if parent >= 0 else -1, op])
        self.bits_in += doc["bits_in"]
        self.vectors_out += doc["vectors_out"]
        self.repeat_calls.update(doc["repeat_calls"])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": self.names}, fh)
            fh.write("\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, op]) + "\n")

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """The per-layer table: calls and self time per function, self time and
        share per layer, kernel input bits, repeat fractions, cli phases."""
        selfs = self_times([(self.names[s[0]], *s[1:]) for s in self.spans])
        calls: Counter = Counter()
        self_s: Counter = Counter()
        dur: Counter = Counter()
        for s, own in zip(self.spans, selfs):
            name = self.names[s[0]]
            calls[name] += 1
            self_s[name] += own
            dur[name] += s[2] - s[1]
        out: dict[str, float] = {}
        for layer in LAYERS:
            for fn in FUNCTIONS[layer]:
                out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
            layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = layer_self
            out[f"{layer}.share"] = layer_self / wall if wall > 0 else 0.0
        for name in sorted(REPEATS):
            out[f"{name}.repeat_frac"] = self.repeat_calls[name] / calls[name] if calls[name] else 0.0
        out["exactnum.bits_in"] = self.bits_in
        out["flat_geometry.vectors_out"] = self.vectors_out
        out["serialize.parse.self_s"] = sum(v for k, v in self_s.items() if k.startswith("serialize.parse_"))
        argparse_s = dur["cli.build_parser"] + dur["cli.argparse"]
        out["cli.import_s"] = dur["cli.import"]
        out["cli.argparse_s"] = argparse_s
        out["cli.emit_s"] = dur["cli.emit"]
        out["cli.compute_s"] = dur["cli.run"] - argparse_s - dur["cli.emit"]
        return out
