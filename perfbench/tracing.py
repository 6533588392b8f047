"""Outside-in tracing of k3auto: spans recorded around the public functions
of each module, from the benchmark's files only (nothing in ``src/`` is
edited).

A function is wrapped at every place it is bound, not only in its defining
module: ``ellsurf`` imports ``gcdfree_basis`` and ``valuation`` by name, so
patching ``polyfield.gcdfree_basis`` alone would miss the calls made from
``ellsurf``.  ``Tracer.install`` therefore rebinds every attribute of every
loaded ``k3auto`` module that refers to a wrapped function.  Methods are
patched on their class, which every binding shares.

Spans live in memory as parallel arrays (name, start, end, parent); self
time is computed from them after the run, and ``write_spans`` dumps them.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute); the wrapped public boundaries
FUNCTIONS = {
    "cli.main": ("k3auto.cli", "main"),
    "parsing.parse_poly": ("k3auto.parsing", "parse_poly"),
    "parsing.parse_pattern": ("k3auto.parsing", "parse_pattern"),
    "polyfield.poly_gcd": ("k3auto.polyfield", "poly_gcd"),
    "polyfield.squarefree_decompose": ("k3auto.polyfield", "squarefree_decompose"),
    "polyfield.gcdfree_basis": ("k3auto.polyfield", "gcdfree_basis"),
    "polyfield.is_squarefree": ("k3auto.polyfield", "is_squarefree"),
    "polyfield.valuation": ("k3auto.polyfield", "valuation"),
    "ellsurf.analyze_fibers": ("k3auto.ellsurf", "analyze_fibers"),
    "ellsurf.flip_model": ("k3auto.ellsurf", "flip_model"),
    "ellsurf.classify": ("k3auto.ellsurf", "_classify"),
    "ellsurf.discriminant": ("k3auto.ellsurf", "discriminant"),
    "lattice.build_lattice": ("k3auto.lattice", "build_lattice"),
    "lattice.determinant_and_signature": ("k3auto.lattice", "determinant_and_signature"),
    "lattice.discriminant_group": ("k3auto.lattice", "discriminant_group"),
    "isometry.char_poly_decompositions": ("k3auto.isometry", "char_poly_decompositions"),
    "isometry.lefschetz_number": ("k3auto.isometry", "lefschetz_number"),
    "enumerations.fiber_orbit_configs": ("k3auto.enumerations", "fiber_orbit_configs"),
    "enumerations.order22_replay": ("k3auto.enumerations", "order22_replay"),
    "enumerations.rank_det_cases": ("k3auto.enumerations", "rank_det_cases"),
}
# metric prefix -> (module, class, methods)
METHODS = {
    "polyfield.mul": ("k3auto.polyfield", "Poly", ("__mul__", "__rmul__")),
    "polyfield.divmod": ("k3auto.polyfield", "Poly", ("__divmod__",)),
    "ellsurf.WeierstrassModel": ("k3auto.ellsurf", "WeierstrassModel", ("__post_init__",)),
}
OP = "op"  # root span of one benchmark operation


class Tracer:
    """Span recorder.  Span i has name ``names[i]`` (an index into
    ``labels``), interval [starts[i], ends[i]] and parent ``parents[i]``
    (-1 for a root).  Spans of one op share its root ``op`` span."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.names = array.array("H")
        self.parents = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.basis_sizes: list[int] = []
        self.valuation_redundant = 0
        self.max_coeff_bits = 0
        self._op_exponents: set = set()
        self._restore: list = []

    def _label(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(self._label(name))
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def begin_op(self) -> int:
        """Root span of one op; resets the per-op state and any stack left
        by an op cut off at its budget."""
        del self.stack[1:]
        self._op_exponents.clear()
        return self.begin(OP)

    def end_op(self, idx: int) -> None:
        now = time.perf_counter()
        for i in range(idx, len(self.ends)):
            if not self.ends[i]:  # cut off inside this span
                self.ends[i] = now
        del self.stack[1:]

    def wrap(self, name: str, fn, after=None):
        label = self._label(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        st = self.stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(label)
            parents.append(st[-1])
            ends.append(0.0)
            st.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = time.perf_counter()
                if st[-1] == idx:
                    st.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters kept where the work happens ------------------------------

    def _after_gcdfree_basis(self, args, result):
        basis, exponents = result
        self.basis_sizes.append(len(basis))
        for p, row in zip(args[0], exponents):
            for b, _e in zip(basis, row):
                self._op_exponents.add((p, b))

    def _after_valuation(self, args, _result):
        p, place = args
        if place.generator is not None and (p, place.generator) in self._op_exponents:
            self.valuation_redundant += 1

    def _after_poly_result(self, _args, result):
        polys = result if isinstance(result, tuple) else (result,)
        bits = self.max_coeff_bits
        for poly in polys:
            for c in getattr(poly, "coefficients", ()):
                for q in (c.x, c.y):
                    n = max(q.numerator.bit_length(), q.denominator.bit_length())
                    if n > bits:
                        bits = n
        self.max_coeff_bits = bits

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary at every binding in the loaded k3auto modules."""
        hooks = {
            "polyfield.gcdfree_basis": self._after_gcdfree_basis,
            "polyfield.valuation": self._after_valuation,
            "polyfield.mul": self._after_poly_result,
            "polyfield.divmod": self._after_poly_result,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "k3auto" or n.startswith("k3auto.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapped)
        for name, (module, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, hooks.get(name)))
        scenarios = sys.modules["k3auto.verify"].SCENARIOS
        for key, fn in list(scenarios.items()):
            self._restore.append((scenarios, key, fn))
            scenarios[key] = self.wrap(f"verify.scenario.{key}", fn)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in ms.  Self time
        is the span's duration minus the durations of its direct children."""
        n = len(self.names)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        labels, names = self.labels, self.names
        for i in range(n):
            label = labels[names[i]]
            dur = ends[i] - starts[i]
            calls[label] += 1
            total[label] += dur
            own[label] += dur - child[i]
        return {k: {"calls": calls[k], "total_ms": total[k] * 1e3,
                    "self_ms": own[k] * 1e3} for k in calls}

    def report(self) -> dict:
        """What run.py needs from one traced process."""
        return {
            "summary": self.summary(),
            "basis_sizes": [sum(self.basis_sizes), len(self.basis_sizes)],
            "valuation_redundant": self.valuation_redundant,
            "max_coeff_bits": self.max_coeff_bits,
            "spans": len(self.names),
        }

    def write_spans(self, path: str) -> None:
        """One JSON header line (labels, count), then the raw arrays in the
        order names (uint16), parents (int64), starts, ends (float64)."""
        with open(path, "wb") as handle:
            header = {"labels": self.labels, "count": len(self.names),
                      "arrays": ["names:H", "parents:l", "starts:d", "ends:d"]}
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(handle)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times (ms) from ``-X importtime`` output: the
    top-level k3auto entries summed, and sympy."""
    k3_us = sympy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        field = parts[2]
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        if name == "sympy":
            sympy_us = cumulative
        elif depth == 1 and (name == "k3auto" or name.startswith("k3auto.")):
            k3_us += cumulative
    return {"import_ms": k3_us / 1e3, "import_sympy_ms": sympy_us / 1e3}
