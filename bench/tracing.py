"""Spans and work counters around the calls into each semiradius layer.

A ``Tracer`` replaces each public function listed in ``TARGETS`` by a
wrapper that records one span per call: (name, start, end, parent span,
operation id).  A module-level function is replaced in every
``semiradius.*`` namespace that binds the same function object, so
by-name imports (``from .functionals import crawford``) are traced too.
Methods are replaced on their class and catalog entries in ``CATALOG``.
Calls to ``np.linalg.eigh``, ``eigvalsh`` and ``svd`` are counted with
their batch sizes and the span they ran under.

A target that no longer exists is skipped and its metrics read zero, so
the benchmark survives refactors that delete or rename functions.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import sys
import time

import numpy as np

LAYERS = ("sampler", "kernel", "space", "functionals", "catalog", "campaign")

# (module, attribute path) of every traced function; the layer is the
# module's short name.
TARGETS = (
    ("semiradius.sampler", "sample_space"),
    ("semiradius.sampler", "sample_bundle"),
    ("semiradius.sampler", "sample_unit_vectors"),
    ("semiradius.kernel", "hermitian_eigendecomposition"),
    ("semiradius.kernel", "spectral_norm"),
    ("semiradius.space", "build_space"),
    ("semiradius.space", "SemiHilbertSpace.admits_a_adjoint"),
    ("semiradius.space", "SemiHilbertSpace.is_a_bounded"),
    ("semiradius.space", "SemiHilbertSpace.register"),
    ("semiradius.space", "SemiHilbertSpace.tilde"),
    ("semiradius.space", "SemiHilbertSpace.sharp"),
    ("semiradius.space", "SemiHilbertSpace.re_part"),
    ("semiradius.space", "SemiHilbertSpace.im_part"),
    ("semiradius.space", "SemiHilbertSpace.is_a_selfadjoint"),
    ("semiradius.space", "SemiHilbertSpace.is_a_positive"),
    ("semiradius.space", "SemiHilbertSpace.double"),
    ("semiradius.space", "SemiHilbertSpace.block2"),
    ("semiradius.functionals", "numerical_radius"),
    ("semiradius.functionals", "crawford_number"),
    ("semiradius.functionals", "op_seminorm"),
    ("semiradius.functionals", "a_numerical_radius"),
    ("semiradius.functionals", "crawford"),
    ("semiradius.functionals", "mc_radius_lower"),
    ("semiradius.functionals", "mc_crawford_upper"),
    ("semiradius.catalog", "run_all"),
    ("semiradius.catalog", "run_check"),
    ("semiradius.catalog", "Evaluator.member_ok"),
    ("semiradius.catalog", "Evaluator.sharp"),
    ("semiradius.catalog", "Evaluator.re"),
    ("semiradius.catalog", "Evaluator.im"),
    ("semiradius.catalog", "Evaluator.block"),
    ("semiradius.catalog", "Evaluator.radius"),
    ("semiradius.catalog", "Evaluator.crawford"),
    ("semiradius.catalog", "Evaluator.norm"),
    ("semiradius.campaign", "run_campaign"),
)

# Solvers whose spans also record the size of the matrix they were given.
_SIZED = {"functionals.numerical_radius", "functionals.crawford_number"}

_NUMPY_SOLVERS = ("eigh", "eigvalsh", "svd")

# Matrix sizes reported by the per-size solver metrics: the reduced sizes
# and their doubled blocks on the campaigns, and the solver workload's sizes.
SOLVER_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 32)

CHECK_IDS = tuple(f"C{i}" for i in range(1, 24))


def _span_name(module: str, path: str) -> str:
    """Layer and function name: ``space.tilde``, ``catalog.radius``."""
    return f"{module.rsplit('.', 1)[-1]}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans and eigensolver calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.solves: list[tuple[str, int, int]] = []
        self.operation = ""
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        sized = name in _SIZED

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = np.shape(args[0])[0] if sized and args else 0
                spans[sid] = (idx, start, end, stack[-1], tracer.operation, size)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, kind: str, fn):
        solves, stack = self.solves, self._stack

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            solves.append((kind, math.prod(shape[:-2]), stack[-1]))
            return fn(a, *args, **kwargs)

        return counted

    def _rebind(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        package = [m for n, m in sorted(sys.modules.items()) if n == "semiradius" or n.startswith("semiradius.")]
        for module, path in TARGETS:
            name = _span_name(module, path)
            mod = sys.modules.get(module)
            head, _, method = path.partition(".")
            owner = getattr(mod, head, None)
            if method:
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(fn):
                    self.missing.append(name)
                    continue
                self._rebind(owner, method, self._wrap(name, fn))
                continue
            if not callable(owner):
                self.missing.append(name)
                continue
            traced = self._wrap(name, owner)
            for ns in package:
                for attr, value in list(vars(ns).items()):
                    if value is owner:
                        self._rebind(ns, attr, traced)
        catalog = sys.modules.get("semiradius.catalog")
        table = getattr(catalog, "CATALOG", {})
        for cid, entry in list(table.items()):
            traced = self._wrap(f"catalog.check.{cid}", entry.evaluate)
            self._undo.append((table, cid, entry))
            table[cid] = dataclasses.replace(entry, evaluate=traced)
        for kind in _NUMPY_SOLVERS:
            self._rebind(np.linalg, kind, self._count(kind, getattr(np.linalg, kind)))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, operation."""
        with gzip.open(path, "wt") as fh:
            for sid, (idx, start, end, parent, op, _size) in enumerate(self.spans):
                fh.write(json.dumps([sid, self.names[idx], start, end, parent, op]) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-name call counts, inclusive and self times, and solver counts."""

    def __init__(self, tracer: Tracer):
        names, spans = tracer.names, tracer.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        layer_of_span = []
        for sid, (idx, _start, _end, parent, _op, _size) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[sid]
            layer_of_span.append(names[idx].split(".", 1)[0])
        self.calls = {n: 0 for n in names}
        self.total = {n: 0.0 for n in names}
        self.self_time = {n: 0.0 for n in names}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        # Self time and call count of each sized solver, keyed by size.
        self.sized: dict[tuple[str, int], list] = {}
        for sid, (idx, _start, _end, _parent, _op, size) in enumerate(spans):
            name = names[idx]
            own = dur[sid] - child[sid]
            self.calls[name] += 1
            self.total[name] += dur[sid]
            self.self_time[name] += own
            self.layer_self[layer_of_span[sid]] += own
            if name in _SIZED:
                acc = self.sized.setdefault((name, size), [0, 0.0])
                acc[0] += 1
                acc[1] += own
        # Evaluator requests answered without a call into functionals.
        requests = {
            sid
            for sid, s in enumerate(spans)
            if names[s[0]] in ("catalog.radius", "catalog.crawford", "catalog.norm")
        }
        computed = {s[3] for s in spans if s[3] in requests and names[s[0]].startswith("functionals.")}
        self.requests = len(requests)
        self.memo_hits = len(requests) - len(computed)
        self.solver_calls = {layer: 0 for layer in LAYERS}
        self.solver_matrices = {layer: 0 for layer in LAYERS}
        self.peak_batch = {layer: 0 for layer in LAYERS}
        for kind, batch, sid in tracer.solves:
            if kind == "svd" or sid < 0:
                continue
            layer = layer_of_span[sid]
            self.solver_calls[layer] += 1
            self.solver_matrices[layer] += batch
            self.peak_batch[layer] = max(self.peak_batch[layer], batch)
        self.svd_calls = sum(kind == "svd" for kind, _b, _s in tracer.solves)
        self.missing = list(tracer.missing)

    def counters(self) -> dict:
        """Machine-independent counts; two runs of one seed must agree."""
        out = {f"calls.{n}": c for n, c in sorted(self.calls.items())}
        for layer in LAYERS:
            out[f"eig_batches.{layer}"] = self.solver_calls[layer]
            out[f"eig_matrices.{layer}"] = self.solver_matrices[layer]
            out[f"peak_batch.{layer}"] = self.peak_batch[layer]
        out["numpy.svd"] = self.svd_calls
        out["memo.requests"] = self.requests
        out["memo.hits"] = self.memo_hits
        for (name, size), (count, _t) in sorted(self.sized.items()):
            out[f"sized.{name}.m{size}"] = count
        return out

    def per_layer(self, ops: int, busy_s: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics per operation (instance or solver call).

        ``busy_s`` is the time spent in the traced operations; every time
        is multiplied by ``scale`` to bring it to the reference speed.
        """
        per = 1.0 / max(ops, 1)
        to_ms = 1e3 * per * scale

        def calls(*names):
            return sum(self.calls.get(n, 0) for n in names)

        def ms(*names):
            return to_ms * sum(self.self_time.get(n, 0.0) for n in names)

        membership = ("space.admits_a_adjoint", "space.is_a_bounded")
        reductions = calls("space.tilde", "space.sharp")
        out = {
            "trace.wall_ms": to_ms * busy_s,
            "sampler.self_ms": to_ms * self.layer_self["sampler"],
            "sampler.space_ms": ms("sampler.sample_space"),
            "sampler.bundle_ms": ms("sampler.sample_bundle"),
            "kernel.self_ms": to_ms * self.layer_self["kernel"],
            "kernel.eigh_ms": ms("kernel.hermitian_eigendecomposition"),
            "kernel.eigh_calls": per * calls("kernel.hermitian_eigendecomposition"),
            "kernel.svd_calls": per * calls("kernel.spectral_norm"),
            "space.self_ms": to_ms * self.layer_self["space"],
            "space.membership_calls": per * calls(*membership),
            "space.membership_ms": ms(*membership),
            "space.register_calls": per * calls("space.register"),
            "space.register_per_reduction": calls("space.register") / reductions if reductions else 0.0,
            "space.tilde_calls": per * calls("space.tilde"),
            "space.tilde_ms": ms("space.tilde"),
            "space.sharp_calls": per * calls("space.sharp"),
            "space.sharp_ms": ms("space.sharp"),
            "space.block_ms": ms("space.block2", "space.double"),
            "functionals.self_ms": to_ms * self.layer_self["functionals"],
            "functionals.radius_calls": per * calls("functionals.numerical_radius"),
            "functionals.crawford_calls": per * calls("functionals.crawford_number"),
            "functionals.norm_calls": per * calls("functionals.op_seminorm"),
            "functionals.radius_ms": ms("functionals.numerical_radius", "functionals.a_numerical_radius"),
            "functionals.crawford_ms": ms("functionals.crawford_number", "functionals.crawford"),
            "functionals.norm_ms": ms("functionals.op_seminorm"),
            "functionals.eig_batches": per * self.solver_calls["functionals"],
            "functionals.angles": per * self.solver_matrices["functionals"],
            "functionals.peak_batch": float(self.peak_batch["functionals"]),
        }
        for short, name in (("radius", "functionals.numerical_radius"), ("crawford", "functionals.crawford_number")):
            for k in SOLVER_SIZES:
                count, spent = self.sized.get((name, k), (0, 0.0))
                out[f"functionals.{short}_us.m{k}"] = 1e6 * scale * spent / count if count else 0.0
        out["catalog.self_ms"] = to_ms * self.layer_self["catalog"]
        out["catalog.run_all_ms"] = to_ms * self.total.get("catalog.run_all", 0.0)
        out["catalog.memo_hit_frac"] = self.memo_hits / self.requests if self.requests else 0.0
        for cid in CHECK_IDS:
            out[f"catalog.check_ms.{cid}"] = to_ms * self.total.get(f"catalog.check.{cid}", 0.0)
        out["campaign.self_ms"] = to_ms * self.layer_self["campaign"]
        return out
