"""Timing wrappers installed from outside the package, and per-layer metrics.

``Tracer.install`` replaces every public function of the package modules
(and ``numpy.linalg.eigh`` / ``eigvalsh``) by a wrapper that records a span:
name, start, end, thread and parent span.  A name is patched in every module
namespace that binds the same object, so ``guedyn.models.sample_gue`` and
``guedyn.sim.sample_gue`` both record.  Spans stay in memory until the pass
ends.

Self time splits the traced wall clock exactly: at each instant the elapsed
time is shared equally by the open spans that have no open child, so the
self times of all spans plus the uncovered time (``bench.other_s``) sum to
the traced wall time, also while the package's thread pool runs samples in
parallel.  A span opened on a thread with no open span of its own (a pool
worker) takes the innermost open span of the main thread as its parent.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "spectral", "haar", "symgroup", "sim", "models")
LINALG = ("eigh", "eigvalsh")

# The per-sample job of the Monte Carlo pool.  It is private, but it is the
# only boundary where a worker thread's busy time is visible from outside;
# its self time is counted as mc_average self time.
SAMPLE_JOB = "sim._single_run"

SAMPLERS = ("sim.sample_gue", "sim.sample_haar_unitary", "sim.sample_so3", "sim.haar_state")

# Hermitian eigendecomposition with vectors: 9 n^3 real flops (Golub and
# Van Loan, symmetric QR), times 4 for complex arithmetic.  Computed, not
# counted.
EIGH_FLOPS_PER_D3 = 36

# Arguments kept on a span, reduced to small values so that no array is held.
_ARGS = {
    "sim.mc_average": lambda a: {
        "d_A": a["d_A"],
        "d_B": a["d_B"],
        "n_times": np.asarray(a["times"]).size,
        "threads": a["threads"],
    },
    "models.build_model": lambda a: {"family": a["spec"].family},
    "models.ensemble_dynamics": lambda a: {
        "family": a["spec"].family,
        "n_samples": a["n_samples"],
    },
    "linalg.eigh": lambda a: {"shape": np.shape(a["a"])},
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "args")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.args = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spin_families: tuple[str, ...] = ()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        extract = _ARGS.get(name)
        signature = inspect.signature(fn) if extract else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, parent, threading.get_ident())
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.args = extract(bound.arguments)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> "Tracer":
        self.spin_families = package.models.SPIN_FAMILIES
        mods = [getattr(package, m) for m in MODULES]
        wrappers = {}  # id of a wrapped function -> its wrapper
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and f"{short}.{attr}" != SAMPLE_JOB:
                    continue
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # Patch every namespace that binds a wrapped function (models binds
        # sim.sample_gue, haar binds symgroup.weingarten, ...).
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        avg = package.haar.SymbolicAverage
        self._patch(avg, "evaluate", self._wrap("haar.evaluate", avg.evaluate))
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Exact split of covered wall time among spans (keyed by id)."""
        events = []
        for i, span in enumerate(self.spans):
            # Ties keep recording order, so a zero-length span opens before
            # it closes.
            events.append((span.start, 2 * i, True, span))
            events.append((span.end, 2 * i + 1, False, span))
        events.sort(key=lambda e: (e[0], e[1]))
        open_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        leaves: dict[int, Span] = {}
        out: dict[int, float] = defaultdict(float)
        last = None
        for when, _, is_start, span in events:
            if last is not None and leaves:
                share = (when - last) / len(leaves)
                for key in leaves:
                    out[key] += share
            last = when
            parent = span.parent
            if is_start:
                active.add(id(span))
                leaves[id(span)] = span
                if parent is not None and id(parent) in active:
                    open_children[id(parent)] += 1
                    leaves.pop(id(parent), None)
            else:
                active.discard(id(span))
                leaves.pop(id(span), None)
                if parent is not None and id(parent) in active:
                    open_children[id(parent)] -= 1
                    if open_children[id(parent)] == 0:
                        leaves[id(parent)] = parent
        return out

    def covered(self) -> float:
        """Length of the union of all span intervals."""
        total, reach = 0.0, None
        for start, end in sorted((s.start, s.end) for s in self.spans):
            if reach is None or start > reach:
                total += end - start
                reach = end
            elif end > reach:
                total += end - reach
                reach = end
        return total


def _ancestors(span):
    span = span.parent
    while span is not None:
        yield span
        span = span.parent


def layer_metrics(tracer: Tracer, wall_s: float, f_cache_hit_ratio: float, bytes_written: int,
                  families: tuple[str, ...]) -> dict:
    """Per-layer metrics of one traced pass (values only; units in BENCHMARK.json).

    ``families`` are the model families that get a build-time metric each.
    """
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        own = selfs.get(id(span), 0.0)
        name = "sim.mc_average" if span.name == SAMPLE_JOB else span.name
        by_name[name] += own
        calls[span.name] += 1
        layer[name.split(".", 1)[0]] += own

    m: dict[str, float] = {}
    for name in ("spectral", "haar", "symgroup", "sim", "models", "linalg"):
        m[f"{name}.self_s"] = layer[name]
    m["cli.main.self_s"] = layer["cli"]  # every cli function, main included
    m["cli.bytes_written"] = bytes_written

    m["spectral.f_matrix.calls"] = calls["spectral.f_matrix"]
    m["spectral.f_matrix.self_s"] = by_name["spectral.f_matrix"]
    m["spectral.f_cache.hit_ratio"] = f_cache_hit_ratio
    m["spectral.correlator.calls"] = calls["spectral.correlator"]
    m["spectral.correlator.self_s"] = by_name["spectral.correlator"]
    non_curve = ("spectral.f_matrix", "spectral.correlator", "spectral.find_extrema")
    m["spectral.curve.self_s"] = sum(
        v for k, v in by_name.items() if k.startswith("spectral.") and k not in non_curve
    )
    m["spectral.find_extrema.fn_evals"] = sum(
        1 for s in tracer.spans if s.parent is not None and s.parent.name == "spectral.find_extrema"
    )
    m["spectral.find_extrema.self_s"] = by_name["spectral.find_extrema"]

    m["haar.haar_average_moment.wall_s"] = sum(
        s.end - s.start for s in tracer.spans if s.name == "haar.haar_average_moment")
    m["haar.evaluate.self_s"] = by_name["haar.evaluate"]
    m["symgroup.weingarten.calls"] = calls["symgroup.weingarten"]
    m["symgroup.weingarten.self_s"] = by_name["symgroup.weingarten"]

    spin_builds = 0
    family_self: dict[str, float] = defaultdict(float)
    spin_samples = 0
    pilot_calls = 0
    pilot_self = 0.0
    eigh_flops = 0
    for span in tracer.spans:
        if span.name.startswith("models."):
            # Assembly time of a family: models-layer self time at or under
            # its build_model call (the *_hamiltonian builders included,
            # samplers and linalg excluded).
            build = next((a for a in (span, *_ancestors(span))
                          if a.name == "models.build_model"), None)
            if build is not None:
                family_self[build.args["family"]] += selfs.get(id(span), 0.0)
        if span.name == "models.build_model":
            spin_builds += span.args["family"] in tracer.spin_families
        elif span.name == "models.ensemble_dynamics":
            if span.args["family"] in tracer.spin_families:
                spin_samples += span.args["n_samples"]
        elif span.name == "linalg.eigvalsh":
            names = {a.name for a in _ancestors(span)}
            if "models.ensemble_dynamics" in names and "sim.mc_average" not in names:
                pilot_calls += 1
                pilot_self += selfs.get(id(span), 0.0)
        elif span.name == "linalg.eigh":
            shape = span.args["shape"]
            eigh_flops += EIGH_FLOPS_PER_D3 * shape[-1] ** 3 * int(np.prod(shape[:-2]))
    m["models.build_model.calls_per_sample"] = spin_builds / spin_samples if spin_samples else 0.0
    for fam in families:
        m[f"models.build_model.self_s.{fam}"] = family_self[fam]
    m["models.pilot.eigvalsh_calls"] = pilot_calls
    m["models.pilot.self_s"] = pilot_self
    m["models.rescale_energies.self_s"] = by_name["models.rescale_energies"]

    m["linalg.eigh.calls"] = calls["linalg.eigh"]
    m["linalg.eigh.self_s"] = by_name["linalg.eigh"]
    m["linalg.eigvalsh.self_s"] = by_name["linalg.eigvalsh"]
    m["linalg.eigh.flops"] = eigh_flops

    m["sim.sampler.self_s"] = sum(by_name[n] for n in SAMPLERS)
    m["sim.completion_unitary.calls"] = calls["sim.completion_unitary"]
    m["sim.completion_unitary.self_s"] = by_name["sim.completion_unitary"]
    m["sim.mc_average.self_s"] = by_name["sim.mc_average"]

    mc_spans = [s for s in tracer.spans if s.name == "sim.mc_average"]
    per_sample_bytes = 0
    busy = capacity = 0.0
    if mc_spans:
        top = max(s.args["threads"] for s in mc_spans)
        children = defaultdict(float)
        for span in tracer.spans:
            if span.parent is not None and span.parent.name == "sim.mc_average":
                children[id(span.parent)] += span.end - span.start
        for span in mc_spans:
            a = span.args
            d = a["d_A"] * a["d_B"]
            per_sample_bytes = max(per_sample_bytes, 16 * a["n_times"] * (d + a["d_A"] ** 2))
            if a["threads"] == top:
                busy += children[id(span)]
                capacity += a["threads"] * (span.end - span.start)
    m["sim.mc_average.bytes"] = per_sample_bytes
    m["sim.threads.busy_frac"] = busy / capacity if capacity else 0.0

    m["bench.traced_wall_s"] = wall_s
    m["bench.other_s"] = wall_s - tracer.covered()
    return m
