"""Spans and counts at the boundaries between `mvpp` modules.

The tracer wraps public functions from outside the program.  A wrapper is
rebound only in the namespace of a module from another layer that imports
the function (for example `mvpp.verify.batch_rrt_walk_labels`), or behind a
read-only view of a module that another module imports whole (the `stats`
that `mvpp.verify` sees).  Calls within one layer therefore get no span:
spanning `stats`' internal per-point CDF would add millions of spans.

Per-draw `RngStream` methods and kernel `.sample` methods run millions of
times per pass, so they are counted, not spanned.

A span records name, start, end, parent span and run id; spans stay in
memory (compact arrays) and are written out when the run ends.  A layer's
self time is its spans' time minus the time of their child spans and minus
the time the tracer's wrappers spent around those children (span
bookkeeping and counting), which is reported on its own; so the layer self
times plus the wrapper time add up to the root span.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "process.batch",
    "process.scalar",
    "trees",
    "stats",
    "kernels",
    "measures",
    "oracle",
    "randomness",
    "cli",
    "verify",
)

_SCALAR_DRAWS = ("next_uniform", "next_standard_normal", "next_gamma", "next_stable")


def layer_of(module: str, func: str) -> str:
    """Layer of a function: its module, with `process` split into the
    vectorised batch simulators and the per-step scalar ones."""
    if module == "process":
        return "process.batch" if func.startswith("batch_") else "process.scalar"
    return module


class _ModuleView:
    """Read-only stand-in for a module, with its public functions spanned."""

    def __init__(self, module, wrap):
        self._module = module
        self._wrap = wrap
        self._cache = {}

    def __getattr__(self, name):
        try:
            return self._cache[name]
        except KeyError:
            pass
        obj = getattr(self._module, name)
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == self._module.__name__:
            obj = self._wrap(obj)
        self._cache[name] = obj
        return obj


class Tracer:
    """Records spans and counts for one traced pass of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.wrapper = array("d")  # wrapper time around a span's children
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.streams: list = []
        self._restore: list = []
        self._cells: dict = {}

    # -- spans ------------------------------------------------------------
    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    @contextmanager
    def region(self, name: str, layer: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name, layer))
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.end[idx] = time.monotonic()
            self.start[idx] = t0
            self._stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.wrapper.append(0.0)
        self._stack.append(idx)
        return idx

    def spanned(self, fn):
        """`fn` wrapped in a span named `<module>.<function>`."""
        module = fn.__module__.split(".", 1)[1]
        nid = self._intern(f"{module}.{fn.__name__}", layer_of(module, fn.__name__))
        on_return = self._counter_for(module, fn)
        clock = time.monotonic
        end, start, own, stack = self.end, self.start, self.wrapper, self._stack
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end, add_own = start.append, end.append, own.append
        push, pop = stack.append, stack.pop
        count = self.name_id.__len__

        # `_open` inlined: on verify-scalar this wrapper runs ~0.86M times a pass
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            idx = count()
            parent = stack[-1]
            add_name(nid)
            add_parent(parent)
            add_start(0.0)
            add_end(0.0)
            add_own(0.0)
            push(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = end[idx] = clock()
                start[idx] = t0
                pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            if parent >= 0:  # the wrapper's own time, taken out of the caller's self time
                own[parent] += (t0 - entered) + (clock() - t1)
            return out

        return wrapper

    # -- counts taken from call arguments and return values ---------------
    def _counter_for(self, module: str, fn):
        counts = self.counts
        name = fn.__name__
        if module == "process" and (name.startswith("batch_") or name.startswith("mvpp_")):
            sig = inspect.signature(fn)
            key = "process.batch.steps" if name.startswith("batch_") else "process.scalar.steps"

            def steps(args, kwargs, out):
                bound = sig.bind(*args, **kwargs).arguments
                if "n" in bound and "reps" in bound:
                    counts[key] += int(bound["n"]) * int(bound["reps"])
                elif "n" in bound:
                    counts[key] += int(bound["n"])
                else:  # batch_exact_colour_samples: one draw per output entry
                    counts[key] += int(np.asarray(out).size)

            return steps
        if module == "trees" and name == "lca":

            def lca(args, kwargs, out):
                counts["trees.lca_calls"] += 1

            return lca
        if module == "trees":
            from mvpp.trees import GrowingTree

            def nodes(args, kwargs, out):
                tree = out[0] if isinstance(out, tuple) and out else out
                if isinstance(tree, GrowingTree):
                    counts["trees.nodes"] += tree.n_nodes

            return nodes
        if module == "stats" and name == "ks_statistic":
            from mvpp.stats import WeightedSample

            def ks(args, kwargs, out):
                sample = args[0] if args else kwargs["sample"]
                if isinstance(sample, WeightedSample):
                    values = [p[0] for p in sample.points]
                else:
                    values = sample
                counts["stats.ks_calls"] += 1
                counts["stats.cdf_evals"] += int(np.unique(np.asarray(values, dtype=float)).size)

            return ks
        if module == "stats" and name == "ks_two_sample":

            def ks2(args, kwargs, out):
                counts["stats.ks_calls"] += 1

            return ks2
        if module == "oracle":

            def outcomes(args, kwargs, out):
                counts["oracle.outcomes"] += _outcome_count(out)

            return outcomes
        if module == "randomness" and name == "derive_stream":
            streams = self.streams

            def stream(args, kwargs, out):
                counts["randomness.streams"] += 1
                streams.append(out)

            return stream
        return None

    def draw_blocks(self) -> int:
        """Philox blocks consumed by every stream created during the pass.
        A fresh stream starts at counter 0; reading the state draws nothing."""
        total = 0
        for s in self.streams:
            counter = s._gen.bit_generator.state["state"]["counter"]
            total += sum(int(c) << (64 * i) for i, c in enumerate(counter))
        return total

    # -- installing and removing the wrappers -----------------------------
    def install(self, modules) -> None:
        """Span cross-layer calls among `modules` and count per-draw calls."""
        for importer in modules:
            for attr, obj in list(vars(importer).items()):
                if attr.startswith("_"):
                    continue
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("mvpp.")
                    and obj.__module__ != importer.__name__
                ):
                    self._rebind(importer, attr, self.spanned(obj))
                elif (
                    inspect.ismodule(obj)
                    and obj.__name__.startswith("mvpp.")
                    and obj is not importer
                ):
                    self._rebind(importer, attr, _ModuleView(obj, self.spanned))
        self._count_scalar_draws()
        self._count_kernel_samples()

    def uninstall(self) -> None:
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
        self._cells.clear()
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def _rebind(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _count_scalar_draws(self) -> None:
        from mvpp.randomness import RngStream

        cell = self._cells["randomness.scalar_calls"] = [0]
        for attr in _SCALAR_DRAWS:

            def counted(self_, *args, _fn=getattr(RngStream, attr), **kwargs):
                cell[0] += 1
                return _fn(self_, *args, **kwargs)

            self._rebind(RngStream, attr, counted)

    def _count_kernel_samples(self) -> None:
        import mvpp.kernels as kernels

        cell = self._cells["kernels.sample_calls"] = [0]
        for obj in list(vars(kernels).values()):
            if (
                inspect.isclass(obj)
                and issubclass(obj, kernels.ReplacementKernel)
                and "sample" in vars(obj)
            ):

                def counted(self_, x, s, _fn=vars(obj)["sample"]):
                    cell[0] += 1
                    return _fn(self_, x, s)

                self._rebind(obj, "sample", counted)

    # -- results ----------------------------------------------------------
    def layer_self_times(self) -> dict:
        """Self time per layer: span time minus the time of child spans and
        minus the wrapper time around them."""
        n = len(self.name_id)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            out[self.layers[self.name_id[i]]] += dur[i] - child[i] - self.wrapper[i]
        return out

    def wrapper_seconds(self) -> float:
        """Time the wrappers spent outside the calls they wrap."""
        return sum(self.wrapper)

    def span_errors(self, window: tuple) -> list:
        """Spans that are not closed, that end before they start, that lie
        outside their parent, or (for root spans) outside `window`, the pass
        as timed by its caller.  Also an open span left on the stack."""
        errors = [f"{len(self._stack) - 1} spans still open"] if len(self._stack) != 1 else []
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        root = parent < 0
        lo = np.where(root, window[0], start[parent])
        hi = np.where(root, window[1], end[parent])
        bad = ~((start > 0) & (start <= end) & (start >= lo) & (end <= hi))
        for i in np.flatnonzero(bad)[:10]:
            name = self.names[self.name_id[i]]
            errors.append(f"span {i} ({name}): [{start[i]}, {end[i]}] not inside [{lo[i]}, {hi[i]}]")
        return errors

    def span_seconds(self, name: str) -> float:
        """Total inclusive time of the spans called `name`."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.name_id)) if self.name_id[i] == nid
        )

    def write_spans(self, path) -> None:
        """One CSV row per span: index, name, start, end, parent, run id."""
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,run_id\n")
            for i in range(len(self.name_id)):
                f.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.run_id}\n"
                )


def _outcome_count(out) -> int:
    """Outcomes of the exact laws an `oracle` call returned."""
    if hasattr(out, "probs"):
        return len(out.probs)
    if isinstance(out, dict):
        return sum(_outcome_count(v) for v in out.values())
    if isinstance(out, (tuple, list)):
        return sum(_outcome_count(v) for v in out)
    return 0
