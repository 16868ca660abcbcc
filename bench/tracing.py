"""Per-layer tracing from outside the program.

Each hooked function is looked up by name in the module that defines it.
Every binding of that same function object in any ``ecgraph`` module (the
defining module's own global, and each ``from .x import f``) is replaced by
one shared timing wrapper, so calls from every call site are counted and
the program itself is not edited.  A function that no longer exists after
a refactor is recorded as missing: its layer is then reported as
unmeasured instead of crashing the run.

Spans are not kept one by one: they are folded into per-name totals and
into a caller -> callee table (calls and seconds), which is the whole span
tree with the individual instances summed.  Self time of a span is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict


def _own(*names: str) -> dict[str, tuple[str, ...]]:
    """Spans named after the module and function they time."""
    return {name: (f"ecgraph.{name}",) for name in names}


# span name -> functions it times, as "module.attribute"
FUNCTION_HOOKS: dict[str, tuple[str, ...]] = {
    **_own("harness.verify", "core.color_profile", "core.min_color_degree",
           "core.load_ecg", "core.save_ecg", "reduction.edge_minimal_reduce",
           "reduction.is_edge_minimal", "bounds.triangle_bound_report",
           "bounds.mono_balance_diagnostics", "bounds.restriction_count",
           "bounds.counting_lower_bound", "matching.max_matching",
           "matching.gallai_partition", "matching.verify_partition_lemmas",
           "matching.min_vertex_cover", "rainbow.build_index",
           "rainbow.has_rainbow_triangle", "rainbow.find_book", "rainbow.find_fan",
           "rainbow.max_fan", "rainbow.max_book"),
    "harness.sample": ("ecgraph.harness._sample_colored",
                       "ecgraph.harness._sample_injective"),
    "harness.repair": ("ecgraph.harness._repair_color_degree",),
    "cli.analyze": ("ecgraph.cli._cmd_analyze",),
    "cli.reduce": ("ecgraph.cli._cmd_reduce",),
    "cli.partition": ("ecgraph.cli._cmd_partition",),
}

# span name -> (module, class, method) patched on the class itself
METHOD_HOOKS: dict[str, tuple[str, str, str]] = {
    "harness.hypothesis": ("ecgraph.harness", "Claim", "hypothesis"),
}
# counted but not timed: a graph build is part of the work of whichever
# layer asked for it, so it stays in that layer's self time
COUNT_HOOKS: dict[str, tuple[str, str, str]] = {
    "core.ColoredGraph": ("ecgraph.core", "ColoredGraph", "__init__"),
}

CONCLUSION_SPAN = "harness.conclusion"


class _Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Span aggregator plus the hooks that feed it.

    Only calls made while ``active`` is true are recorded, so the
    benchmark's own output checks, which reuse the library, stay out of
    the per-layer figures.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.active = False
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, child seconds]
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.counters.clear()

    def count(self, name: str, fn):
        stats = self.stats

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                stats[name].calls += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, name: str, fn, after=None):
        stats, edges, stack = self.stats, self.edges, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += elapsed
                st.child += frame[1]
                parent = stack[-1] if stack else None
                edge = edges[(parent[0] if parent else "<job>", name)]
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                try:
                    after(self.counters, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the call's arguments or result changed shape
                    self.missing.add(f"{name}.counters")
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, old))

    def install(self) -> None:
        """Patch every known binding; unknown ones are recorded as missing."""
        after_hooks = {
            "harness.repair": _after_repair,
            "reduction.edge_minimal_reduce": _after_reduce,
        }
        for name, paths in FUNCTION_HOOKS.items():
            found = False
            for path in paths:
                mod_name, attr = path.rsplit(".", 1)
                fn = getattr(self.modules.get(mod_name), attr, None)
                if not callable(fn):
                    continue
                found = True
                traced = self.wrap(name, fn, after_hooks.get(name))
                for module in self.modules.values():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, key, traced)
            if not found:
                self.missing.update((name, f"{name}.counters"))

        for hooks, make in ((METHOD_HOOKS, self.wrap), (COUNT_HOOKS, self.count)):
            for name, (mod_name, cls_name, meth) in hooks.items():
                cls = getattr(self.modules.get(mod_name), cls_name, None)
                fn = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if fn is None:
                    self.missing.add(name)
                    continue
                self._set(cls, meth, make(name, fn))

        # conclusions are stored on the registered claims, so each claim
        # in the registry is swapped for a copy with a traced conclusion
        harness = self.modules.get("ecgraph.harness")
        claims = getattr(harness, "CLAIMS", None)
        if isinstance(claims, dict) and claims:
            for cid, claim in list(claims.items()):
                try:
                    traced = dataclasses.replace(
                        claim, conclusion=self.wrap(CONCLUSION_SPAN, claim.conclusion))
                except (TypeError, AttributeError):
                    continue
                claims[cid] = traced
                self._undo.append((claims, cid, claim))
        else:
            self.missing.add(CONCLUSION_SPAN)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals of the spans recorded since the last reset."""
        return {
            "spans": {name: {"calls": st.calls, "total_s": st.total,
                             "self_s": st.total - st.child}
                      for name, st in self.stats.items()},
            "edges": {f"{a} -> {b}": {"calls": c, "total_s": t}
                      for (a, b), (c, t) in self.edges.items()},
            "counters": dict(self.counters),
        }


def _after_repair(counters, args, result) -> None:
    if result is None:
        counters["harness.repair.exhausted"] += 1
    else:
        counters["harness.repair.edges_added"] += result.edge_count - args[0].edge_count


def _after_reduce(counters, args, result) -> None:
    counters["reduction.edges_removed"] += args[0].edge_count - result.edge_count
