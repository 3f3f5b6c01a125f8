"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``tempfair`` module that holds a reference to it (the CLI and the
layers import each other's functions by name), and each solver in the
registry with a copy whose ``run`` is wrapped.  ``Tracer.uninstall`` puts
every original back.  A wrapper records one span (name, start, end,
parent) and the counts that can be read off the call's arguments and
result.  Spans are kept in flat arrays and reduced to per-layer totals at
the end; a layer's self time is its span durations minus the time its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from collections import Counter
from time import perf_counter

CONCEPT_KINDS = ("tef1", "tefx", "atefx", "tmms")
SINGLE_ROUND = ("round_robin", "envy_cycle_elimination", "envy_ordered_pick_rounds")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _violation_name(args, kwargs):
    return f"fairness.prefix_violation.{_arg(args, kwargs, 2, 'concept').kind}"


def _share_name(args, kwargs):
    return "fairness.mms_share.p2" if _arg(args, kwargs, 1, "n_parts") <= 2 else "fairness.mms_share.p3"


# (module, attribute, span name or a function of the call's arguments)
TARGETS = [
    ("tempfair.model", "load_instance", "model.load_instance"),
    ("tempfair.model", "load_allocation", "model.load_allocation"),
    ("tempfair.model", "instance_to_json", "model.to_json"),
    ("tempfair.model", "allocation_to_json", "model.to_json"),
    ("tempfair.model", "classify", "model.classify"),
    ("tempfair.model", "prefix", "model.prefix"),
    ("tempfair.model", "validate", "model.validate"),
    ("tempfair.fairness", "check_temporal", "fairness.check_temporal"),
    ("tempfair.fairness", "prefix_violation", _violation_name),
    ("tempfair.fairness", "mms_share", _share_name),
    ("tempfair.search", "search", "search.search"),
    *[("tempfair.single_round", f, f"single_round.{f}") for f in SINGLE_ROUND],
    ("tempfair.generators", "generate", "generators.generate"),
    ("tempfair.verification", "verify_counterexamples", "verification.verify_counterexamples"),
    ("tempfair.cli", "main", "cli.main"),
]


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._solvers: dict | None = None
        self._solver_entries: dict = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, observe=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        the call's arguments, ``observe(args, kwargs, result)`` counts."""
        fixed = None if callable(name) else self._name_id(name)
        spans, parents = self.span_name, self.span_parent
        starts, ends, open_ = self.span_start, self.span_end, self._open
        counts = self.counts

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(spans)
            spans.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{self.names[nid]}.raised"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_violation(self, args, kwargs, result):
        if result is not None:
            self.counts[f"{_violation_name(args, kwargs)}.hits"] += 1

    def _observe_share(self, args, kwargs, result):
        pool = len(_arg(args, kwargs, 0, "values"))
        if pool > self.counts["fairness.mms_share.pool_max"]:
            self.counts["fairness.mms_share.pool_max"] = pool

    def _observe_search(self, args, kwargs, result):
        self.counts["search.nodes"] += result.nodes_visited
        self.counts["search.space_bound"] += result.space_bound
        self.counts["search.exists"] += bool(result.exists)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``tempfair`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "prefix_violation": self._observe_violation,
            "mms_share": self._observe_share,
            "search": self._observe_search,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tempfair" or n.startswith("tempfair.")) and m is not None]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                print(f"trace: {mod_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            wrapper = self.wrap(original, name, observers.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._solvers = getattr(sys.modules.get("tempfair.solvers"), "SOLVERS", None)
        for reg_name, entry in list((self._solvers or {}).items()):
            self._solver_entries[reg_name] = entry
            self._solvers[reg_name] = dataclasses.replace(
                entry, run=self.wrap(entry.run, f"solvers.{reg_name}")
            )

    def uninstall(self) -> None:
        """Put every original function and registry entry back."""
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
        for reg_name, entry in self._solver_entries.items():
            self._solvers[reg_name] = entry
        self._solver_entries.clear()

    # -- reducing ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total duration, self time and call count."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + dur[i] - child[i]
            calls[name] += 1
        return total, own, calls

    def write_spans(self, path) -> None:
        """One line per span: name, start, end, parent index (-1 at a root)."""
        with open(path, "w") as fh:
            for i, nid in enumerate(self.span_name):
                fh.write(f"{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")

    def layer_metrics(self, solver_names) -> dict[str, float]:
        """Every per-layer metric the benchmark reports, zero where unused."""
        total, own, calls = self.totals()
        counts = self.counts
        m: dict[str, float] = {}

        def s(name):
            return own.get(name, 0.0)

        for key in ("load_instance", "load_allocation", "to_json", "classify",
                    "prefix", "validate"):
            m[f"model.{key}.s"] = s(f"model.{key}")
        m["model.classify.calls"] = calls["model.classify"]
        m["model.prefix.calls"] = calls["model.prefix"]
        m["fairness.check_temporal.s"] = s("fairness.check_temporal")
        m["fairness.check_temporal.calls"] = calls["fairness.check_temporal"]
        for kind in CONCEPT_KINDS:
            name = f"fairness.prefix_violation.{kind}"
            m[f"{name}.s"] = s(name)
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.hit_ratio"] = counts[f"{name}.hits"] / calls[name] if calls[name] else 0.0
        for parts in ("p2", "p3"):
            name = f"fairness.mms_share.{parts}"
            m[f"{name}.s"] = s(name)
            m[f"{name}.calls"] = calls[name]
        m["fairness.mms_share.pool_max"] = counts["fairness.mms_share.pool_max"]
        searches = calls["search.search"]
        m["search.search.s"] = s("search.search")
        m["search.search.calls"] = searches
        m["search.nodes"] = counts["search.nodes"]
        m["search.space_bound"] = counts["search.space_bound"]
        busy = total.get("search.search", 0.0)
        m["search.nodes_per_s"] = counts["search.nodes"] / busy if busy else 0.0
        m["search.exists_ratio"] = counts["search.exists"] / searches if searches else 0.0
        for name in solver_names:
            m[f"solvers.{name}.s"] = s(f"solvers.{name}")
        m["solvers.run.calls"] = sum(calls[f"solvers.{n}"] for n in solver_names)
        m["solvers.failures"] = sum(counts[f"solvers.{n}.raised"] for n in solver_names)
        for f in SINGLE_ROUND:
            m[f"single_round.{f}.s"] = s(f"single_round.{f}")
            m[f"single_round.{f}.calls"] = calls[f"single_round.{f}"]
        m["generators.generate.s"] = s("generators.generate")
        m["generators.generate.calls"] = calls["generators.generate"]
        m["verification.verify_counterexamples.s"] = s("verification.verify_counterexamples")
        m["cli.main.self_s"] = s("cli.main")
        return m
