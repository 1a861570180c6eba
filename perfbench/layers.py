"""Per-layer spans and exact work counts for a traced ratesched sweep.

Spans are recorded from outside the library: ``traced()`` replaces each
public function at the name through which its callers look it up, and puts
the originals back on exit. A name bound in the defining module alone would
miss calls made through another module's binding, so for example
``check_targets`` is wrapped both in ``feasibility`` (used by
``check_rate_vector``) and in ``allocation`` (used by ``continuous_optimal``),
and the MLA/MUA allocators are wrapped inside ``scheduling._ALLOCATORS``,
through which ``schedule()`` dispatches.

Every span records its name, the span that was open when it started, and its
start and end times. Spans stay in memory; ``span_stats`` and ``layer_metrics`` turn them
into self times (duration minus the time covered by child spans) and counts.
"""

from __future__ import annotations

import contextlib
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from ratesched import allocation, experiment, feasibility, scheduling


class Tracer:
    """In-memory span table plus exact counters for one traced sweep."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._open = [-1]

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, label=None, observe=None):
        """``fn`` recording one span per call.

        ``label(args)`` may refine the span name (the kernel's link count);
        ``observe(result, counts)`` may count properties of the result.
        """
        fixed = self._nid(name) if label is None else None

        def traced_call(*args, **kwargs):
            nid = fixed if label is None else self._nid(name + label(args))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf_counter()
                self._open.pop()
                self.counts[name + ".raised"] += 1
                raise
            self.end[idx] = perf_counter()
            self._open.pop()
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced_call


def _kernel_label(args) -> str:
    k = args[0].n
    return ".k1" if k == 1 else ".k2" if k == 2 else ".k3plus"


def _count_verdict(report, counts):
    counts["feasibility.verdict." + report.verdict.name] += 1


def _count_feasible(result, counts):
    counts["allocation.feasible"] += bool(result.feasible)


def _count_reference(result, counts):
    counts["experiment.ref." + result[2]] += 1


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every layer's public functions for the duration of the block."""
    mla = scheduling._ALLOCATORS["sna-mla"]
    mua = scheduling._ALLOCATORS["sna-mua"]
    w = tracer.wrap
    kernel = w("feasibility.kernel", feasibility.min_power_vector, label=_kernel_label)
    check = w("feasibility.check", feasibility.check_targets, observe=_count_verdict)
    lttf = w("allocation.lttf", scheduling.lttf, observe=_count_feasible)
    cont = w("allocation.continuous", scheduling.continuous_optimal, observe=_count_feasible)
    patches = [
        (feasibility, "min_power_vector", kernel),
        (feasibility, "check_targets", check),
        (allocation, "check_targets", check),
        (scheduling, "lttf", lttf),
        (scheduling, "continuous_optimal", cont),
        (scheduling.SubsetPricer, "price", w("scheduling.price", scheduling.SubsetPricer.price)),
        (scheduling, "sna_assign", w("scheduling.sna_assign", scheduling.sna_assign)),
        (scheduling._ALLOCATORS, "sna-mla", w("scheduling.mla", mla)),
        (scheduling._ALLOCATORS, "sna-mua", w("scheduling.mua", mua)),
        (experiment, "schedule", w("scheduling.schedule", experiment.schedule)),
        (experiment, "exhaustive_schedule", w("scheduling.exhaustive", experiment.exhaustive_schedule)),
        (experiment, "generate_topology", w("channel.generate_topology", experiment.generate_topology)),
        (experiment, "realize_channel", w("channel.realize_channel", experiment.realize_channel)),
        (experiment, "validate_instance", w("model.validate_instance", experiment.validate_instance)),
        (experiment, "_run_seed", w("experiment.seed", experiment._run_seed, observe=_count_reference)),
        (experiment, "run_experiment", w("experiment.run", experiment.run_experiment)),
    ]
    saved = []
    try:
        for owner, key, wrapper in patches:
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = wrapper
            else:
                saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "feasibility.kernel.calls",
    "feasibility.kernel.calls_k1",
    "feasibility.kernel.calls_k2",
    "feasibility.kernel.calls_k3plus",
    "feasibility.check.calls",
    "feasibility.verdict.FEASIBLE",
    "feasibility.verdict.INFEASIBLE_SPECTRAL",
    "feasibility.verdict.INFEASIBLE_MAX_POWER",
    "feasibility.verdict.INFEASIBLE_DELAY",
    "feasibility.verdict.INFEASIBLE_ENERGY",
    "allocation.continuous.calls",
    "allocation.continuous.probes",
    "allocation.lttf.calls",
    "allocation.lttf.checks",
    "allocation.feasible",
    "scheduling.price.calls",
    "scheduling.price.misses",
    "scheduling.sna_assign.calls",
    "scheduling.mla.calls",
    "scheduling.mua.calls",
    "scheduling.exhaustive.calls",
    "experiment.seed.calls",
    "experiment.seed.kept",
    "experiment.ref.exhaustive",
)


# Counts that are nonzero on every workload: each of these layers always runs.
ALWAYS_WORKING = (
    "feasibility.kernel.calls",
    "feasibility.kernel.calls_k1",
    "feasibility.kernel.calls_k2",
    "feasibility.kernel.calls_k3plus",
    "feasibility.check.calls",
    "allocation.continuous.calls",
    "allocation.lttf.calls",
    "scheduling.price.calls",
    "scheduling.price.misses",
    "scheduling.sna_assign.calls",
    "scheduling.mla.calls",
    "scheduling.mua.calls",
    "experiment.seed.calls",
)


def span_stats(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds, and child-call counts."""
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - covered
    n_names = len(tracer.names)
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    self_sum = np.bincount(nid, weights=self_time, minlength=n_names)
    parent_nid = np.where(nested, nid[np.maximum(parent, 0)], -1)
    stats = {
        name: {"calls": int(calls[k]), "total_s": float(total[k]), "self_s": float(self_sum[k])}
        for k, name in enumerate(tracer.names)
    }

    def under(child: str, parents: tuple[str, ...]) -> int:
        if child not in tracer._name_ids:
            return 0
        pids = [tracer._name_ids[p] for p in parents if p in tracer._name_ids]
        mask = (nid == tracer._name_ids[child]) & np.isin(parent_nid, pids)
        return int(mask.sum())

    seed_id = tracer._name_ids.get("experiment.seed")
    seed_ms = (dur[nid == seed_id] * 1e3).tolist() if seed_id is not None else []
    return {
        "spans": stats,
        "probes": under("feasibility.check", ("allocation.continuous",)),
        "lttf_checks": under("feasibility.check", ("allocation.lttf",)),
        "price_misses": under("allocation.lttf", ("scheduling.price",))
        + under("allocation.continuous", ("scheduling.price",)),
        "seed_ms": seed_ms,
    }


def exact_counts(tracer: Tracer, stats: dict) -> dict:
    """The counters of EXACT_COUNTS for one traced sweep (integers)."""
    spans = stats["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    out = {
        "feasibility.kernel.calls_k1": calls("feasibility.kernel.k1"),
        "feasibility.kernel.calls_k2": calls("feasibility.kernel.k2"),
        "feasibility.kernel.calls_k3plus": calls("feasibility.kernel.k3plus"),
        "feasibility.check.calls": calls("feasibility.check"),
        "allocation.continuous.calls": calls("allocation.continuous"),
        "allocation.continuous.probes": stats["probes"],
        "allocation.lttf.calls": calls("allocation.lttf"),
        "allocation.lttf.checks": stats["lttf_checks"],
        "allocation.feasible": tracer.counts["allocation.feasible"],
        "scheduling.price.calls": calls("scheduling.price"),
        "scheduling.price.misses": stats["price_misses"],
        "scheduling.sna_assign.calls": calls("scheduling.sna_assign"),
        "scheduling.mla.calls": calls("scheduling.mla"),
        "scheduling.mua.calls": calls("scheduling.mua"),
        "scheduling.exhaustive.calls": calls("scheduling.exhaustive"),
        "experiment.seed.calls": calls("experiment.seed"),
        "experiment.seed.kept": calls("experiment.seed") - tracer.counts["experiment.seed.raised"],
        "experiment.ref.exhaustive": tracer.counts["experiment.ref.exhaustive"],
    }
    out["feasibility.kernel.calls"] = (
        out["feasibility.kernel.calls_k1"]
        + out["feasibility.kernel.calls_k2"]
        + out["feasibility.kernel.calls_k3plus"]
    )
    for verdict in feasibility.Verdict:
        key = "feasibility.verdict." + verdict.name
        out[key] = tracer.counts[key]
    return {key: out[key] for key in EXACT_COUNTS}


def layer_metrics(tracers: list[Tracer], untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics over all traced sweeps of a run.

    Times are summed over the sweeps; counts are exact sums. Keys carry the
    unit in their value tuple: ``name -> (value, unit)``.
    """
    counts: Counter = Counter()
    spans: dict[str, dict] = {}
    seed_ms: list[float] = []
    for tracer in tracers:
        stats = span_stats(tracer)
        counts.update(exact_counts(tracer, stats))
        seed_ms.extend(stats["seed_ms"])
        for name, s in stats["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solver_calls = counts["allocation.lttf.calls"] + counts["allocation.continuous.calls"]
    deciles = statistics.quantiles(seed_ms, n=10) if len(seed_ms) >= 2 else [0.0] * 9
    m = {name: (counts[name], "count") for name in EXACT_COUNTS}
    kernel_self = 0.0
    for k in ("k1", "k2", "k3plus"):
        name = "feasibility.kernel." + k
        kernel_self += span(name, "self_s")
        m["feasibility.kernel.us_per_call_" + k] = (
            1e6 * ratio(span(name, "total_s"), span(name, "calls")), "us")
    m.update(
        {
            "feasibility.kernel.self_s": (kernel_self, "s"),
            "feasibility.check.self_s": (span("feasibility.check", "self_s"), "s"),
            "allocation.continuous.self_s": (span("allocation.continuous", "self_s"), "s"),
            "allocation.continuous.total_s": (span("allocation.continuous", "total_s"), "s"),
            "allocation.continuous.probes_per_call": (
                ratio(counts["allocation.continuous.probes"], counts["allocation.continuous.calls"]),
                "count/call"),
            "allocation.lttf.self_s": (span("allocation.lttf", "self_s"), "s"),
            "allocation.lttf.total_s": (span("allocation.lttf", "total_s"), "s"),
            "allocation.lttf.checks_per_call": (
                ratio(counts["allocation.lttf.checks"], counts["allocation.lttf.calls"]), "count/call"),
            "allocation.feasible_share": (ratio(counts["allocation.feasible"], solver_calls), "share"),
            "scheduling.price.hit_ratio": (
                1.0 - ratio(counts["scheduling.price.misses"], counts["scheduling.price.calls"]), "share"),
            "scheduling.price.self_s": (span("scheduling.price", "self_s"), "s"),
            "scheduling.sna_assign.total_s": (span("scheduling.sna_assign", "total_s"), "s"),
            "scheduling.mla.total_s": (span("scheduling.mla", "total_s"), "s"),
            "scheduling.mla.self_s": (span("scheduling.mla", "self_s"), "s"),
            "scheduling.mua.total_s": (span("scheduling.mua", "total_s"), "s"),
            "scheduling.mua.self_s": (span("scheduling.mua", "self_s"), "s"),
            "scheduling.exhaustive.self_s": (span("scheduling.exhaustive", "self_s"), "s"),
            "scheduling.exhaustive.total_s": (span("scheduling.exhaustive", "total_s"), "s"),
            "experiment.seed_ms.p50": (statistics.median(seed_ms) if seed_ms else 0.0, "ms"),
            "experiment.seed_ms.p90": (deciles[8], "ms"),
            "experiment.seed_ms.n": (len(seed_ms), "count"),
            "experiment.kept_share": (
                ratio(counts["experiment.seed.kept"], counts["experiment.seed.calls"]), "share"),
            "experiment.exhaustive_ref_share": (
                ratio(counts["experiment.ref.exhaustive"], counts["experiment.seed.kept"]), "share"),
            "experiment.self_s": (span("experiment.run", "self_s") + span("experiment.seed", "self_s"), "s"),
            "channel.draw_s": (
                span("channel.generate_topology", "total_s") + span("channel.realize_channel", "total_s"), "s"),
            "model.validate_s": (span("model.validate_instance", "total_s"), "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_share": (ratio(traced_wall, untraced_wall) - 1.0, "share"),
        }
    )
    return m


def save_spans(path, tracers: list[Tracer]) -> None:
    """Write every span of every traced sweep to one compressed ``.npz``."""
    names = sorted({n for t in tracers for n in t.names})
    index = {n: k for k, n in enumerate(names)}
    cols = {"sweep": [], "name": [], "parent": [], "start": [], "end": []}
    for sweep, t in enumerate(tracers):
        remap = np.array([index[n] for n in t.names], dtype=np.int32)
        nid = np.frombuffer(t.name_id, dtype=np.int32)
        cols["sweep"].append(np.full(len(nid), sweep, dtype=np.int32))
        cols["name"].append(remap[nid] if len(nid) else nid)
        cols["parent"].append(np.frombuffer(t.parent, dtype=np.int32))
        cols["start"].append(np.frombuffer(t.start, dtype=np.float64))
        cols["end"].append(np.frombuffer(t.end, dtype=np.float64))
    np.savez_compressed(
        path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()}
    )

