"""Cross-group feature reuse driven by the grouping plan.

Buffalo's memory model (Eq. 1–2) quantifies how much of a bucket
group's input cone is shared with the rest of the batch; the training
loop as written still re-gathers those shared rows from the host for
every group.  This layer consults the plan's per-group input-node sets
(:meth:`repro.core.scheduler.SchedulePlan.input_node_sets`) *before*
the first micro-batch runs, pins the rows that later groups will
request again in the device :class:`~repro.device.feature_cache
.FeatureCache`, and releases each pin right after its last planned
use — so redundantly-requested features ride out the iteration on the
device instead of crossing PCIe once per group.

Only the modeled transfer time changes: the host-side numpy gather (and
therefore every float the model consumes) is identical with and without
reuse, which the parity tests assert exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays import unique_sorted
from repro.device.feature_cache import FeatureCache
from repro.obs.metrics import get_metrics


@dataclass
class ReusePlan:
    """Pin/unpin schedule for one iteration's bucket groups.

    Attributes:
        pin_before: per group, node ids to pin before that group's
            features load (nodes first requested here and requested
            again by a later group).
        unpin_after: per group, node ids whose last planned use is that
            group (their pins are released right after its load).
        shared_nodes: distinct nodes requested by two or more groups.
        planned_pins: distinct nodes actually scheduled for pinning
            (``<= shared_nodes`` once the pin budget caps the plan).
    """

    pin_before: list[np.ndarray] = field(default_factory=list)
    unpin_after: list[np.ndarray] = field(default_factory=list)
    shared_nodes: int = 0
    planned_pins: int = 0

    @classmethod
    def from_input_sets(
        cls,
        input_sets: list[np.ndarray],
        max_pinned_rows: int | None = None,
    ) -> "ReusePlan":
        """Build the schedule from per-group input-node id sets.

        A node is worth pinning when it appears in more than one group.
        When the candidate set exceeds ``max_pinned_rows``, nodes
        requested by the most groups win (ties broken by node id), so
        the budget goes to the rows whose re-transfer would cost most.
        """
        k = len(input_sets)
        empty = [
            np.empty(0, dtype=np.int64) for _ in range(k)
        ]
        if k < 2:
            return cls(pin_before=list(empty), unpin_after=list(empty))

        per_group = [unique_sorted(s) for s in input_sets]
        nodes = np.concatenate(per_group)
        group_of = np.concatenate(
            [
                np.full(u.size, g, dtype=np.int64)
                for g, u in enumerate(per_group)
            ]
        )
        order = np.lexsort((group_of, nodes))
        nodes = nodes[order]
        group_of = group_of[order]
        # Segment boundaries per distinct node.
        new_node = np.ones(nodes.size, dtype=bool)
        new_node[1:] = nodes[1:] != nodes[:-1]
        starts = np.flatnonzero(new_node)
        ends = np.append(starts[1:], nodes.size)
        distinct = nodes[starts]
        first_use = group_of[starts]
        last_use = group_of[ends - 1]
        uses = ends - starts

        reused = last_use > first_use
        shared_nodes = int(np.count_nonzero(reused))
        sel = np.flatnonzero(reused)
        if max_pinned_rows is not None and sel.size > max_pinned_rows:
            # Most-requested nodes first; node id breaks ties so the
            # truncation is deterministic.
            rank = np.lexsort((distinct[sel], -uses[sel]))
            sel = np.sort(sel[rank[:max_pinned_rows]])

        pin_before = list(empty)
        unpin_after = list(empty)
        for g in range(k):
            pin_before[g] = distinct[sel[first_use[sel] == g]]
            unpin_after[g] = distinct[sel[last_use[sel] == g]]
        return cls(
            pin_before=pin_before,
            unpin_after=unpin_after,
            shared_nodes=shared_nodes,
            planned_pins=int(sel.size),
        )


class FeatureReuseManager:
    """Applies a :class:`ReusePlan` to a device feature cache.

    The manager is installed on a
    :class:`~repro.core.trainer.MicroBatchTrainer` (its ``reuse``
    attribute); the trainer then routes each micro-batch's simulated
    feature transfer through :meth:`stage`, which pins ahead of the
    load and releases pins after each group's last planned use.

    The cache itself persists across iterations — global node ids stay
    valid from batch to batch, so hot rows keep paying off — while the
    pin schedule is rebuilt per iteration from the fresh plan.
    """

    def __init__(self, cache: FeatureCache) -> None:
        self.cache = cache
        self._plan: ReusePlan | None = None
        self._cursor = 0

    # ------------------------------------------------------------------
    def begin_iteration(self, input_sets_global: list[np.ndarray]) -> None:
        """Install the pin schedule for one iteration.

        Args:
            input_sets_global: per-group *global* (dataset) node ids, in
                schedule order — the plan's batch-local sets mapped
                through the batch's ``node_map``.
        """
        self._plan = ReusePlan.from_input_sets(
            input_sets_global, self.cache.max_pinned_rows
        )
        self._cursor = 0
        get_metrics().gauge(
            "buffalo.feature_cache.planned_pins",
            help="rows scheduled for cross-group pinning this iteration",
        ).set(self._plan.planned_pins)

    def stage(self, nodes_global: np.ndarray) -> float:
        """Load one group's features through the cache; returns sim s.

        Called by the trainer in schedule order; advances the pin
        cursor.  Works without :meth:`begin_iteration` too (plain
        cached loads, no pinning).
        """
        plan = self._plan
        index = self._cursor
        if plan is not None and index < len(plan.pin_before):
            self.cache.pin(plan.pin_before[index])
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        seconds = self.cache.load(nodes_global)
        if plan is not None and index < len(plan.unpin_after):
            self.cache.unpin(plan.unpin_after[index])
        self._cursor += 1

        metrics = get_metrics()
        metrics.counter(
            "buffalo.feature_cache.hits",
            help="feature rows served from the device cache",
        ).inc(self.cache.hits - hits_before)
        metrics.counter(
            "buffalo.feature_cache.misses",
            help="feature rows transferred over PCIe",
        ).inc(self.cache.misses - misses_before)
        metrics.gauge(
            "buffalo.feature_cache.pinned_rows",
            help="rows currently pinned for cross-group reuse",
        ).set(self.cache.pinned_rows)
        return seconds

    def end_iteration(self) -> None:
        """Release any leftover pins and publish the cumulative hit rate."""
        self.cache.clear_pins()
        self._plan = None
        self._cursor = 0
        get_metrics().gauge(
            "buffalo.feature_cache.hit_rate",
            help="cumulative device feature-cache hit rate",
        ).set(self.cache.hit_rate)

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate
