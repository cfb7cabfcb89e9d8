"""Result collection and post-run analysis.

A query's outcome has one representation: a row of a :class:`ColumnStore`
of NumPy arrays.  :class:`ResultCollector` appends one row tuple per query
(and keeps online sufficient statistics, O(1) per query, for live metrics
while the simulation runs); :meth:`ResultCollector.columns` turns the rows
into the store, and :class:`SimulationResult` reads every metric — summary
scalars, latency percentiles, the violation/demand/FID time series — from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.query import Query, QueryStage
from repro.metrics.accumulators import GaussianStats, P2Quantile, StreamingMoments
from repro.metrics.fid import frechet_from_moments, windowed_fid
from repro.metrics.latency import LatencyStats
from repro.metrics.slo import SLOReport
from repro.models.dataset import QueryDataset
from repro.models.generation import GeneratedImage

#: Integer codes for :class:`QueryStage` in the column store.
STAGE_CODES = {QueryStage.LIGHT: 0, QueryStage.HEAVY: 1, QueryStage.DROPPED: 2}
_DROPPED = STAGE_CODES[QueryStage.DROPPED]
_NAN = float("nan")

#: Layout of one collector row: (column name, dtype) in tuple order.
ROW_COLUMNS = (
    ("query_id", np.int64),
    ("arrival", float),
    ("deadline", float),
    ("completion", float),
    ("stage", np.int8),
    ("variant", object),
    ("quality", float),
    ("confidence", float),
    ("deferred", bool),
    ("retries", np.int32),
)


@dataclass
class ControlSnapshot:
    """One Controller decision, recorded for the time-series figures."""

    time: float
    threshold: float
    num_light: int
    num_heavy: int
    light_batch: int
    heavy_batch: int
    demand_estimate: float
    feasible: bool


@dataclass(frozen=True)
class ColumnStore:
    """Per-query measurements as parallel NumPy columns.

    One row per query that entered the system, in the order the collector
    saw each query's terminal ``complete``/``drop``.  Dropped queries carry
    NaN completion/latency/quality/confidence and a ``None`` variant.  Every
    completed query returned an image, so ``features`` holds exactly one row
    per completed row, in row order.
    """

    query_id: np.ndarray  # int64
    arrival: np.ndarray  # float, arrival time
    deadline: np.ndarray  # float, absolute SLO deadline
    completion: np.ndarray  # float, NaN for dropped queries
    stage: np.ndarray  # int8 STAGE_CODES
    variant: np.ndarray  # object, variant name (None for dropped queries)
    quality: np.ndarray  # float, NaN where unknown
    confidence: np.ndarray  # float, NaN where absent
    deferred: np.ndarray  # bool
    retries: np.ndarray  # int32, requeues this query survived (0 = none)
    features: np.ndarray  # (n_completed, d) float

    @classmethod
    def empty(cls, feature_dim: int) -> "ColumnStore":
        """A store with no rows."""
        return cls.from_rows([], [], feature_dim)

    @classmethod
    def from_rows(
        cls, rows: List[tuple], features: List[np.ndarray], feature_dim: int
    ) -> "ColumnStore":
        """Build the columns from :data:`ROW_COLUMNS`-shaped row tuples.

        One ``np.array`` call per column; ``features`` holds one vector per
        completed row, in row order.
        """
        columns = zip(*rows) if rows else [()] * len(ROW_COLUMNS)
        return cls(
            **{name: np.array(col, dtype=dt) for (name, dt), col in zip(ROW_COLUMNS, columns)},
            features=np.stack(features) if features else np.zeros((0, feature_dim)),
        )

    @classmethod
    def concat(cls, stores: List["ColumnStore"], feature_dim: int) -> "ColumnStore":
        """Concatenate stores row-wise (collector chunks, shard merge).

        Values are copied, never recomputed, so concatenating the per-epoch /
        per-region chunks a sharded run ships reproduces the exact arrays of
        a serial run — which is what lets sharded summaries stay
        byte-identical to serial ones.
        """
        if not stores:
            return cls.empty(feature_dim)
        if len(stores) == 1:
            return stores[0]
        return cls(
            **{
                f.name: np.concatenate([getattr(store, f.name) for store in stores])
                for f in fields(cls)
            }
        )

    def __len__(self) -> int:
        return len(self.arrival)

    # -------------------------------------------------------- derived masks
    @property
    def dropped(self) -> np.ndarray:
        """Boolean mask of dropped queries."""
        return self.stage == _DROPPED

    @property
    def completed(self) -> np.ndarray:
        """Boolean mask of queries that received a response."""
        return ~self.dropped

    @property
    def latency(self) -> np.ndarray:
        """End-to-end latency per query (NaN for dropped queries)."""
        return self.completion - self.arrival

    @property
    def violated(self) -> np.ndarray:
        """Boolean mask of SLO violations (dropped or completed late)."""
        late = np.zeros(len(self), dtype=bool)
        done = self.completed
        late[done] = self.completion[done] > self.deadline[done]
        return late | self.dropped


class ResultCollector:
    """Sink of the data path: one column-store row per query, plus online
    accumulators maintained as queries finish.

    ``complete``/``drop`` append one row tuple (layout :data:`ROW_COLUMNS`)
    and, for a completed query, its image's feature vector.  :meth:`flush`
    turns the pending rows into a :class:`ColumnStore` chunk and
    :meth:`columns` returns every row so far as one store.  The streaming
    accumulators (:class:`~repro.metrics.accumulators.GaussianStats` over
    response features, :class:`~repro.metrics.accumulators.StreamingMoments`
    + :class:`~repro.metrics.accumulators.P2Quantile` over latency) expose
    O(1) live metrics mid-run.
    """

    def __init__(self, dataset: QueryDataset) -> None:
        self.dataset = dataset
        self._feature_dim = dataset.real_features.shape[1]
        self._rows: List[tuple] = []
        self._features: List[np.ndarray] = []
        self._chunks: List[ColumnStore] = []
        self._violations_window = 0
        self._completions_window = 0
        # Online accumulators for live metrics.
        self.feature_stats = GaussianStats(self._feature_dim)
        self.latency_moments = StreamingMoments()
        self.latency_p99 = P2Quantile(0.99)
        self._completed = 0
        self._dropped = 0
        self._violated = 0
        self._heavy = 0
        #: query_id -> requeue count for queries currently being retried;
        #: popped into the query's row at completion/drop time.
        self._retries: Dict[int, int] = {}

    # ------------------------------------------------------------- data path
    def complete(
        self,
        query: Query,
        image: GeneratedImage,
        stage: QueryStage,
        confidence: Optional[float],
        deferred: bool,
        completion_time: float,
    ) -> None:
        """Record a completed query."""
        deadline = query.deadline
        self._rows.append(
            (
                query.query_id,
                query.arrival_time,
                deadline,
                completion_time,
                STAGE_CODES[stage],
                image.variant_name,
                image.quality,
                _NAN if confidence is None else confidence,
                deferred,
                self._retries.pop(query.query_id, 0),
            )
        )
        self._features.append(image.features)
        self._completions_window += 1
        self._completed += 1
        if stage == QueryStage.HEAVY:
            self._heavy += 1
        if completion_time > deadline:
            self._violations_window += 1
            self._violated += 1
        latency = completion_time - query.arrival_time
        self.latency_moments.add(latency)
        self.latency_p99.add(latency)
        self.feature_stats.add(image.features)

    def drop(self, query: Query) -> None:
        """Record a dropped query."""
        self._rows.append(
            (
                query.query_id,
                query.arrival_time,
                query.deadline,
                _NAN,
                _DROPPED,
                None,
                _NAN,
                _NAN,
                False,
                self._retries.pop(query.query_id, 0),
            )
        )
        self._violations_window += 1
        self._dropped += 1

    def record_retry(self, query: Query) -> None:
        """Count one recovery requeue for ``query`` (fault-injection path).

        The query stays *open* — exactly one terminal ``complete``/``drop``
        row is ever written for it, with the accumulated retry count, so
        retries never inflate query totals and latency spans first arrival to
        final completion.
        """
        self._retries[query.query_id] = self._retries.get(query.query_id, 0) + 1

    # ----------------------------------------------------------- column view
    def flush(self) -> None:
        """Move the pending rows into one :class:`ColumnStore` chunk.

        A sharded region calls this at every barrier, so per-query Python
        tuples never outlive one epoch; only the compact chunks persist.
        """
        if self._rows:
            chunk = ColumnStore.from_rows(self._rows, self._features, self._feature_dim)
            self._chunks.append(chunk)
            self._rows = []
            self._features = []

    def columns(self) -> ColumnStore:
        """Every row recorded so far, as one store (idempotent)."""
        self.flush()
        merged = ColumnStore.concat(self._chunks, self._feature_dim)
        self._chunks = [merged]
        return merged

    # ----------------------------------------------------------- control path
    @property
    def completed_count(self) -> int:
        """Cumulative completed queries (live view, O(1))."""
        return self._completed

    @property
    def dropped_count(self) -> int:
        """Cumulative dropped queries (live view, O(1))."""
        return self._dropped

    @property
    def violated_count(self) -> int:
        """Cumulative completed-but-late queries (live view, O(1))."""
        return self._violated

    @property
    def heavy_count(self) -> int:
        """Cumulative heavy-model completions (live view, O(1))."""
        return self._heavy

    def window_stats(self) -> Tuple[int, int]:
        """(violations, completions) since the last call; resets the counters."""
        stats = (self._violations_window, self._completions_window)
        self._violations_window = 0
        self._completions_window = 0
        return stats

    # ------------------------------------------------------------ live views
    def running_fid(self) -> float:
        """FID of all responses so far, from the streaming sufficient stats.

        O(d^2) regardless of how many queries have completed: the generated
        moments come from the online :class:`GaussianStats` and the reference
        moments are cached on the dataset.
        """
        if self.feature_stats.count < 2:
            return float("nan")
        return frechet_from_moments(
            self.feature_stats.mean, self.feature_stats.cov(), self.dataset.real_moments
        )

    def running_summary(self) -> Dict[str, float]:
        """O(1) live headline metrics (usable while the run is in flight)."""
        total = self._completed + self._dropped
        return {
            "total_queries": float(total),
            "completed": float(self._completed),
            "dropped": float(self._dropped),
            "slo_violation_ratio": (self._violated + self._dropped) / total if total else 0.0,
            "deferral_rate": self._heavy / self._completed if self._completed else 0.0,
            "mean_latency": self.latency_moments.mean if self._completed else float("nan"),
            "p99_latency": self.latency_p99.value,
            "fid": self.running_fid(),
        }


@dataclass
class SimulationResult:
    """Everything measured during one serving simulation run.

    Every metric reads the :class:`ColumnStore` ``cols`` (the collector's
    :meth:`ResultCollector.columns`, or a shard merge of region stores).
    """

    cols: ColumnStore
    dataset: QueryDataset
    slo: float
    duration: float
    control_history: List[ControlSnapshot] = field(default_factory=list)
    allocator_solve_times: List[float] = field(default_factory=list)
    system_name: str = "system"
    #: Epoch-by-epoch control-plane samples when an online re-planner was
    #: attached (:class:`~repro.core.replanner.EpochSnapshot` items); empty
    #: for runs without one.
    replan_history: List[object] = field(default_factory=list)
    #: Time-integrated cost of the fleet the run *actually held* (A100-hours,
    #: from the controller's :class:`~repro.core.pricing.CostLedger`) — not
    #: the construction-time ``FleetSpec.total_cost``, so mid-run revocations
    #: and autoscale transitions show up in the bill.
    fleet_cost: float = 0.0

    # ------------------------------------------------------------ accounting
    @property
    def total_queries(self) -> int:
        """Number of queries that entered the system."""
        return len(self.cols)

    @property
    def dropped_count(self) -> int:
        """Number of dropped queries."""
        return int(self.cols.dropped.sum())

    def slo_report(self) -> SLOReport:
        """Aggregate SLO accounting for the whole run."""
        cols = self.cols
        completed = int(cols.completed.sum())
        violated = int((cols.violated & cols.completed).sum())
        return SLOReport(
            total=len(cols),
            completed=completed,
            violated=violated,
            dropped=len(cols) - completed,
        )

    @property
    def slo_violation_ratio(self) -> float:
        """Fraction of queries that missed their SLO or were dropped."""
        return self.slo_report().violation_ratio

    @property
    def deferral_rate(self) -> float:
        """Fraction of completed queries answered by the heavy model."""
        cols = self.cols
        completed = int(cols.completed.sum())
        if not completed:
            return 0.0
        heavy = int((cols.stage == STAGE_CODES[QueryStage.HEAVY]).sum())
        return heavy / completed

    def latency_stats(self) -> LatencyStats:
        """Latency summary over completed queries (single-array, no copies)."""
        latencies = self.cols.latency
        return LatencyStats.from_latencies(latencies[np.isfinite(latencies)])

    # --------------------------------------------------------------- quality
    def response_features(self) -> np.ndarray:
        """Feature matrix of all returned images."""
        return self.cols.features

    def fid(self) -> float:
        """FID of the returned images against the dataset's real features."""
        feats = self.response_features()
        if len(feats) < 2:
            return float("nan")
        stats = GaussianStats.from_features(feats)
        return frechet_from_moments(stats.mean, stats.cov(), self.dataset.real_moments)

    def mean_quality(self) -> float:
        """Average latent quality of returned images (oracle view, for tests)."""
        quality = self.cols.quality
        known = np.isfinite(quality)
        return float(quality[known].mean()) if known.any() else float("nan")

    # ------------------------------------------------------------ timeseries
    def fid_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """FID over completion-time windows (streaming, cached real moments)."""
        cols = self.cols
        if not len(cols.features):
            return np.zeros(0), np.zeros(0)
        times = cols.completion[cols.completed]
        return windowed_fid(
            times,
            cols.features,
            window=window,
            horizon=self.duration,
            real_moments=self.dataset.real_moments,
        )

    def violation_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """SLO violation ratio over arrival-time windows."""
        cols = self.cols
        edges = np.arange(0.0, self.duration + window, window)
        centers = (edges[:-1] + edges[1:]) / 2.0
        idx = np.searchsorted(edges, cols.arrival, side="right") - 1
        in_range = (idx >= 0) & (idx < len(centers))
        totals = np.bincount(idx[in_range], minlength=len(centers)).astype(float)
        bad = np.bincount(idx[in_range & cols.violated], minlength=len(centers))
        ratios = np.where(totals > 0, bad / np.maximum(totals, 1.0), 0.0)
        return centers, ratios

    def demand_timeseries(self, window: float = 20.0) -> Tuple[np.ndarray, np.ndarray]:
        """Observed arrival rate over time."""
        edges = np.arange(0.0, self.duration + window, window)
        centers = (edges[:-1] + edges[1:]) / 2.0
        counts, _ = np.histogram(self.cols.arrival, bins=edges)
        return centers, counts / window

    def threshold_timeseries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Confidence threshold chosen by the Controller over time."""
        if not self.control_history:
            return np.zeros(0), np.zeros(0)
        times = np.array([s.time for s in self.control_history])
        thresholds = np.array([s.threshold for s in self.control_history])
        return times, thresholds

    # --------------------------------------------------------------- summary
    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dict (used by the benchmark harness)."""
        stats = self.latency_stats()
        report = self.slo_report()
        return {
            "total_queries": float(report.total),
            "completed": float(report.completed),
            "fid": self.fid(),
            "slo_violation_ratio": report.violation_ratio,
            "deferral_rate": self.deferral_rate,
            "dropped": float(report.dropped),
            "mean_quality": self.mean_quality(),
            "mean_latency": stats.mean,
            "p50_latency": stats.p50,
            "p99_latency": stats.p99,
            "fleet_cost": self.fleet_cost,
        }
