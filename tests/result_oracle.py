"""Test oracle for the result path: the per-record view of a run.

The runtime keeps one representation of a query's outcome, a row of
:class:`~repro.core.results.ColumnStore` appended by
:class:`~repro.core.results.ResultCollector`.  This module keeps the older
per-object view for cross-checking it:

* :class:`Record` — one plain object per query, with the brute-force
  ``latency`` / ``slo_violated`` definitions;
* :func:`from_records` — the record-list-to-columns loop the collector's
  ``columns()`` must reproduce array for array;
* :func:`feed` — drives a collector's data path with a record list;
* :func:`random_records` — randomized runs with drops, late completions,
  both stages, missing confidences and retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.query import Query, QueryStage
from repro.core.results import STAGE_CODES, ColumnStore, ResultCollector
from repro.models.generation import GeneratedImage


@dataclass
class Record:
    """The outcome of one query.  A dropped query has no completion time."""

    query: Query
    stage: QueryStage
    completion_time: Optional[float] = None
    variant: Optional[str] = None
    quality: Optional[float] = None
    features: Optional[np.ndarray] = None
    confidence: Optional[float] = None
    deferred: bool = False
    retries: int = 0

    @property
    def dropped(self) -> bool:
        return self.stage == QueryStage.DROPPED

    @property
    def latency(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.query.arrival_time

    @property
    def slo_violated(self) -> bool:
        if self.dropped:
            return True
        return self.completion_time > self.query.deadline


def from_records(records: List[Record], feature_dim: int) -> ColumnStore:
    """Build the columns with one pass over a record list."""
    n = len(records)
    query_id = np.empty(n, dtype=np.int64)
    arrival = np.empty(n)
    deadline = np.empty(n)
    completion = np.full(n, np.nan)
    stage = np.empty(n, dtype=np.int8)
    variant = np.full(n, None, dtype=object)
    quality = np.full(n, np.nan)
    confidence = np.full(n, np.nan)
    deferred = np.zeros(n, dtype=bool)
    retries = np.zeros(n, dtype=np.int32)
    feats: List[np.ndarray] = []
    for i, r in enumerate(records):
        query_id[i] = r.query.query_id
        arrival[i] = r.query.arrival_time
        deadline[i] = r.query.deadline
        stage[i] = STAGE_CODES[r.stage]
        variant[i] = r.variant
        retries[i] = r.retries
        if r.completion_time is not None:
            completion[i] = r.completion_time
        if r.quality is not None:
            quality[i] = r.quality
        if r.confidence is not None:
            confidence[i] = r.confidence
        deferred[i] = r.deferred
        if r.features is not None:
            feats.append(r.features)
    return ColumnStore(
        query_id=query_id,
        arrival=arrival,
        deadline=deadline,
        completion=completion,
        stage=stage,
        variant=variant,
        quality=quality,
        confidence=confidence,
        deferred=deferred,
        retries=retries,
        features=np.stack(feats) if feats else np.zeros((0, feature_dim)),
    )


def feed(collector: ResultCollector, record: Record) -> None:
    """Replay one record's retries and terminal event through the collector."""
    for _ in range(record.retries):
        collector.record_retry(record.query)
    if record.dropped:
        collector.drop(record.query)
        return
    image = GeneratedImage(
        query_id=record.query.query_id,
        variant_name=record.variant,
        quality=record.quality,
        features=record.features,
    )
    collector.complete(
        record.query,
        image,
        record.stage,
        record.confidence,
        record.deferred,
        record.completion_time,
    )


def random_records(
    rng: np.random.Generator,
    n: int,
    dim: int,
    *,
    start_id: int = 0,
    duration: float = 120.0,
    slo: float = 2.0,
    drop_rate: float = 0.15,
    max_retries: int = 0,
) -> List[Record]:
    """A randomized record list with drops, violations and both stages."""
    records = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, duration))
        query = Query(
            query_id=start_id + i,
            arrival_time=arrival,
            prompt="p",
            difficulty=float(rng.uniform(0.0, 1.0)),
            slo=slo,
        )
        retries = int(rng.integers(0, max_retries + 1))
        if rng.random() < drop_rate:
            records.append(Record(query=query, stage=QueryStage.DROPPED, retries=retries))
            continue
        stage = QueryStage.HEAVY if rng.random() < 0.4 else QueryStage.LIGHT
        records.append(
            Record(
                query=query,
                stage=stage,
                completion_time=arrival + float(rng.exponential(1.2)),
                variant="heavy" if stage == QueryStage.HEAVY else "light",
                quality=float(rng.uniform(0.0, 1.0)),
                features=rng.normal(size=dim),
                confidence=float(rng.uniform()) if rng.random() < 0.8 else None,
                deferred=stage == QueryStage.HEAVY,
                retries=retries,
            )
        )
    return records


def collect(dataset, records: List[Record]) -> ColumnStore:
    """The columns a collector builds from ``records``."""
    collector = ResultCollector(dataset)
    for record in records:
        feed(collector, record)
    return collector.columns()


def assert_columns_equal(actual: ColumnStore, expected: ColumnStore) -> None:
    """Array-for-array equality: dtypes, shapes, values and NaN positions."""
    for name in ColumnStore.__dataclass_fields__:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, (name, got.dtype, want.dtype)
        assert got.shape == want.shape, (name, got.shape, want.shape)
        if got.dtype.kind == "f":
            assert np.array_equal(got, want, equal_nan=True), name
        else:
            assert np.array_equal(got, want), name
