"""Deferral profile ``f(t)``.

The MILP resource allocator needs to know which fraction of queries the
cascade defers to the heavyweight model at a given confidence threshold
``t`` (Equation 3 in the paper).  ``f(t)`` is initialised by offline
profiling on a calibration set and corrected online as thresholds change;
each correction is a new (immutable) profile, so systems built on one shared
profile never see each other's corrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.discriminators.base import Discriminator
from repro.models.dataset import QueryDataset
from repro.models.generation import ImageGenerator
from repro.models.variants import ModelVariant


@dataclass(frozen=True)
class DeferralProfile:
    """Empirical mapping from confidence threshold to deferral fraction.

    The profile stores the sorted calibration confidences; ``fraction(t)`` is
    the empirical probability that a confidence falls below ``t`` (those
    queries defer to the heavy model), which is monotonically non-decreasing
    in ``t`` by construction.  Frozen: :meth:`update_online` returns the
    corrected profile instead of mutating this one.
    """

    confidences: np.ndarray
    ewma_alpha: float = 0.3
    _online_correction: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        conf = np.asarray(self.confidences, dtype=float)
        if conf.ndim != 1 or conf.size == 0:
            raise ValueError("confidences must be a non-empty 1-D array")
        if conf.min() < 0 or conf.max() > 1:
            raise ValueError("confidences must lie in [0, 1]")
        object.__setattr__(self, "confidences", np.sort(conf))

    # ----------------------------------------------------------------- f(t)
    def fraction(self, threshold: float) -> float:
        """Fraction of queries deferred to the heavy model at ``threshold``."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        base = float(np.searchsorted(self.confidences, threshold, side="left")) / len(
            self.confidences
        )
        return float(np.clip(base + self._online_correction, 0.0, 1.0))

    def fractions(self, thresholds: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`fraction`."""
        return np.array([self.fraction(t) for t in thresholds])

    def threshold_for_fraction(self, fraction: float) -> float:
        """Largest threshold whose deferral fraction does not exceed ``fraction``.

        This is the inverse map the allocator uses: given the heavy-model
        capacity that the cluster can afford, pick the most quality-demanding
        threshold that still fits.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        target = np.clip(fraction - self._online_correction, 0.0, 1.0)
        n = len(self.confidences)
        k = int(np.floor(target * n))
        if k >= n:
            return 1.0
        if k <= 0:
            # Even the lowest confidence would defer; only threshold 0 (or
            # anything below the minimum confidence) defers nothing.
            return float(self.confidences[0])
        return float(self.confidences[k])

    # --------------------------------------------------------------- online
    def update_online(self, threshold: float, observed_fraction: float) -> "DeferralProfile":
        """The profile with an observed deferral fraction blended in (EWMA).

        The Controller calls this with the deferral rate it actually measured
        at the currently deployed threshold, correcting for drift between the
        calibration prompts and the live workload, and keeps the returned
        profile; ``self`` is left unchanged.
        """
        if not 0.0 <= observed_fraction <= 1.0:
            raise ValueError("observed_fraction must lie in [0, 1]")
        predicted = self.fraction(threshold) - self._online_correction
        error = observed_fraction - predicted
        return replace(
            self,
            _online_correction=(
                (1 - self.ewma_alpha) * self._online_correction + self.ewma_alpha * error
            ),
        )

    # ------------------------------------------------------------ profiling
    @classmethod
    def profile(
        cls,
        discriminator: Discriminator,
        dataset: QueryDataset,
        light: ModelVariant,
        *,
        generator: Optional[ImageGenerator] = None,
        n_calibration: int = 500,
        seed: int = 0,
    ) -> "DeferralProfile":
        """Build ``f(t)`` by scoring light-model outputs on calibration prompts."""
        generator = generator or ImageGenerator(seed=seed)
        rng = np.random.default_rng(seed)
        n = min(n_calibration, len(dataset))
        ids = rng.choice(len(dataset), size=n, replace=False)
        images = [
            generator.generate(int(i), dataset.difficulty(int(i)), light) for i in ids
        ]
        confidences = discriminator.confidence_batch(images)
        return cls(confidences=np.clip(confidences, 0.0, 1.0))
