"""Declarative comparative studies: named arms, table columns and claims.

DiffServe's claims are comparisons between arms — a cascade that
Pareto-dominates single-model serving, a recovery path that dominates an
unmitigated one.  A :class:`Study` declares such a comparison and nothing
else:

* ``arms(cascade, scale, qps)`` returns named
  :class:`~repro.runner.spec.ExperimentSpec` cells (each serving one system),
  with the study's own qps/scale sizing rules inside;
* ``columns`` render one table row per arm from the arm summaries (the
  ``/``-separated parts of an arm name fill the leading ``key_headers``
  columns);
* ``claims`` are named predicates over the arm summaries, each with the
  verdict text printed when it holds and when it does not.

:func:`run_study` runs the arms as one grid of the cached parallel runner
(so every study inherits its determinism and caching guarantees) and
:func:`render_study` prints the title, table and verdicts.  The benchmark
gates under ``benchmarks/`` evaluate the same named claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.runner.executor import run_grid
from repro.runner.spec import ExperimentGrid, ExperimentSpec

#: Arm name -> the summary its cell produced.
Summaries = Mapping[str, Mapping[str, float]]
#: Verdict text: fixed, or rendered from the arm summaries.
Text = Union[str, Callable[[Summaries], str]]


def dominates(
    a: Mapping[str, float], b: Mapping[str, float], *, on: Sequence[str], tol: float
) -> bool:
    """Whether summary ``a`` matches or beats ``b`` on every minimised metric ``on``.

    ``tol`` absorbs float noise: ``a`` may exceed ``b`` by at most ``tol``.
    """
    return all(a[key] <= b[key] + tol for key in on)


def metric(
    key: str, cast: Callable[[float], object] = lambda value: value
) -> Callable[[StudyResult, str], object]:
    """Table column reading ``key`` from an arm's summary (optionally ``cast``)."""
    return lambda result, name: cast(result.summaries[name][key])


@dataclass(frozen=True)
class Claim:
    """A predicate over arm summaries plus its two verdict texts."""

    holds: Callable[[Summaries], bool]
    passed: Text
    failed: Text

    def verdict(self, summaries: Summaries) -> str:
        """The verdict line for ``summaries``."""
        text = self.passed if self.holds(summaries) else self.failed
        return text if isinstance(text, str) else text(summaries)


@dataclass(frozen=True)
class Study:
    """Declaration of one comparative study (see the module docstring)."""

    name: str
    description: str
    title: Callable[[StudyResult], str]
    arms: Callable[[str, ExperimentScale, Optional[float]], Dict[str, ExperimentSpec]]
    key_headers: Tuple[str, ...]
    columns: Tuple[Tuple[str, Callable[[StudyResult, str], object]], ...]
    #: Claim name -> claim, in verdict order.
    claims: Mapping[str, Claim] = field(default_factory=dict)
    #: CLI entry point when the study prints more than its rendered table.
    main: Optional[Callable[[ExperimentScale], str]] = None


@dataclass
class StudyResult:
    """Specs and summaries of every arm of one study run, keyed by arm name."""

    study: Study
    specs: Dict[str, ExperimentSpec]
    summaries: Dict[str, Dict[str, float]]

    @property
    def qps(self) -> Optional[float]:
        """Nominal rate of the first arm's trace."""
        return next(iter(self.specs.values())).trace.qps

    def holds(self, claim: str) -> bool:
        """Whether the named claim holds on this result."""
        return self.study.claims[claim].holds(self.summaries)


def run_study(
    study: Study,
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    qps: Optional[float] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> StudyResult:
    """Run every arm of ``study`` through the cached parallel grid runner.

    Fails with one line naming every failed cell.
    """
    specs = study.arms(cascade_name, scale, qps)
    report = run_grid(ExperimentGrid.of(specs.values()), jobs=jobs, use_cache=use_cache)
    if report.failed:
        details = "; ".join(f"{cell.spec.label}: {cell.status}" for cell in report.failed)
        raise RuntimeError(f"{study.name} study cells failed: {details}")
    summaries = {
        name: dict(cell.summaries[spec.systems[0]])
        for (name, spec), cell in zip(specs.items(), report.cells)
    }
    return StudyResult(study=study, specs=specs, summaries=summaries)


def render_study(result: StudyResult) -> str:
    """Title, per-arm table and claim verdicts of a study run."""
    study = result.study
    headers = [*study.key_headers, *(header for header, _ in study.columns)]
    rows = [
        [*name.split("/"), *(value(result, name) for _, value in study.columns)]
        for name in result.summaries
    ]
    verdicts = [claim.verdict(result.summaries) for claim in study.claims.values()]
    return "\n".join([study.title(result), format_table(headers, rows), *verdicts])


def print_study(study: Study, scale: ExperimentScale = BENCH_SCALE) -> str:
    """Run ``study`` at ``scale`` and print its rendered table."""
    output = render_study(run_study(study, scale=scale))
    print(output)
    return output


def registry() -> Dict[str, Study]:
    """Every declared study, keyed by its CLI name."""
    from repro.experiments import autoscale, chaos, contention, geo_scale, heterogeneity

    studies = (chaos, contention, autoscale, heterogeneity, geo_scale)
    return {module.STUDY.name: module.STUDY for module in studies}
