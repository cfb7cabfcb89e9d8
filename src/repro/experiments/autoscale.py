"""Elastic-fleet study: fixed provisioning vs. autoscaling on spot markets.

The autoscaling layer (:mod:`repro.core.autoscaler`) makes the fleet size and
mix a *decision variable over time*: a :class:`~repro.core.autoscaler.ScalePolicy`
is evaluated at every re-planning epoch against the epoch's arrival rate, SLO
violation ratio and — for the cost-aware policy — the current spot prices of
:mod:`repro.core.pricing`, and every transition flows through the controller's
single audited ``set_fleet`` site, which bills the time-integrated
:class:`~repro.core.pricing.CostLedger`.  This study serves each workload's
identical sampled trace through three arms:

``fixed``
    No autoscaler (``autoscale=None``): the equal-peak-cost reference that
    holds the full fleet for the whole run and pays for it.
``reactive``
    The ``reactive`` catalog policy: scales on load and SLO violations alone,
    blind to prices.
``cost-aware``
    The ``cost-aware`` catalog policy: additionally weights device classes by
    their effective spot price (surge-inflated, revocation-risk-adjusted) and
    evicts spot capacity priced above its on-demand ceiling.

All arms of a workload share one deterministic price trace, so cost
differences come from *scaling decisions*, never from market luck.  The
headline claim — gated in ``benchmarks/test_bench_autoscale.py`` — is that
under the diurnal workload the cost-aware arm strictly dominates the fixed
equal-peak-cost fleet on (time-integrated cost, SLO violation ratio): strictly
cheaper, no worse on violations.

Every arm is one grid cell of the cached parallel runner (``autoscale`` and
``prices`` are cached grid dimensions since cache schema v9) declared as a
:class:`~repro.experiments.study.Study`, so ``repro autoscale`` inherits the
runner's determinism and caching guarantees.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.experiments.harness import ExperimentScale
from repro.experiments.study import Claim, Study, Summaries, dominates, metric
from repro.runner.spec import ExperimentSpec, TraceSpec
from repro.workloads import cascade_qps_range

#: (workload kind, ``--prices`` spelling) market scenarios.  The diurnal
#: workload rides the calm diurnal spot market; the flash crowd hits the same
#: market with two price surges (a "spot storm") overlapping the crowd.
DEFAULT_MARKETS: Tuple[Tuple[str, str], ...] = (
    ("diurnal", "spot-diurnal"),
    ("flash-crowd", "spot-storm"),
)

#: (arm name, ``--autoscale`` spelling) policy arms in execution order.
DEFAULT_POLICIES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("fixed", None),
    ("reactive", "reactive"),
    ("cost-aware", "cost-aware"),
)

#: Mixed fleet the study scales: an on-demand A100 anchor plus a cheap L4
#: spot tier the cost-aware policy can actually evict.  Small enough that
#: scale decisions bite, heterogeneous so the MILP's price tie-break engages.
DEFAULT_FLEET: Tuple[Tuple[str, int], ...] = (("a100", 2), ("l4", 4))

#: Adaptive re-planning epoch (seconds): the autoscaler's decision cadence.
DEFAULT_EPOCH = 3.0

#: Nominal rate as a fraction of the cascade's all-light capacity, sized so
#: the diurnal trough leaves real slack for scale-in while the peak binds.
DEFAULT_QPS_FRACTION = 0.45


def arms(
    cascade_name: str, scale: ExperimentScale, qps: Optional[float]
) -> Dict[str, ExperimentSpec]:
    """One ``workload/policy`` cell per market scenario and scale policy.

    Every policy arm of a workload serves the *identical* sampled trace under
    the *identical* price trace (both are functions of spec and seed, not of
    the policy), with adaptive re-planning attached so scale decisions have a
    cadence to ride on.
    """
    total_workers = sum(count for _, count in DEFAULT_FLEET)
    scale = replace(scale, num_workers=max(total_workers, 2))
    if qps is None:
        lo, hi = cascade_qps_range(cascade_name, total_workers)
        qps = DEFAULT_QPS_FRACTION * hi
    return {
        f"{kind}/{name}": ExperimentSpec(
            cascade=cascade_name,
            scale=scale,
            systems=("diffserve",),
            trace=TraceSpec(kind=kind, qps=qps),
            params=(
                ("replan_epoch", DEFAULT_EPOCH),
                ("replan_policy", "adaptive"),
            ),
            fleet=tuple(sorted(DEFAULT_FLEET)),
            autoscale=autoscale,
            prices=prices,
        )
        for kind, prices in DEFAULT_MARKETS
        for name, autoscale in DEFAULT_POLICIES
    }


def savings(s: Summaries, workload: str, policy: str) -> float:
    """Fractional cost saving of ``policy`` vs. the fixed reference."""
    fixed = s[f"{workload}/fixed"]["fleet_cost"]
    if fixed <= 0:
        return 0.0
    return 1.0 - s[f"{workload}/{policy}"]["fleet_cost"] / fixed


def _cost_aware_dominates(workload: str) -> Claim:
    """The headline claim for one workload.

    The cost-aware arm strictly dominates the fixed equal-peak-cost reference
    on (time-integrated cost, SLO violation ratio): strictly cheaper, and no
    worse on violations.
    """

    def holds(s: Summaries) -> bool:
        fixed, aware = s[f"{workload}/fixed"], s[f"{workload}/cost-aware"]
        return aware["fleet_cost"] < fixed["fleet_cost"] and dominates(
            aware, fixed, on=("slo_violation_ratio",), tol=1e-9
        )

    return Claim(
        holds,
        f"{workload}: cost-aware autoscaling strictly dominates the fixed "
        f"equal-peak-cost fleet on (cost, SLO violation)",
        lambda s: f"{workload}: cost-aware does NOT dominate the fixed fleet here "
        f"(saving {savings(s, workload, 'cost-aware'):.0%})",
    )


STUDY = Study(
    name="autoscale",
    description="Elastic fleets: fixed vs. reactive vs. cost-aware autoscaling on spot markets",
    title=lambda result: (
        f"Elastic fleets — DiffServe @ {result.qps:g} qps nominal, "
        f"fleet {'+'.join(f'{cls}x{count}' for cls, count in DEFAULT_FLEET)}, "
        f"adaptive re-planning every {DEFAULT_EPOCH:g}s"
    ),
    arms=arms,
    key_headers=("workload", "policy"),
    columns=(
        ("market", lambda result, name: result.specs[name].prices),
        ("cost (A100-h)", metric("fleet_cost")),
        ("saving", lambda result, name: f"{savings(result.summaries, *name.split('/')):.0%}"),
        ("SLO viol", metric("slo_violation_ratio")),
        ("FID", metric("fid")),
        ("p99 (s)", metric("p99_latency")),
    ),
    claims={
        f"{kind}/cost-aware-dominates": _cost_aware_dominates(kind) for kind, _ in DEFAULT_MARKETS
    },
)
