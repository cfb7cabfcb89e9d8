"""Register a custom diffusion model pair and serve it as a cascade.

This example shows the lower-level API: define your own model variants
(latency profile + quality behaviour), train a discriminator for the pair,
profile the deferral function, assemble the allocator/policy by hand, and run
a bursty workload through the system.  This is the path a downstream user
takes to serve their own fine-tuned models with DiffServe.

Run with:  python examples/custom_cascade.py
"""

import numpy as np

from repro.core.allocator import DiffServeAllocator
from repro.core.config import FleetSpec, RoutingMode, SystemConfig
from repro.core.policies import DiffServePolicy
from repro.core.system import ServingSimulation
from repro.discriminators.deferral import DeferralProfile
from repro.discriminators.training import DiscriminatorTrainer, TrainingConfig
from repro.models.dataset import make_coco_like
from repro.models.profiles import LatencyProfile
from repro.models.variants import ModelVariant, QualityModel
from repro.models.zoo import CascadeSpec
from repro.traces.base import ArrivalTrace
from repro.traces.synthetic import burst_rate


def main() -> None:
    # 1. Describe the two model variants you want to cascade.
    my_light = ModelVariant(
        name="my-distilled-sd",
        display_name="My distilled SD (2 steps)",
        steps=2,
        resolution=512,
        latency=LatencyProfile(per_image=0.15, fixed_overhead=0.01),
        quality=QualityModel(
            base_quality=0.89, difficulty_sensitivity=0.40, quality_noise=0.10, artifact_scale=1.3
        ),
        family="sd",
    )
    my_heavy = ModelVariant(
        name="my-finetuned-sd",
        display_name="My fine-tuned SD (40 steps)",
        steps=40,
        resolution=512,
        latency=LatencyProfile(per_image=1.5, fixed_overhead=0.02),
        quality=QualityModel(
            base_quality=0.93, difficulty_sensitivity=0.20, quality_noise=0.08, artifact_scale=0.95,
            diversity=0.9,
        ),
        family="sd",
    )
    cascade = CascadeSpec(name="custom", light=my_light, heavy=my_heavy, slo=4.0)

    # 2. Train the discriminator on real-vs-generated images and profile the
    #    deferral function f(t).
    dataset = make_coco_like(800, seed=7)
    trainer = DiscriminatorTrainer(dataset, my_light, my_heavy)
    trained = trainer.train(TrainingConfig(architecture="efficientnet-v2", n_train=500, seed=7))
    discriminator = trained.discriminator
    print(f"Discriminator: {discriminator.name}, "
          f"train accuracy {trained.train_accuracy:.2f}, "
          f"confidence/quality correlation {trained.quality_correlation:.2f}")
    profile = DeferralProfile.profile(discriminator, dataset, my_light, seed=7)

    # 3. Assemble the system by hand (allocator -> policy -> simulation).
    config = SystemConfig(
        cascade=cascade, fleet=FleetSpec.homogeneous(12), routing=RoutingMode.CASCADE, seed=7
    )
    allocator = DiffServeAllocator(
        my_light, my_heavy, profile, discriminator_latency=discriminator.latency_s
    )
    system = ServingSimulation(
        config=config,
        dataset=dataset,
        policy=DiffServePolicy(allocator),
        discriminator=discriminator,
        name="custom-cascade",
    )

    # 4. Serve a bursty workload: 6 QPS baseline with a 20 QPS burst.
    curve = burst_rate(6.0, 20.0, duration=240.0, burst_start=90.0, burst_length=40.0)
    trace = ArrivalTrace.from_rate_curve(curve, np.random.default_rng(7))
    result = system.run(trace)

    print(f"\nServed {result.total_queries} queries")
    print(f"FID: {result.fid():.2f}   SLO violations: {result.slo_violation_ratio:.3f}   "
          f"deferral rate: {result.deferral_rate:.2f}")
    times, thresholds = result.threshold_timeseries()
    print("\nThreshold trajectory around the burst:")
    for t, thr in zip(times, thresholds):
        marker = " <- burst" if 90 <= t <= 130 else ""
        print(f"  t={t:6.1f}s  threshold={thr:4.2f}{marker}")


if __name__ == "__main__":
    main()
