"""Tests for the discriminator training pipeline and the deferral profile."""

import numpy as np
import pytest

from repro.discriminators.deferral import DeferralProfile
from repro.discriminators.training import DiscriminatorTrainer, TrainingConfig


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(real_source="synthetic")
    with pytest.raises(ValueError):
        TrainingConfig(n_train=5)


def test_trainer_produces_accurate_real_vs_fake_classifier(coco_dataset, cascade1):
    trainer = DiscriminatorTrainer(coco_dataset, cascade1.light, cascade1.heavy)
    result = trainer.train(TrainingConfig(n_train=200, seed=0))
    assert result.train_accuracy > 0.9
    assert result.quality_correlation > 0.05
    assert result.discriminator.latency_s == pytest.approx(0.010)


def test_ground_truth_training_beats_fake_training(coco_dataset, cascade1):
    """Figure 7: EfficientNet trained on ground-truth real images gives a more
    quality-aligned confidence than training against heavy-model outputs."""
    trainer = DiscriminatorTrainer(coco_dataset, cascade1.light, cascade1.heavy)
    gt = trainer.train(TrainingConfig(real_source="ground-truth", n_train=250, seed=0))
    fake = trainer.train(TrainingConfig(real_source="heavy-model", n_train=250, seed=0))
    assert gt.quality_correlation > fake.quality_correlation - 0.05


def test_training_is_reproducible(coco_dataset, cascade1, light_images):
    trainer = DiscriminatorTrainer(coco_dataset, cascade1.light, cascade1.heavy)
    a = trainer.train(TrainingConfig(n_train=150, seed=3)).discriminator
    b = trainer.train(TrainingConfig(n_train=150, seed=3)).discriminator
    assert np.allclose(
        a.confidence_batch(light_images[:50]), b.confidence_batch(light_images[:50])
    )


def test_architecture_choice_respected(coco_dataset, cascade1):
    trainer = DiscriminatorTrainer(coco_dataset, cascade1.light, cascade1.heavy)
    resnet = trainer.train(TrainingConfig(architecture="resnet-34", n_train=150, seed=0))
    assert resnet.discriminator.architecture.name == "resnet-34"
    assert resnet.discriminator.latency_s == pytest.approx(0.002)


# --------------------------------------------------------------------- deferral
def test_deferral_profile_monotone(deferral_profile):
    thresholds = np.linspace(0, 1, 21)
    fractions = deferral_profile.fractions(thresholds)
    assert np.all(np.diff(fractions) >= -1e-12)
    assert fractions[0] == pytest.approx(0.0)
    assert fractions[-1] <= 1.0


def test_deferral_profile_inverse_consistency(deferral_profile):
    for target in (0.1, 0.3, 0.5, 0.8):
        threshold = deferral_profile.threshold_for_fraction(target)
        achieved = deferral_profile.fraction(threshold)
        assert achieved <= target + 0.05


def test_deferral_profile_input_validation(deferral_profile):
    with pytest.raises(ValueError):
        deferral_profile.fraction(1.5)
    with pytest.raises(ValueError):
        deferral_profile.threshold_for_fraction(-0.1)
    with pytest.raises(ValueError):
        DeferralProfile(confidences=np.array([]))
    with pytest.raises(ValueError):
        DeferralProfile(confidences=np.array([0.5, 1.2]))


def test_deferral_profile_online_update_shifts_fraction(trained_discriminator, coco_dataset,
                                                        cascade1):
    profile = DeferralProfile.profile(
        trained_discriminator, coco_dataset, cascade1.light, n_calibration=200, seed=0
    )
    base = profile.fraction(0.5)
    # Observe a consistently higher deferral rate than predicted at t=0.5.
    corrected = profile
    for _ in range(5):
        corrected = corrected.update_online(0.5, min(base + 0.2, 1.0))
    assert corrected.fraction(0.5) > base
    # The profile is immutable: corrections never leak into the original.
    assert profile.fraction(0.5) == base
    with pytest.raises(ValueError):
        profile.update_online(0.5, 1.5)


def test_deferral_profile_from_oracle_matches_quantiles(coco_dataset, cascade1):
    from repro.discriminators.heuristics import OracleDiscriminator

    profile = DeferralProfile.profile(
        OracleDiscriminator(), coco_dataset, cascade1.light, n_calibration=300, seed=0
    )
    # Half the images should fall below the median confidence.
    median = profile.threshold_for_fraction(0.5)
    assert profile.fraction(median) == pytest.approx(0.5, abs=0.05)
