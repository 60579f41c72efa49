import pytest

from regionkit.config import ExperimentConfig
from regionkit.simworld import EncoderConfig, ProposalSimConfig, SceneConfig


@pytest.fixture(scope="session")
def default_config() -> ExperimentConfig:
    return ExperimentConfig(seed=7)


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """Small dims and short budgets for fast training-path tests."""
    return ExperimentConfig(
        seed=3,
        world=SceneConfig(n_categories=4, min_objects=2, max_objects=3),
        proposals=ProposalSimConfig(jitter_sigma=0.01, drop_rate=0.0, clutter_rate=1.0, max_proposals=8),
        encoder=EncoderConfig(primary_resolution=8, aux_base_resolution=16),
        fp_channels=2,
        d_llm=8,
        n_train_scenes=6,
        n_eval_scenes=5,
        stage1_steps=30,
        stage2_steps=10,
    )


@pytest.fixture(scope="session")
def trained_default(default_config):
    """One full default two-stage run, shared by the slow integration tests."""
    from regionkit.training import train

    return train(default_config)


@pytest.fixture(scope="session")
def default_ablation(default_config, trained_default):
    """Every feature-stream variant at the default budget over seeds 7-11.

    The hybrid row's seed-7 model is the default config's, trained on the
    set ``train`` would draw for it, so it is ``trained_default`` rather
    than a second training run."""
    from regionkit import experiments

    train = experiments.train

    def train_once(config, dataset=None):
        if config == default_config:
            return trained_default
        return train(config, dataset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "train", train_once)
        return experiments.run_ablations(default_config, n_seeds=5)
