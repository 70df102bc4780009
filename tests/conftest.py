import os
import random
import time

import pytest

from normmon import load_scenario
from normmon.harness import (
    CaseStudyConfig,
    RandomConfig,
    generate_case_study,
    generate_random,
    run_experiment,
)
from normmon.scenario import parse_atom

SWEEP_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "normmon", "fixtures")
FIG1 = os.path.abspath(os.path.join(FIXTURES, "fig1.json"))
RUNNING_EXAMPLE_TRACE = os.path.abspath(
    os.path.join(FIXTURES, "running-example.trace")
)


@pytest.fixture(scope="session")
def fig1():
    return load_scenario(FIG1)


@pytest.fixture
def inst(fig1):
    def make(text):
        atom, positive = parse_atom(text)
        assert positive
        return fig1.instance_from_schema(atom)

    return make


@pytest.fixture(scope="session")
def case_study_sweep():
    """Camera-ratio sweep over the small case study, shared by the
    acceptance criteria that score detection rates: 100 repetitions of 100
    steps per ratio, all three monitor variants paired on the same logs.
    Returns {ratio: (Metrics, wall_seconds)}."""
    results = {}
    for ratio in SWEEP_RATIOS:
        cfg = CaseStudyConfig(camera_ratio=ratio, steps=100, repetitions=100, seed=0)
        start = time.perf_counter()
        metrics = run_experiment(
            cfg, ("traditional", "full", "approximate"), generate_case_study
        )
        results[ratio] = (metrics, time.perf_counter() - start)
    return results


@pytest.fixture(scope="session")
def soundness_report():
    from support import run_soundness_suite

    return run_soundness_suite(200)


@pytest.fixture(scope="session")
def search_oracle_report():
    from support import run_search_oracle

    return run_search_oracle(100, min_crowded=100)


@pytest.fixture(scope="session")
def rule_soundness_report():
    from support import run_rule_soundness_suite

    return run_rule_soundness_suite(12, 30)


def small_random_scenario(seed, agents=(2, 4), actions=(2, 6)):
    """A small randomly generated domain plus its generator RNG."""
    rng = random.Random(seed)
    cfg = RandomConfig(
        agents=rng.randint(*agents),
        actions=rng.randint(*actions),
        observation_probability=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
        steps=1,
        repetitions=1,
        seed=seed,
    )
    return generate_random(cfg, rng), rng


def generated_scenarios():
    """Office scenarios at two camera ratios and random ones, three seeds
    each."""
    for seed in range(3):
        for ratio in (0.3, 0.7):
            yield generate_case_study(CaseStudyConfig(camera_ratio=ratio), random.Random(seed))
        yield generate_random(RandomConfig(agents=3, actions=6), random.Random(seed))
