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
from normmon.scenario import parse_atom, scenario_from_dict, scenario_to_dict

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

    return run_search_oracle(100)


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


def crowded_office(seed):
    """An office scenario with no two robots in one office, built as
    ``scripts/check_output_identity.sh`` builds it: 6-8 offices, 4-5
    robots, each starting in an office of its own."""
    rng = random.Random(seed)
    cfg = CaseStudyConfig(offices_min=6, offices_max=8, robots_min=4, robots_max=5, camera_ratio=0.3)
    data = scenario_to_dict(generate_case_study(cfg, rng))
    data["rules"].append({"body": ["in(R1,O)", "in(R2,O)"], "constraints": ["R1!=R2"]})
    data["initial_state"] = [f"in({r},o{k})" for k, r in enumerate(data["agents"], 1)]
    return scenario_from_dict(data)
