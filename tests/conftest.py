import os

import numpy as np
import pytest
from hypothesis import settings

from lbgame import ActionProfile, Instance

# Properties that leave ``max_examples`` to the profile run deeper in CI
# (HYPOTHESIS_PROFILE=ci) than locally.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_instance(rng, max_players=8, max_servers=8, zero_loads=False):
    """A small random instance with O(1) parameter scales."""
    n = int(rng.integers(1, max_players + 1))
    m = int(rng.integers(1, max_servers + 1))
    lengths = rng.uniform(0.1, 2.5, n)
    rates = rng.uniform(0.2, 3.0, m)
    loads = np.zeros(m) if zero_loads else rng.uniform(0.0, 5.0, m)
    return Instance(lengths, rates, loads)


def random_profile(rng, inst):
    """Uniformly random row-stochastic profile for the instance."""
    return ActionProfile(rng.dirichlet(np.ones(inst.num_servers), size=inst.num_players))


def cost_by_summation(inst, matrix, i):
    """Independent term-by-term evaluation of player i's one-shot cost."""
    total = 0.0
    for j in range(inst.num_servers):
        own = inst.job_lengths[i] * matrix[i][j]
        ahead = inst.initial_loads[j]
        for k in range(inst.num_players):
            if k != i:
                ahead += inst.job_lengths[k] * matrix[k][j]
        total += own * (own / (2 * inst.service_rates[j]) + ahead / inst.service_rates[j])
    return total


@pytest.fixture
def example_two_by_two():
    """Two players (job lengths 1 and 2), two servers (rates 1.5 and 2.5),
    starting loads (2, 4)."""
    return Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
