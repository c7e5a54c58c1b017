"""Anatomy of a closed-form best response.

A player facing loaded servers splits its job by water-filling: rank the
servers by how long they need to clear what they already hold, then pour
work over the cheapest prefix until every filled server would take equally
long. Servers whose backlog already exceeds that common level get nothing.

This script walks through one small case, certifies the closed form by its
optimality condition, and shows a server being priced out of the support.
"""

import numpy as np

from lbgame import Instance, best_response

np.set_printoptions(precision=4, suppress=True)

# One player with 1 unit of work; two servers with rates 1.5 and 2.5 that
# currently hold 1.5 and 2.5 units. Both need 1.0 step to clear, so both
# should end up at the same level.
inst = Instance(job_lengths=[1.0], service_rates=[1.5, 2.5], initial_loads=[1.5, 2.5])
loads = np.array([1.5, 2.5])



def certify(inst, loads, result):
    """The split is optimal exactly when no work can move to a cheaper
    server. Moving work onto a server costs its level after the fill, so
    every server used sits at the common water level and every unused one
    at or above it."""
    after = (loads + inst.job_lengths[0] * result.action.fractions) / inst.service_rates
    used = result.action.fractions > 0
    spread = np.max(np.abs(after[used] - result.water_level))
    print("levels after fill :", after)
    print("spread on support :", spread)
    print("unused at or above:", bool(np.all(after[~used] >= result.water_level)))
    assert spread <= 1e-12 * result.water_level
    assert np.all(after[~used] >= result.water_level)


result = best_response(inst, 0, loads)
print("levels before fill:", loads / inst.service_rates)
print("split             :", result.action.fractions)
print("servers used      :", result.support_size, "of", inst.num_servers)
print("common level      :", result.water_level)
certify(inst, loads, result)

# A server holding far more than the water level is skipped entirely.
swamped = Instance(job_lengths=[1.0], service_rates=[1.0, 1.0])
backlogs = np.array([0.0, 10.0])
skip = best_response(swamped, 0, backlogs)
print("\nwith backlogs (0, 10) the split is", skip.action.fractions)
print("the second server sits above the water level and receives nothing")
certify(swamped, backlogs, skip)
