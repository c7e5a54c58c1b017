"""Watching the stepped game drain its queues.

One player arrives per step, best-responds to the observed queue loads, and
the queues drain. Two analytic step counts frame the run: a lead time after
which every response spreads over all servers, and a later step by which
every queue is exactly empty. Afterwards each arrival splits proportionally
to the service rates and pays a fixed steady cost.

The trace is also exported as CSV next to this script.
"""

from pathlib import Path

import numpy as np

from lbgame import (
    DynamicRun,
    builtin_setting,
    export_trace,
    full_support_time,
    run_experiment,
    run_sequential,
    zero_load_time,
    zero_load_time_alt,
)

np.set_printoptions(precision=4, suppress=True)

setting = builtin_setting(5)
inst = setting.instance
print("service rates:", inst.service_rates)
print("job lengths  :", inst.job_lengths)
print("initial loads:", inst.initial_loads)

lead = full_support_time(inst)
drain = zero_load_time(inst)
alt = zero_load_time_alt(inst)
print(f"\nfull-support lead time : {lead} steps")
print(f"zero-load bound        : {drain} steps")
print(f"alternative bound      : {alt} steps")

done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
print(f"\nqueues actually empty at step {done.converged_at}")

# The trace holds columns over the steps: ``loads`` after each drain (its
# row 0 is the start), and per arrival its ``fractions`` and ``costs``.
trace = done.trace
marks = sorted({0, lead // 2, lead, (lead + done.converged_at) // 2, done.converged_at})
for t in marks:
    used = int(np.count_nonzero(trace.fractions[t, 0] > 0))
    print(
        f"  step {t:3d}: total load {trace.loads[t + 1].sum():7.3f}, "
        f"arrival used {used}/{inst.num_servers} servers"
    )

share = inst.service_rates / inst.total_service_rate
steady = inst.job_lengths[trace.arrivals[-1, 0]] ** 2 / (2 * inst.total_service_rate)
print("\npost-drain split   :", trace.fractions[-1, 0])
print("rate-proportional  :", share)
print("steady arrival cost:", trace.costs[-1, 0], "expected", steady)

out = Path(__file__).with_name("queue_drain_trace.csv")
export_trace(run_experiment(setting, seed=0, modes=("sequential",)), out)
print(f"\ntrace written to {out}")
