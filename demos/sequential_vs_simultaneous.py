"""Sequential versus simultaneous arrivals.

With one arrival per step the system only needs the largest single job to
fit under the total service rate; with everyone sending each step the whole
job mass must fit. Where both modes run, one-at-a-time drains faster, while
all-at-once still drains but more slowly.
"""

from lbgame import DynamicRun, InfeasibleError, Instance, builtin_setting, run_sequential, run_simultaneous

print(f"{'setting':>8} {'sequential':>11} {'simultaneous':>13}")
for sid in (1, 5, 6, 7):
    inst = builtin_setting(sid).instance
    seq = run_sequential(DynamicRun(inst, "sequential", order="random", seed=sid))
    sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
    print(f"{sid:>8} {seq.converged_at:>11} {sim.converged_at:>13}")

# A configuration where each job fits on its own but the combined mass does
# not: the all-at-once mode is refused outright.
crowded = Instance(
    job_lengths=[2.5, 3, 4, 6, 5, 5, 5, 5],
    service_rates=[3, 2, 1.5, 1.4, 1, 0.5, 0.2, 0.1],
    initial_loads=[10, 10, 10, 10, 5, 4, 4, 1],
)
print("\ncrowded instance: total jobs", crowded.total_job_length, "vs capacity", crowded.total_service_rate)
seq = run_sequential(DynamicRun(crowded, "sequential", order="random", seed=0))
print("one at a time drains  : at step", seq.converged_at)
try:
    DynamicRun(crowded, "simultaneous")
except InfeasibleError as exc:
    print("all at once refused  :", exc)
