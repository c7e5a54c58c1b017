"""One pass of in-turn updates lands on a pure equilibrium.

Starting from the uniform profile (everyone splits evenly), each player in
turn replaces its row with a best response to everyone else's current rows.
After every player has moved once, nobody can improve alone: the potential
has descended to a floor and all servers actually receiving work sit at one
common normalized load.
"""

import numpy as np

from lbgame import builtin_setting, is_nash, normalized_loads, potential, run_sequential_pass
from lbgame.model import ActionProfile

np.set_printoptions(precision=4, suppress=True)

inst = builtin_setting(1).instance
print(f"{inst.num_players} players, {inst.num_servers} servers")
print("service rates:", inst.service_rates)
print("initial loads:", inst.initial_loads)

uniform = ActionProfile.uniform(inst.num_players, inst.num_servers)
print("\npotential at the uniform start:", potential(inst, uniform))

profile, potentials = run_sequential_pass(inst)
for step, value in enumerate(potentials, start=1):
    print(f"  after update {step}: potential = {value:.6f}")

check = is_nash(inst, profile)
print("\npure equilibrium reached:", check.is_equilibrium)
print("bound on any unilateral improvement:", f"{check.max_improvement:.2e}")

levels = normalized_loads(inst, profile)
support = np.any(profile.matrix > 0, axis=0)
print("\nnormalized loads      :", levels)
print("servers receiving work:", np.nonzero(support)[0].tolist())
print("their level spread    :", f"{levels[support].max() - levels[support].min():.2e}")
