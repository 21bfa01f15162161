"""The braid relation on the rank-two torus, checked live.

The two Artin generators on the bracket torus of the doubled longest word
of A2 satisfy T1 T2 T1 = T2 T1 T2.  Each generator is assembled from a
transport to a base word, one frozen bar flip, and a transport back; a
composite runs straight from one base word to the next, so each side below
is a pipeline of about a hundred exact birational steps, and the relation
is verified at random prime-field points with rational confirmation.

Run:  python3 demos/braid_action.py
"""

import random
import time

from cluster_dual import cartan, maps, words
from cluster_dual.arith import TrialConfig, maps_equal_probabilistic

A2 = cartan.build_cartan("A2")
word = words.DoubleWord.from_string("1,2,1,1,2,1")

print("base torus: bracket torus of the word", word.to_string())
t0 = time.monotonic()
lhs = maps.artin_T_word(word, (1, 2, 1), A2)
rhs = maps.artin_T_word(word, (2, 1, 2), A2)
print(f"pipelines built in {time.monotonic() - t0:.2f}s "
      f"({len(lhs.steps)} + {len(rhs.steps)} steps)")

cfg = TrialConfig(trials=25, rng_seed=2024)
ixs = words.seed_indices(word, 2)
t0 = time.monotonic()
verdict = maps_equal_probabilistic(
    lambda p: lhs.apply_tuple(p), lambda p: rhs.apply_tuple(p), len(ixs), cfg)
print(f"T1 T2 T1 == T2 T1 T2 at {cfg.trials} random points: "
      f"{verdict.status} ({time.monotonic() - t0:.2f}s)")

rng = random.Random(5)
point = maps.random_assignment(word, A2, rng)
image = lhs.apply(point)
print("\nsample action on a rational point:")
for ix in ixs:
    print(f"  x{ix} : {point[ix]} -> {image[ix]}")
