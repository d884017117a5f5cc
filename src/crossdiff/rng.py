"""Counter-based, splittable random streams.

Every particle-system draw comes from a Philox generator keyed by a run
seed (a study derives one per replica) plus a tuple of integer subkeys:
(INIT,) for the initial sample and (k, purpose) for step k of the global
step grid.  The splitting scheme draws from the DIFFUSE and DEMOGRAPHY
streams of a step, the thinned scheme from its one EVENT stream (clock,
picks and Euler moves).  Streams with distinct keys are statistically
independent and can be recreated in any order, so parallel and sequential
execution produce the same numbers.  The flow estimates (study_flow, the
`flow` verb) draw from default_rng(SeedSequence(seed, spawn_key=(41|71|72,))),
and rate_fit and validate from default_rng of their seed.
"""

from __future__ import annotations

import numpy as np

# draw purposes used across the package
INIT = 0
DIFFUSE = 1
DEMOGRAPHY = 2
EVENT = 3


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def describe(seed: int, *key: int) -> str:
    parts = ":".join(str(int(k)) for k in key)
    return f"philox[{int(seed)}]{'/' + parts if parts else ''}"
