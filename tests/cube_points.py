"""Points of the correlation cube that the region and stream tests share:
the quantum boundary point, the 16 vertices, a hypothesis strategy for
points of the cube and seeded uniform draws."""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

S = 1.0 / math.sqrt(2.0)
Q_BOUNDARY = (S, S, S, -S)   # saturates the linear bound 2*sqrt(2)
VERTICES = list(itertools.product((-1.0, 1.0), repeat=4))
UNIT = st.floats(-1.0, 1.0)
CUBE_POINTS = (st.tuples(UNIT, UNIT, UNIT, UNIT)
               | st.tuples(*[st.sampled_from((-1.0, -S, 0.0, S, 1.0))] * 4))


def uniform_points(n, seed=0):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], np.uint64)))
    return 2.0 * rng.random((n, 4)) - 1.0
