"""Reference values the benchmark checks bellvol's outputs against.

The numbers do not come from bellvol.  The closed forms are the paper's;
V_U has no closed form and was computed once with mpmath by ``compute_v_u``
below, which ``python3 bench/refs.py`` reruns.  The stored polytope texts are
copies of the CLI output at the commit that added them, checked by vertex
and facet counts when they were stored.
"""

from __future__ import annotations

import math
from pathlib import Path

V_C = 32.0 / 3.0
V_Q = 1.5 * math.pi ** 2
V_T = (768.0 * math.sqrt(2.0) - 1040.0) / 3.0
V_L = 16.0
#: ``compute_v_u(dps=40)``; unchanged at dps=30 with coarser quadrature.
V_U = 15.197631581540050297471254931610759

VOLUMES = {"C": V_C, "Q": V_Q, "U": V_U, "T": V_T, "L": V_L}
RATIOS = {"Q/C": V_Q / V_C, "Q/L": V_Q / V_L, "C/L": V_C / V_L}
EXCESSES = {"T/Q-1": V_T / V_Q - 1.0, "U/Q-1": V_U / V_Q - 1.0}
EXACT = {"C": "32/3", "L": "16"}

_TEXT_DIR = Path(__file__).resolve().parent / "reference"


def stored_text(name: str) -> str:
    """A stored CLI output, e.g. ``ns_vertices`` or ``local_facets``."""
    return (_TEXT_DIR / f"{name}.txt").read_text()


def compute_v_u(dps: int = 40):
    """Volume of U = {(c00 +/- c11)^2 + (c01 -/+ c10)^2 <= 4} in [-1, 1]^4.

    With x = c00 + c11, y = c00 - c11, z = c01 - c10, w = c01 + c10
    (Jacobian 1/4) the cube is |x| + |y| <= 2, |z| + |w| <= 2 and U is the
    pair of disks x^2 + z^2 <= 4, y^2 + w^2 <= 4.  For fixed (x, z) the
    (y, w) slice is the rectangle [-a, a] x [-b, b], a = 2 - |x|,
    b = 2 - |z|, cut by the radius-2 disk, whose area is closed form.  The
    remaining 2D integral over the (x, z) quarter disk (times four quadrants,
    times the Jacobian 1/4) is split at the kink a^2 + b^2 = 4.
    """
    import mpmath as mp

    mp.mp.dps = dps

    def prim(y):  # integral of sqrt(4 - y^2)
        return (y * mp.sqrt(4 - y * y) + 4 * mp.asin(y / 2)) / 2

    def area(x, z):
        a, b = 2 - x, 2 - z
        if a * a + b * b <= 4:
            return 4 * a * b
        y0 = mp.sqrt(4 - b * b)
        return 4 * (b * y0 + prim(a) - prim(y0))

    def over_z(x):
        z_kink = 2 - mp.sqrt(4 * x - x * x)
        return mp.quad(lambda z: area(x, z), [0, z_kink, mp.sqrt(4 - x * x)])

    return mp.quad(over_z, [0, 1, 2])


if __name__ == "__main__":
    print(compute_v_u())
