"""Reference margins for the tests: each region's inequalities written out
literally, one expression per inequality, sharing no code with
``bellvol.regions``.  Margins are min over the inequalities of (bound - value).
"""

import math

SQRT2 = math.sqrt(2.0)


def chsh_forms(a00, a01, a10, a11):
    """The eight CHSH forms +/-(S - 2 a_ij), S the sum of the four."""
    forms = (-a00 + a01 + a10 + a11,
             a00 - a01 + a10 + a11,
             a00 + a01 - a10 + a11,
             a00 + a01 + a10 - a11)
    return forms + tuple(-f for f in forms)


def local(c):
    return min(2.0 - f for f in chsh_forms(*c))


def quantum_arcsin(c):
    angles = [math.asin(min(1.0, max(-1.0, v))) for v in c]
    return min(math.pi - f for f in chsh_forms(*angles))


def uffink(c):
    c00, c01, c10, c11 = c
    return min(4.0 - (c00 + c11) ** 2 - (c01 - c10) ** 2,
               4.0 - (c00 - c11) ** 2 - (c01 + c10) ** 2)


def tsirelson(c):
    return min(2.0 * SQRT2 - f for f in chsh_forms(*c))


def cube(c):
    return min(min(1.0 - v, 1.0 + v) for v in c)


#: Reference margins in chain order C, Q, U, T, L.
CHAIN = (local, quantum_arcsin, uffink, tsirelson, cube)
