import math
from fractions import Fraction

import numpy as np
import pytest

from framelab import expr as ex
from framelab import metric as mt
from framelab import ortho as ot


def with_components(m, components, name=None):
    """A copy of metric m with other component expressions."""
    return mt.MetricSpec(m.dim, m.coords, components, m.domain, dict(m.params),
                         dict(m.periods), name if name is not None else m.name)


# references for the curvature of (O(n), b)

def sectional_biinvariant(a1, a2):
    """Sectional curvature of (O(n), b) on the plane spanned by a1, a2."""
    br = a1 @ a2 - a2 @ a1
    num = 0.25 * ot.biinvariant_inner(br, br)
    den = (ot.biinvariant_inner(a1, a1) * ot.biinvariant_inner(a2, a2)
           - ot.biinvariant_inner(a1, a2) ** 2)
    if den <= 0:
        raise ValueError("a1, a2 do not span a 2-plane")
    return num / den


def ricci_biinvariant(xi):
    """Ricci of (O(n), b) in direction xi: (1/4) sum_a |[xi, u_a]|_b^2 over a
    b-orthonormal basis u_a."""
    xi = ot.check_skew(xi)
    total = 0.0
    for a in ot.skew_basis(xi.shape[0]):
        a = a / ot.b_norm(a)
        br = xi @ a - a @ xi
        total += ot.biinvariant_inner(br, br)
    return 0.25 * total


@pytest.fixture(scope="session")
def flat2():
    return mt.flat_euclidean(2)


@pytest.fixture(scope="session")
def torus2():
    return mt.flat_torus(2)


@pytest.fixture(scope="session")
def sphere():
    return mt.round_sphere()


@pytest.fixture(scope="session")
def eh():
    return mt.eguchi_hanson(1.0)


@pytest.fixture(scope="session")
def cone_smooth():
    return mt.smoothed_cone(0.7, 0.1)


@pytest.fixture(scope="session")
def cone_pair():
    # g sharper than g': the two Levi-Civita connections genuinely differ
    return mt.smoothed_cone(0.7, 0.15), mt.smoothed_cone(0.7, 0.30)


@pytest.fixture(scope="session")
def s3_quarter():
    """Round S^3 of curvature 1 in Euler angles: (1/4)(sigma1^2 + sigma2^2
    + sigma3^2) with sigma3 = dps + cos(th) dph."""
    th = ex.Sym("th")
    q = ex.Num(Fraction(1, 4))
    c = ex.cos(th)
    comps = [
        [q, ex.Num(Fraction(0)), ex.Num(Fraction(0))],
        [ex.Num(Fraction(0)), q, ex.Mul(q, c)],
        [ex.Num(Fraction(0)), ex.Mul(q, c), q],
    ]
    dom = ((0.25, math.pi - 0.25), (0.0, 2 * math.pi), (0.0, 2 * math.pi))
    return mt.MetricSpec(3, ("th", "ph", "ps"), comps, dom, {},
                         {"ph": 2 * math.pi, "ps": 2 * math.pi}, "round-S3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
