"""A genus-6 trigonal curve over F_43, frozen end-to-end reference data.

The canonical ideal below (three cubics and six quadrics in P^5), the
change of variables that carries its quadrics onto the standard minors
of a type-(2,2) scroll, the cofactors the cubics pick up under the
scroll substitution, the resulting plane model, and that model's point
counts were all computed independently and are pinned here so the
pipelines can be checked against them exactly.  ``trail`` and ``report``
carry the ideal to the plane model as a stored trail and a lift report,
for the certificates and for ``tools/dump_outputs.py``.
"""

from gonalift.ff import FqField
from gonalift.mpoly import LinearChange, PolyRing
from gonalift.ok import OkRing
from gonalift.verify import LiftReport, gcd_step, linear_step, select_step, substitute_step

Q = 43
GENUS = 6
SCROLL_TYPE = (2, 2)

# from the curve's zeta function: a_1 = -8, so  43 + 1 + 8
POINT_COUNT = 52
# second power sum of the Frobenius eigenvalues is -244, so  43^2 + 1 + 244
POINT_COUNT_DEG2 = 2094

# rows of the change of variables X <- M*X that standardizes the quadrics
SCROLL_MATRIX = [
    [40, 3, 42, 0, 30, 33],
    [0, 12, 35, 40, 42, 2],
    [0, 9, 4, 30, 29, 42],
    [20, 37, 5, 2, 8, 22],
    [22, 19, 11, 28, 32, 14],
    [38, 29, 16, 21, 33, 36],
]


def field():
    return FqField(Q)


def canonical_ring(fld=None):
    return PolyRing(fld or field(), ("X1", "X2", "X3", "X4", "X5", "X6"))


def cubics(ring):
    X1, X2, X3, X4, X5, X6 = ring.gens()
    return [
        X1**2*X2 + 42*X1**2*X5 + 40*X1**2*X6 + 40*X1*X2*X6 + X1*X3**2
        + 2*X1*X3*X6 + 42*X1*X4**2 + 40*X1*X4*X5 + X1*X4*X6 + 6*X1*X5*X6
        + 7*X1*X6**2 + 42*X2*X3**2 + 2*X2*X3*X6 + 41*X2*X6**2 + 42*X3**3
        + 40*X3*X6**2 + 2*X4**2*X5 + 4*X4**2*X6 + 4*X4*X5*X6 + X4*X6**2
        + 38*X5*X6**2 + 39*X6**3,
        X1**2*X3 + 42*X1**2*X6 + 39*X1*X2*X6 + X1*X3**2 + 38*X1*X3*X6
        + 42*X1*X4*X5 + X1*X5*X6 + 7*X1*X6**2 + X2*X3**2 + 41*X2*X3*X6
        + 8*X2*X6**2 + 42*X3**2*X6 + 4*X3*X6**2 + X4**2*X6 + 5*X4*X5*X6
        + X4*X6**2 + 40*X5*X6**2 + 37*X6**3,
        42*X1**2*X6 + X1*X2*X3 + 42*X1*X2*X6 + 39*X1*X3*X6 + 42*X1*X4*X5
        + 42*X1*X5*X6 + 6*X1*X6**2 + X2*X3**2 + 39*X2*X3*X6 + 7*X2*X6**2
        + X3**3 + 42*X3**2*X6 + 5*X3*X6**2 + 42*X4**2*X6 + 5*X4*X5*X6
        + 41*X4*X6**2 + X5*X6**2 + 36*X6**3,
    ]


def quadrics(ring):
    X1, X2, X3, X4, X5, X6 = ring.gens()
    return [
        42*X1*X3 + 42*X1*X5 + X2**2 + X2*X6 + X3*X6 + 42*X4**2 + 42*X4*X6
        + X5*X6,
        42*X1*X5 + X2*X4 + X2*X6 + 42*X4**2 + 42*X4*X6 + X5*X6,
        42*X1*X6 + X3*X4 + X3*X6 + 42*X4*X5 + X6**2,
        42*X1*X6 + X2*X5 + 42*X4*X5 + X6**2,
        42*X2*X6 + X3*X5,
        42*X4*X6 + X5**2 + 42*X6**2,
    ]


def generators(ring):
    """Cubics first, then quadrics, matching the published order."""
    return cubics(ring) + quadrics(ring)


def plane_model(fld=None):
    """The plane model the scroll substitution and cubic gcd produce."""
    ring = PolyRing(fld or field(), ("x", "y"))
    x, y = ring.gens()
    return (x**4*y**3 + 8*x**4*y**2 + 31*x**4*y + 29*x**4 + 37*x**3*y**3
            + 23*x**3*y**2 + 16*x**3*y + x**3 + 12*x**2*y**3 + 18*x**2*y**2
            + 12*x**2*y + 25*x**2 + 10*x*y**3 + 7*x*y**2 + 30*x*y + 11*x
            + 13*y**3 + 36*y**2 + 3*y + 2)


def cubic_cofactors(fld=None):
    """What each cubic becomes under the substitution, divided by the gcd."""
    ring = PolyRing(fld or field(), ("x", "y"))
    x, _ = ring.gens()
    return [6*(x + 27)*(x + 32), 39*(x + 13)*(x + 20), 2*(x + 13)**2]


def trail(fld=None):
    """The trail from the canonical ideal to the plane model.

    The scroll change, the substitution onto the plane (with the point
    map x = X5/X4, y = X1/X4 back), the three cubics, and their gcd.
    """
    fld = fld or field()
    plane = PolyRing(fld, ("x", "y"))
    x, y = plane.gens()
    X1, X2, X3, X4, X5, X6 = canonical_ring(fld).gens()
    images = [y, x * y, x * x * y, plane.one(), x, x * x]
    point_map = [(X5, X4), (X1, X4)]
    return [linear_step(LinearChange(fld, SCROLL_MATRIX)),
            substitute_step(images, point_map),
            select_step([0, 1, 2]),
            gcd_step()]


def report():
    """A lift report of the plane model over the order for F_43, with ``trail``."""
    fld = field()
    order = OkRing.for_field(fld)
    f = plane_model(fld).map_coefficients(order.naive_lift, PolyRing(order, ("x", "y")))
    return LiftReport(order=order, f=f, gamma=3, genus=6, target="rectangle 4x3",
                      target_vertices=[(0, 0), (4, 0), (4, 3), (0, 3)], baker=True,
                      trail=trail(fld), input_kind="canonical_ideal",
                      input_gens=generators(canonical_ring(fld)), seed=3)
