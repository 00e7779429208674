"""Certificates for lifted plane models.

This module is the consumer side of every lifting pipeline.  A pipeline
returns a LiftReport: the lifted polynomial over the order, the claimed
gonality and target polygon, and a replayable trail of the mod-p
transformations it applied.  The checks here re-derive each claim
independently:

* ``replay_mod_p`` re-runs the trail on the original input and must
  reproduce the reduction of the lift coefficient for coefficient;
* ``check_nondegenerate`` certifies nondegeneracy with respect to the
  Newton polygon by resultant/gcd elimination, never by enumerating
  field elements, so a pass is a proof.  It and ``plane_curve_is_smooth``
  run one pipeline on the system's ``mpoly.PlaneSlices``: the gcd of two
  resultants as the eliminant (``_eliminant``), its irreducible
  factors, and the gcd of the slices at the roots of each;
* ``sample_birational`` pushes points of the original model through the
  trail, read once for all of them, and evaluates the lift mod p there;
* ``toric_point_count`` counts points of the smooth toric
  compactification, the desk-scale stand-in for a zeta cross-check.

Failures are values carrying witnesses; exceptions are reserved for
violated preconditions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from . import ff, mpoly, ok, polygon, upoly
from .errors import (DegenerateModel, InputError, SingularMatrix, WrongGammaDegree,
                     ZeroInput)
from .mpoly import MPoly, PolyRing
from .pointsearch import sample_curve_points


# ---------------------------------------------------------------------------
# monicization


def make_monic(f: MPoly, gamma: int, var="y") -> MPoly:
    """Monic-in-y model of the same curve: y <- y / f0(x), cleared.

    For f = f0*y^g + f1*y^(g-1) + ... + fg the result is
    y^g + f1*y^(g-1) + f2*f0*y^(g-2) + ... + fg*f0^(g-1); the y-degree
    is preserved and the construction commutes with reduction mod p.
    """
    ring = f.ring
    yi = var if isinstance(var, int) else ring.index_of_name(var)
    if gamma < 1 or f.degree_in(yi) != gamma:
        raise WrongGammaDegree(
            f"expected degree {gamma} in {ring.names[yi]}, found {f.degree_in(yi)}")
    cs = [f.coeff_of(yi, gamma - i) for i in range(gamma + 1)]
    y = ring.variable(yi)
    out = y ** gamma
    power = ring.one()
    for i in range(1, gamma + 1):
        out = out + cs[i] * power * y ** (gamma - i)
        power = power * cs[0]
    return out


# ---------------------------------------------------------------------------
# nondegeneracy with respect to the Newton polygon


class Nondegeneracy:
    """Outcome of the face-by-face nondegeneracy test, with witnesses."""

    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = list(failures)
        self.ok = not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"Nondegeneracy(ok={self.ok}, failures={self.failures!r})"

    def to_json(self):
        return {"ok": self.ok, "failures": self.failures}


def _strip_monomial_content(f: MPoly) -> MPoly:
    sx = min(e[0] for e in f.support())
    sy = min(e[1] for e in f.support())
    if sx == 0 and sy == 0:
        return f
    return f.ring.from_terms(((e[0] - sx, e[1] - sy), c) for e, c in f.terms.items())


def _edge_coeffs(f: MPoly, v0, v1):
    """The edge polynomial: coefficients of f along the lattice points of an edge."""
    dx, dy = v1[0] - v0[0], v1[1] - v0[1]
    steps = math.gcd(abs(dx), abs(dy))
    d = (dx // steps, dy // steps)
    return upoly.trim([f.coeff((v0[0] + i * d[0], v0[1] + i * d[1]))
                       for i in range(steps + 1)])


def _eliminant(slices, polys):
    """(e, None), e a nonzero list in x whose roots hold the x of every common zero,
    or (None, h), h a nonconstant common factor of ``polys``.

    e is ``slices.eliminant()``, from the system's ``PlaneSlices``, unless
    both of its resultants vanish.  Only then can a factor that involves y
    be shared, so only then is the gcd taken.  When that is constant, p0
    and p1 still share a factor h: the system splits into [h] + rest and
    [p0/h, p1/h] + rest, and the product of their eliminants stays a proof
    without ever enumerating field elements.
    """
    e = slices.eliminant()
    if e is not None:
        return e, None
    h = mpoly.bivariate_gcd(polys)
    if h.total_degree() >= 1:
        return None, h
    h = mpoly.bivariate_gcd(polys[:2])
    halves = ([h] + polys[2:], [mpoly.divide_exact(p, h) for p in polys[:2]] + polys[2:])
    return upoly.mul(polys[0].ring.coeff_ring, *(
        _eliminant(mpoly.PlaneSlices(half, 0, 1), half)[0] for half in halves)), None


def _fibres(slices, e):
    """(m, slices.gcd_mod(m)) for each monic irreducible factor m of the eliminant e.

    The gcd's roots are the y-coordinates of the common zeros above the
    roots of m; it is None when every slice vanishes there.
    """
    if len(e) < 2:
        return ()
    return ((m, slices.gcd_mod(m)) for m, _mult in upoly.factor(e[-1].field, e)[1])


def _interior_failures(F: MPoly):
    """Witnesses against nondegeneracy on the two-dimensional face."""
    system = [F] + [D for D in (mpoly.derivative(F, 0), mpoly.derivative(F, 1)) if D]
    if len(system) == 1:
        return [{"face": "interior", "reason": "the face polynomial is a p-th power"}]
    slices = mpoly.PlaneSlices(system, 0, 1)
    e, h = _eliminant(slices, system)
    fails = []
    if e is not None:
        k = next(i for i, c in enumerate(e) if c)  # x = 0 lies outside the torus
        for m, common in _fibres(slices, e[k:]):
            if common is None:  # m divides F, F_x and F_y: a whole component
                h = mpoly.bivariate_gcd(system)
                break
            while not common[0]:
                common = common[1:]  # roots at y = 0 lie outside the torus
            if len(common) > 1:
                fails.append({"face": "interior", "x_min_poly": [list(cf.coeffs) for cf in m],
                              "reason": "common torus root of the face and its torus derivatives"})
    if h is not None:
        return [{"face": "interior", "reason": "singular along a whole component",
                 "witness": str(h)}]
    return fails


def check_nondegenerate(fbar: MPoly) -> Nondegeneracy:
    """Face-by-face nondegeneracy of fbar with respect to its Newton polygon.

    Vertices cannot fail (their face polynomial is a single monomial);
    edges fail exactly when the edge polynomial is not squarefree; the
    two-dimensional face fails when the face and both torus derivatives
    share a zero with xy != 0, decided by exact elimination.
    """
    if fbar.ring.nvars != 2:
        raise InputError("nondegeneracy applies to plane models")
    if fbar.is_zero():
        raise ZeroInput("cannot certify the zero polynomial")
    field = fbar.ring.coeff_ring
    F = _strip_monomial_content(fbar)
    P = polygon.newton_polygon(F)
    failures = []
    for v0, v1 in P.edges():
        g = _edge_coeffs(F, v0, v1)
        if upoly.degree(g) >= 1 and not upoly.is_squarefree(field, g):
            failures.append({"face": "edge", "edge": [list(v0), list(v1)],
                             "reason": "edge polynomial is not squarefree"})
    if P.double_area() > 0:
        failures.extend(_interior_failures(F))
    return Nondegeneracy(failures)


def common_affine_zero_exists(polys) -> bool:
    """Whether bivariate polynomials share an affine zero over the closure.

    Decided by exact elimination, never by enumerating field elements,
    on one ``mpoly.PlaneSlices`` of the system: a nonconstant common
    factor is a whole curve of common zeros; otherwise the common zeros
    have x-coordinates among the roots of the eliminant (``_eliminant``),
    and each irreducible factor m of it is inspected through a gcd of the
    slices over F_q[x]/(m), with coefficients reduced mod m.
    """
    polys = [p for p in polys if p]
    if not polys:
        return True
    if polys[0].ring.nvars != 2:
        raise InputError("the common-zero test works on plane systems")
    if any(p.total_degree() == 0 for p in polys):
        return False
    slices = mpoly.PlaneSlices(polys, 0, 1)
    e, h = _eliminant(slices, polys)
    return h is not None or any(common is None or len(common) > 1
                                for _m, common in _fibres(slices, e))


def plane_curve_is_smooth(F: MPoly) -> bool:
    """Geometric smoothness of a projective plane curve, decided exactly.

    The singular locus is the common zero set of F and its partial
    derivatives (F itself is kept in the system, so no assumption on the
    characteristic versus the degree is needed).  P^2 is covered once, by
    three disjoint pieces, cheapest first:

    * the point (1:0:0), where the system is evaluated;
    * the line Z = 0 with Y = 1, where the restrictions x -> g(x, 1, 0)
      share a root exactly when their gcd is nonconstant (when they all
      vanish, the whole line is singular, (1:0:0) included);
    * the chart Z != 0, decided by ``common_affine_zero_exists`` from the
      gcd of Res_y(F, F_X) and Res_y(F, F_Y) (``PlaneSlices.eliminant``,
      interpolated over F_p with p above their degree bound): smooth at
      once when it is constant, else decided by its factors.

    Each piece is an exact decision over the algebraic closure; no field
    element is enumerated.
    """
    if F.ring.nvars != 3:
        raise InputError("smoothness test expects a plane projective curve")
    if F.is_zero() or not F.is_homogeneous() or F.total_degree() < 1:
        raise InputError("expected a nonzero form of positive degree")
    field = F.ring.coeff_ring
    system = [F] + [d for d in (mpoly.derivative(F, i) for i in range(3)) if d]
    if not any(g.evaluate([field.one, field.zero, field.zero]) for g in system):
        return False
    line = mpoly.PlaneSlices([g.partial_eval({2: field.zero}) for g in system], 1, 0)
    common = line.gcd(field.one)
    if common is None or len(common) > 1:
        return False
    return not common_affine_zero_exists([mpoly.dehomogenize(g, 2) for g in system])


# ---------------------------------------------------------------------------
# point counts of the smooth toric compactification


def toric_point_count(fbar: MPoly, k: int = 1) -> int:
    """#C(F_{q^k}) for the smooth toric model attached to the polygon.

    Torus solutions are counted slice by slice through gcds with
    y^(Q-1) - 1; each edge contributes the roots of its edge polynomial
    in the one-torus.  Requires fbar to be nondegenerate, which it
    checks first, and q^k at desk scale.
    """
    if k < 1:
        raise InputError("extension degree must be positive")
    field = fbar.ring.coeff_ring
    cert = check_nondegenerate(fbar)
    if not cert.ok:
        raise DegenerateModel(f"model is degenerate: {cert.failures[:1]}")
    if field.q ** k > 2 ** 24:
        raise InputError("extension field exceeds the counting cap")
    L = ff.flat_extension(field, k)
    F = _strip_monomial_content(fbar)
    P = polygon.newton_polygon(F)
    if P.double_area() == 0:
        raise InputError("point counting needs a two-dimensional Newton polygon")
    slices = mpoly.PlaneSlices([F], 0, 1, L)

    def torus_roots_at(x0):
        s = slices.at(x0)
        if not s:
            raise DegenerateModel("the model vanishes on a vertical line")
        while not s[0]:
            s = s[1:]  # discard roots at y = 0
        return slices.count_roots(s)

    total = 0
    if k == 1:
        for i in range(1, L.q):
            total += torus_roots_at(L.element_at(i))
    else:
        # f has F_q coefficients, so Frobenius-conjugate slices carry
        # equally many roots: count one representative per orbit.  x -> x^q
        # is F_p-linear, so the images of L's F_p basis determine it
        frob_basis = [L.element([0] * j + [1]) ** field.q for j in range(L.n)]

        def frob(x):
            acc = L.zero
            for c, b in zip(x.coeffs, frob_basis):
                acc = acc + L.embed(c) * b
            return acc

        seen = bytearray(L.q)
        for i in range(1, L.q):
            if seen[i]:
                continue
            x0 = L.element_at(i)
            orbit = 1
            xj = frob(x0)
            j = L.index_of(xj)
            while j != i:
                seen[j] = 1
                orbit += 1
                xj = frob(xj)
                j = L.index_of(xj)
            total += orbit * torus_roots_at(x0)
    for v0, v1 in P.edges():
        g = [L.element(c) for c in _edge_coeffs(F, v0, v1)]
        total += upoly.count_roots(L, g)
    return total


# ---------------------------------------------------------------------------
# transformation trails: replay and point transport
#
# A trail is a JSON-able list of steps recording, over F_q, every
# transformation a pipeline applied between its input and its plane model.
# Replay on the input mod p must reproduce the reduction of the lift exactly,
# and transport pushes sample points forward; both walk ``_read_trail``'s output.


def linear_step(change: mpoly.LinearChange) -> dict:
    return {"kind": "linear", "rows": change.to_json()}


def substitute_step(images, point_map=None) -> dict:
    """Variable substitution; images live in the ring of the new model.

    ``point_map`` gives, per new variable, a (numerator, denominator)
    pair of polynomials in the current variables, so points can be
    transported forward; without it samples become undefined here.
    """
    step = {"kind": "substitute", "images": [g.to_dict() for g in images]}
    if point_map is not None:
        step["point_map"] = [[num.to_dict(), den.to_dict()] for num, den in point_map]
    return step


def dehomog_step(var_name: str) -> dict:
    return {"kind": "dehomog", "var": var_name}


def project_step(keep_names, new_names) -> dict:
    return {"kind": "project", "keep": list(keep_names), "names": list(new_names)}


def gcd_step() -> dict:
    return {"kind": "gcd"}


def select_step(indices) -> dict:
    return {"kind": "select", "indices": list(indices)}


def _read_trail(trail, ring) -> list:
    """Check a stored trail and parse it once, against the input's ring.

    The one reader of the stored format; a malformed step raises
    InputError.  Each step becomes a tuple led by its kind.  ``dehomog``
    and ``project`` carry indices into the variables standing before
    them; ``linear`` carries its change and the rows of its inverse.
    """
    names, field = ring.names, ring.coeff_ring
    steps = []
    for step in trail:
        try:
            kind = step["kind"]
            if kind == "linear":
                change = mpoly.LinearChange(field, step["rows"])
                if change.size != len(names):
                    raise InputError("linear step of the wrong size for the variables")
                steps.append((kind, change, change.inverse().rows))
            elif kind == "substitute":
                images = [mpoly.from_dict(d, field) for d in step["images"]]
                if len(images) != len(names) or len({g.ring for g in images}) != 1:
                    raise InputError("substitute step needs one image per variable")
                point_map = [(mpoly.from_dict(num, field), mpoly.from_dict(den, field))
                             for num, den in step.get("point_map", ())]
                if point_map and (len(point_map) != images[0].ring.nvars or any(
                        g.ring.names != names for pair in point_map for g in pair)):
                    raise InputError("point map does not fit the variables")
                steps.append((kind, images, point_map))
                names = images[0].ring.names
            elif kind == "dehomog":
                i = names.index(step["var"])
                steps.append((kind, i))
                names = names[:i] + names[i + 1:]
            elif kind == "project":
                keep = [names.index(nm) for nm in step["keep"]]
                new_ring = PolyRing(field, step["names"])
                if new_ring.nvars != len(keep):
                    raise InputError("projection keeps a variable per new name")
                steps.append((kind, keep, new_ring))
                names = new_ring.names
            elif kind == "gcd":
                steps.append((kind,))
            elif kind == "select":
                steps.append((kind, [operator.index(i) for i in step["indices"]]))
            else:
                raise InputError(f"not a known kind of trail step: {step!r}")
        except (KeyError, TypeError, ValueError, SingularMatrix) as exc:
            raise InputError(f"malformed trail step {step!r}: {exc!r}") from None
    return steps


def replay_mod_p(gens, trail) -> MPoly:
    """Re-run a trail on the mod-p input; the result must equal reduceModP(f)."""
    if not gens:
        raise InputError("nothing to replay")
    state = list(gens)
    for kind, *data in _read_trail(trail, gens[0].ring):
        if kind == "linear":
            state = [data[0].apply(f) for f in state]
        elif kind == "substitute":
            state = [mpoly.substitute(f, data[0]) for f in state]
        elif kind == "dehomog":
            state = [mpoly.dehomogenize(f, data[0]) for f in state]
        elif kind == "project":
            keep, ring = data
            if any(f.degree_in(i) > 0 for f in state for i in range(f.ring.nvars)
                   if i not in keep):
                raise InputError("projected-away variable still occurs")
            state = [ring.from_terms((tuple(e[i] for i in keep), c)
                                     for e, c in f.terms.items()) for f in state]
        elif kind == "gcd":
            state = [mpoly.bivariate_gcd(state)]
        else:  # select, the one kind left
            if not all(0 <= i < len(state) for i in data[0]):
                raise InputError(f"select {data[0]!r} outside the {len(state)} models")
            state = [state[i] for i in data[0]]
    if len(state) != 1:
        raise InputError("trail did not reduce the input to a single model")
    return state[0]


def forward_point(coords, names, trail, L):
    """Transport a point of the input model through a stored trail.

    The trail is read against ``names`` over L.  Returns the image
    coordinates in L, or None when some step is undefined at the point
    (vanishing denominator, projection center, and so on).
    """
    return _transport(_in_scalars(_read_trail(trail, PolyRing(L, names)), L), coords, L)


def _in_scalars(steps, L):
    """The read trail with each linear inverse in the scalar form of L, F_q or a field over it."""
    K = mpoly._scalars(L)
    return [(kind, K, [[K.to(a) for a in row] for row in data[1]])
            if kind == "linear" else (kind, *data) for kind, *data in steps]


def _transport(steps, coords, L):
    """``forward_point`` on a read trail in the scalar form of L (``_in_scalars``)."""
    coords = tuple(L.element(c) for c in coords)
    for kind, *data in steps:
        if kind == "linear":
            K, rows = data
            xs = [K.to(c) for c in coords]
            coords = tuple(K.back(K.norm(functools.reduce(K.add, map(K.mul, row, xs))))
                           for row in rows)
        elif kind == "substitute":
            if not data[1]:
                return None  # no point map
            new = []
            for num, den in data[1]:
                dval = den.evaluate(coords, into=L)
                if not dval:
                    return None
                new.append(num.evaluate(coords, into=L) * dval.inverse())
            coords = tuple(new)
        elif kind == "dehomog":
            i = data[0]
            if not coords[i]:
                return None
            inv = coords[i].inverse()
            coords = tuple(c * inv for j, c in enumerate(coords) if j != i)
        elif kind == "project":
            coords = tuple(coords[i] for i in data[0])
        # gcd and select leave the point where it is
    return coords


# ---------------------------------------------------------------------------
# lift reports


class LiftReport:
    """Everything needed to re-verify a lift: model, claims, and trail."""

    __slots__ = ("order", "f", "gamma", "genus", "target", "target_vertices",
                 "baker", "trail", "input_kind", "input_gens", "seed", "checks",
                 "notes")

    def __init__(self, order, f, gamma, genus, target, target_vertices, baker,
                 trail, input_kind, input_gens, seed=None, checks=None, notes=None):
        self.order = order
        self.f = f
        self.gamma = int(gamma)
        self.genus = int(genus)
        self.target = str(target)
        self.target_vertices = tuple((int(a), int(b)) for a, b in target_vertices)
        self.baker = bool(baker)
        self.trail = list(trail)
        self.input_kind = str(input_kind)
        self.input_gens = list(input_gens)
        self.seed = seed
        self.checks = dict(checks) if checks else {}
        self.notes = list(notes) if notes else []

    @property
    def field(self):
        return self.order.field

    def reduction(self) -> MPoly:
        """The lift mod p, in the same variables over the residue field."""
        ring = PolyRing(self.field, self.f.ring.names)
        return self.f.map_coefficients(self.order.reduce_mod_p, ring)

    def target_polygon(self) -> polygon.LatticePolygon:
        return polygon.LatticePolygon(self.target_vertices)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "order": {"p": self.order.p, "m": [int(c) for c in self.order.m]},
            "kind": self.input_kind,
            "input": [g.to_dict() for g in self.input_gens],
            "f": self.f.to_dict(),
            "gamma": self.gamma,
            "genus": self.genus,
            "target": {"name": self.target,
                       "vertices": [list(v) for v in self.target_vertices]},
            "baker": self.baker,
            "trail": self.trail,
            "seed": self.seed,
            "checks": self.checks,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, data) -> "LiftReport":
        """The report of ``to_json``; InputError on any other data.

        A target named in ``polygon.FORCED_ZEROS`` must store that table's
        vertices, since ``polygon_containment`` checks the stored ones.
        No term of ``f``, of the input or of a ``substitute`` step's images
        and point map may have a total degree above 4 for the kind
        "quartic", else above the largest a + b of a target vertex: it
        would only fail a check, after work that grows with it.
        """
        if not isinstance(data, dict) or data.get("schema") != "v1":
            raise InputError("unknown report schema")
        try:
            order = ok.OkRing(data["order"]["p"], data["order"]["m"])
            field = order.field
            report = cls(order=order,
                         f=mpoly.from_dict(data["f"], order),
                         gamma=data["gamma"],
                         genus=data["genus"],
                         target=data["target"]["name"],
                         target_vertices=data["target"]["vertices"],
                         baker=data["baker"],
                         trail=data["trail"],
                         input_kind=data["kind"],
                         input_gens=[mpoly.from_dict(d, field) for d in data["input"]],
                         seed=data.get("seed"),
                         checks=data.get("checks"),
                         notes=data.get("notes"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed report: {exc!r}") from None
        if (report.target in polygon.FORCED_ZEROS
                and report.target_vertices != polygon.target(report.target).vertices):
            raise InputError(f"the stored vertices of target {report.target!r} "
                             "are not the table's")
        try:
            stored = [mpoly.from_dict(d, field) for step in report.trail
                      if step.get("kind") == "substitute"
                      for d in [*step["images"], *itertools.chain(*step.get("point_map", ()))]]
        except (AttributeError, KeyError, TypeError) as exc:
            raise InputError(f"malformed trail: {exc!r}") from None
        bound = 4 if report.input_kind == "quartic" else max(
            (a + b for a, b in report.target_vertices), default=0)
        if any(h.total_degree() > bound for h in [report.f, *report.input_gens, *stored]):
            raise InputError(f"a stored term has a degree above {bound}, the bound of "
                             f"kind {report.input_kind!r} and target {report.target!r}")
        return report


def sample_birational(report: LiftReport, samples: int = 50, rng=None) -> dict:
    """Push sample points of the input model through the trail onto the lift.

    Points are drawn over F_q and F_{q^2}; a point counts as defined
    when every trail step is defined on it, and the check passes only
    when all defined images are zeros of the reduced lift.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    try:
        rng = rng or random.Random(report.seed if report.seed is not None else 0)
    except TypeError:
        raise InputError(f"the report's seed {report.seed!r} seeds no generator") from None
    field = report.field
    ext = ff.flat_extension(field, 2)
    red = report.reduction()
    pool = []
    try:
        for pt in sample_curve_points(report.input_gens, (samples + 1) // 2, rng):
            pool.append((pt.coords, field))
        for pt in sample_curve_points(report.input_gens, samples - len(pool), rng, ext=ext):
            pool.append((pt.coords, ext))
    except InputError:
        pool = []
    if not pool:
        return {"status": "skipped", "sampled": 0, "defined": 0,
                "reason": "NoSamplePoints"}
    defined = 0
    failures = []
    read = _read_trail(report.trail, report.input_gens[0].ring)
    # the one reading, with each linear inverse in the scalar form of F_q and
    # F_{q^2}, and the reduced lift's terms in the same form, converted once
    forms = {}
    for L in (field, ext):
        K = mpoly._scalars(L)
        forms[L] = _in_scalars(read, L), K, [(e, K.to(c)) for e, c in red.terms.items()]
    for coords, L in pool:
        steps, K, terms = forms[L]
        img = _transport(steps, coords, L)
        if img is None:
            continue
        defined += 1
        if K.norm(K.evaluate(red.terms, terms, [K.to(c) for c in img])) != K.zero:
            failures.append([str(c) for c in coords])
    if defined == 0:
        return {"status": "skipped", "sampled": len(pool), "defined": 0,
                "reason": "no sample survived the trail"}
    status = "pass" if not failures else "fail"
    return {"status": status, "sampled": len(pool), "defined": defined,
            "failures": failures[:5]}


def run_checks(report: LiftReport, samples: int = 50, rng=None) -> dict:
    """Fill in the report's certificate map; returns the map."""
    red = report.reduction()
    yi = report.f.ring.index_of_name("y")
    checks = {}
    replay = replay_mod_p(report.input_gens, report.trail)
    checks["reduction_replay"] = "pass" if replay == red else "fail"
    checks["gamma_degree"] = ("pass" if report.f.degree_in(yi) == report.gamma
                              else "fail")
    tpoly = report.target_polygon()
    checks["polygon_containment"] = ("pass" if tpoly.contains(
        polygon.newton_polygon(report.f)) else "fail")
    cert = check_nondegenerate(red)
    checks["nondegenerate"] = "pass" if cert.ok else "fail"
    if report.baker:
        # Equal polygons plus interior count = the mod-p genus certify
        # attainment over the order by semicontinuity; nondegeneracy is
        # a sufficient but not necessary extra.
        same = (polygon.newton_polygon(report.f).vertices
                == polygon.newton_polygon(red).vertices)
        count = len(polygon.newton_polygon(red).interior_points())
        checks["baker_attained"] = ("pass" if same and count == report.genus
                                    else "fail")
    else:
        checks["baker_attained"] = "skipped"
    checks["sample_birational"] = sample_birational(report, samples, rng)["status"]
    report.checks.update(checks)
    return checks


def overall_status(checks: dict) -> str:
    """Fatal verdict over the certificate map.

    Nondegeneracy is advisory here: it gates toric point counting, not
    the lifting conditions, and honest lifts of curves that happen to
    touch a coordinate line would otherwise be reported as failures.
    """
    return "fail" if any(v == "fail" for k, v in checks.items()
                         if k != "nondegenerate") else "pass"
