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
  field elements, so a pass is a proof;
* ``sample_birational`` pushes points of the original model through the
  trail and evaluates the reduced lift on the images;
* ``toric_point_count`` counts points of the smooth toric
  compactification, the desk-scale stand-in for a zeta cross-check.

Failures are values carrying witnesses; exceptions are reserved for
violated preconditions.
"""

from __future__ import annotations

import math
import random

from . import ff, linalg, mpoly, ok, polygon, upoly
from .errors import DegenerateModel, InputError, WrongGammaDegree, ZeroInput
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
    field = f.ring.coeff_ring
    dx, dy = v1[0] - v0[0], v1[1] - v0[1]
    steps = math.gcd(abs(dx), abs(dy))
    d = (dx // steps, dy // steps)
    return upoly.trim([f.coeff((v0[0] + i * d[0], v0[1] + i * d[1]))
                       for i in range(steps + 1)])


def _candidate_eliminant(polys):
    """A nonzero univariate in x whose roots cover every common zero.

    Precondition: the common zero set of ``polys`` is finite (no common
    factor).  When pairwise resultants all vanish the shared factor is
    split off and both halves are handled recursively, so the result
    stays a proof without ever enumerating field elements.
    """
    field = polys[0].ring.coeff_ring
    polys = [p for p in polys if p]
    for p in polys:
        if p.degree_in(1) == 0:
            return mpoly.slice_rows(p, 0, 1)[0]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            r = mpoly.resultant(polys[i], polys[j], 1)
            if r:
                return mpoly.slice_rows(r, 0, 1)[0]
    if len(polys) < 2:
        raise InputError("eliminant of a positive-dimensional system")
    h = mpoly.bivariate_gcd(polys[:2])
    a = mpoly.divide_exact(polys[0], h)
    b = mpoly.divide_exact(polys[1], h)
    rest = polys[2:]
    e1 = _candidate_eliminant([h] + rest)
    e2 = _candidate_eliminant([a, b] + rest)
    return upoly.mul(field, e1, e2)


def _common_slice(polys, m):
    """gcd over L = F[x]/(m) of the nonzero slices p(alpha, y), alpha a root of m in L.

    For an irreducible factor m of the eliminant of ``polys``, the roots
    of this gcd are the y-coordinates of the common zeros whose
    x-coordinate is a root of m.  None when every slice vanishes, that
    is when the whole vertical line is a common zero.  L is the flat
    field of ``ff.residue_field``.
    """
    field = polys[0].ring.coeff_ring
    if upoly.degree(m) == 1:
        L, alpha = field, -m[0]
    else:
        L, alpha = ff.residue_field(field, m)
    common = None
    for p in polys:
        s = mpoly.slice_at(mpoly.slice_rows(p, 0, 1), L, alpha)
        if upoly.is_zero(s):
            continue
        common = s if common is None else upoly.gcd(L, common, s)
        if upoly.degree(common) == 0:
            break  # no later slice can make the gcd nonconstant again
    return common


def _interior_failures(F: MPoly):
    """Witnesses against nondegeneracy on the two-dimensional face."""
    field = F.ring.coeff_ring
    Fx = mpoly.derivative(F, 0)
    Fy = mpoly.derivative(F, 1)
    actives = [D for D in (Fx, Fy) if D]
    if not actives:
        return [{"face": "interior", "reason": "the face polynomial is a p-th power"}]
    g = _strip_monomial_content(mpoly.bivariate_gcd([F] + actives))
    if g.total_degree() >= 1:
        return [{"face": "interior", "reason": "singular along a whole component",
                 "witness": str(g)}]
    fails = []
    r = _candidate_eliminant([F] + actives)
    if upoly.degree(r) < 1:
        return fails
    _, pieces = upoly.factor(field, r)
    for m, _mult in pieces:
        if upoly.degree(m) == 1 and not m[0]:
            continue  # x = 0 lies outside the torus
        common = _common_slice([F] + actives, m)
        witness = {"face": "interior", "x_min_poly": [list(cf.coeffs) for cf in m]}
        if common is None:
            witness["reason"] = "the face vanishes on a vertical line"
            fails.append(witness)
            continue
        while common and not common[0]:
            common = common[1:]  # roots at y = 0 lie outside the torus
        if upoly.degree(upoly.trim(common)) >= 1:
            witness["reason"] = "common torus root of the face and its torus derivatives"
            fails.append(witness)
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

    Decided by exact elimination, never by enumerating field elements: a
    nonconstant gcd is a whole curve of common zeros; otherwise the
    eliminant confines the candidates to finitely many residue fields,
    each inspected through gcds of the slices.
    """
    polys = [p for p in polys if p]
    if not polys:
        return True
    if polys[0].ring.nvars != 2:
        raise InputError("the common-zero test works on plane systems")
    if any(p.total_degree() == 0 for p in polys):
        return False
    field = polys[0].ring.coeff_ring
    g = mpoly.bivariate_gcd(polys)
    if g.total_degree() >= 1:
        return True
    r = _candidate_eliminant(polys)
    if upoly.degree(r) < 1:
        return False
    _, pieces = upoly.factor(field, r)
    for m, _mult in pieces:
        common = _common_slice(polys, m)
        if common is None or upoly.degree(common) >= 1:
            return True
    return False


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
    * the chart Z != 0, decided by ``common_affine_zero_exists``.

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
    common = []
    for g in system:
        rows = mpoly.slice_rows(g.partial_eval({2: field.zero}), 1, 0)
        common = upoly.gcd(field, common, mpoly.slice_at(rows, field, field.one))
    if upoly.degree(common) >= 1:
        return False
    return not common_affine_zero_exists([mpoly.dehomogenize(g, 2) for g in system])


# ---------------------------------------------------------------------------
# point counts of the smooth toric compactification


def toric_point_count(fbar: MPoly, k: int = 1, cert: Nondegeneracy = None) -> int:
    """#C(F_{q^k}) for the smooth toric model attached to the polygon.

    Torus solutions are counted slice by slice through gcds with
    y^(Q-1) - 1; each edge contributes the roots of its edge polynomial
    in the one-torus.  Requires a nondegeneracy certificate (computed on
    the spot when not supplied) and q^k at desk scale.
    """
    if k < 1:
        raise InputError("extension degree must be positive")
    field = fbar.ring.coeff_ring
    if cert is None:
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
    rows = mpoly.slice_rows(F, 0, 1)

    def torus_roots_at(x0):
        s = mpoly.slice_at(rows, L, x0)
        if upoly.is_zero(s):
            raise DegenerateModel("the model vanishes on a vertical line")
        while not s[0]:
            s = s[1:]  # discard roots at y = 0
        return upoly.count_roots(L, s)

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
# Replaying the trail on the input mod p must reproduce the reduction of
# the lift exactly; the same steps transport sample points forward.


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


def _apply_step(state, step, field):
    kind = step["kind"]
    ring = state[0].ring
    if kind == "linear":
        rows = [[field.element(c) for c in row] for row in step["rows"]]
        change = mpoly.LinearChange(field, rows)
        return [change.apply(f) for f in state]
    if kind == "substitute":
        images = [mpoly.from_dict(d, field) for d in step["images"]]
        return [mpoly.substitute(f, images) for f in state]
    if kind == "dehomog":
        var = ring.index_of_name(step["var"])
        return [mpoly.dehomogenize(f, var) for f in state]
    if kind == "project":
        keep = [ring.index_of_name(nm) for nm in step["keep"]]
        new_ring = PolyRing(field, tuple(step["names"]))
        out = []
        for f in state:
            for i in range(ring.nvars):
                if i not in keep and f.degree_in(i) > 0:
                    raise InputError("projected-away variable still occurs")
            out.append(new_ring.from_terms(
                (tuple(e[i] for i in keep), c) for e, c in f.terms.items()))
        return out
    if kind == "gcd":
        return [mpoly.bivariate_gcd(list(state))]
    if kind == "select":
        return [state[i] for i in step["indices"]]
    raise InputError(f"unknown trail step kind {kind!r}")


def replay_mod_p(gens, trail, field=None) -> MPoly:
    """Re-run a trail on the mod-p input; the result must equal reduceModP(f)."""
    if not gens:
        raise InputError("nothing to replay")
    field = field if field is not None else gens[0].ring.coeff_ring
    state = list(gens)
    for step in trail:
        state = _apply_step(state, step, field)
    if len(state) != 1:
        raise InputError("trail did not reduce the input to a single model")
    return state[0]


def _forward_step(coords, names, step, L, field, inv):
    """One step of ``forward_point``; ``inv`` is a linear step's inverse over L."""
    kind = step["kind"]
    if kind in ("gcd", "select"):
        return coords, names
    if kind == "linear":
        new = tuple(sum((a * x for a, x in zip(row, coords)), L.zero) for row in inv)
        if not any(new):
            return None, names
        return new, names
    if kind == "substitute":
        if "point_map" not in step:
            return None, names
        ring = PolyRing(field, names)
        new = []
        for num_d, den_d in step["point_map"]:
            num = mpoly.from_dict(num_d, field)
            den = mpoly.from_dict(den_d, field)
            if num.ring.names != ring.names or den.ring.names != ring.names:
                raise InputError("point map is written in the wrong variables")
            dval = den.evaluate(list(coords), into=L)
            if not dval:
                return None, names
            new.append(num.evaluate(list(coords), into=L) * dval.inverse())
        new_names = tuple(step["images"][0]["vars"])
        if not any(new):
            return None, new_names
        return tuple(new), new_names
    if kind == "dehomog":
        idx = names.index(step["var"])
        if not coords[idx]:
            return None, names
        inv = coords[idx].inverse()
        new = tuple(c * inv for i, c in enumerate(coords) if i != idx)
        return new, tuple(nm for i, nm in enumerate(names) if i != idx)
    if kind == "project":
        keep = [names.index(nm) for nm in step["keep"]]
        return tuple(coords[i] for i in keep), tuple(step["names"])
    raise InputError(f"unknown trail step kind {kind!r}")


def forward_point(coords, names, trail, L, field=None, inverses=None):
    """Transport a point of the input model through the trail.

    Returns the image coordinates, or None when some step is undefined
    at the point (vanishing denominator, projection center, and so on).
    ``inverses`` is a dict that keeps the inverse of each linear step
    over L, keyed by (step index, L), so that points pushed through the
    same trail share one inversion per step and field; pass it only
    with that one trail.
    """
    field = field if field is not None else L
    inverses = {} if inverses is None else inverses
    names = tuple(names)
    coords = tuple(L.element(c) for c in coords)
    for i, step in enumerate(trail):
        inv = None
        if step["kind"] == "linear":
            inv = inverses.get((i, L))
            if inv is None:
                rows = [[L.element(field.element(c)) for c in row]
                        for row in step["rows"]]
                inv = inverses[(i, L)] = linalg.inverse(L, rows)
        coords, names = _forward_step(coords, names, step, L, field, inv)
        if coords is None:
            return None
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
        if data.get("schema") != "v1":
            raise InputError("unknown report schema")
        order = ok.OkRing(data["order"]["p"], data["order"]["m"])
        field = order.field
        return cls(order=order,
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


def sample_birational(report: LiftReport, samples: int = 50, rng=None) -> dict:
    """Push sample points of the input model through the trail onto the lift.

    Points are drawn over F_q and F_{q^2}; a point counts as defined
    when every trail step is defined on it, and the check passes only
    when all defined images are zeros of the reduced lift.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    if rng is None:
        rng = random.Random(report.seed if report.seed is not None else 0)
    field = report.field
    red = report.reduction()
    names = report.input_gens[0].ring.names
    pool = []
    try:
        for pt in sample_curve_points(report.input_gens, (samples + 1) // 2, rng):
            pool.append((pt.coords, field))
        ext = ff.flat_extension(field, 2)
        for pt in sample_curve_points(report.input_gens, samples - len(pool), rng, ext=ext):
            pool.append((pt.coords, ext))
    except InputError:
        pool = []
    if not pool:
        return {"status": "skipped", "sampled": 0, "defined": 0,
                "reason": "NoSamplePoints"}
    defined = 0
    failures = []
    inverses = {}
    for coords, L in pool:
        img = forward_point(coords, names, report.trail, L, field, inverses)
        if img is None:
            continue
        defined += 1
        if red.evaluate(list(img), into=L):
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
    replay = replay_mod_p(report.input_gens, report.trail, report.field)
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
