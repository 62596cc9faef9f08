"""germ-hard: library calls to ``indices.local_indices`` on distinct germs
that are not quasi-homogeneous.

Each plane germ is ``x^p + y^q`` plus 1-3 extra monomials ``x^i y^j`` in
the band ``i/p + j/q >= 0.7`` around the Newton segment, some below it,
with the Hamiltonian field plus seeded nonzero multiples of ``f``.  Every third
germ is a space curve: the plane germ ``{f = 0, z = 0}`` and its field,
extended by ``lambda * z + c * f``, pulled back through the triangular
automorphism ``(x, y, z) -> (x, y, z + t(x, y))`` of C^3 with ``t`` a
seeded quadratic form.

The germ shapes (p, q and the extra exponents) come from a fixed catalog
drawn once by the rule above, so every seed exercises the same mix of
cheap and expensive shapes: Mora's cost swings from milliseconds to far
beyond the time limit with the shape, and drawing shapes per seed would
make every run a different workload.  The seed draws everything else: the
order the catalog is walked, all coefficients, the field multiples and the
automorphism.  No germ is ever dropped for being slow; a coefficient draw
is redrawn only when it makes the germ Newton-degenerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from refs import local_quotient_dim, newton_nondegenerate, newton_number

CATALOG_SIZE = 24
ROUND_SIZE = CATALOG_SIZE
SPACE_EVERY = 3
# At the seed commit the 20 fast shapes take under 1 s and the other 4 over
# 6 s; a limit in that gap makes the same germs time out on every run.
TIME_LIMIT_S = 2.0
RUN_UNIT = ROUND_SIZE  # a run measures whole rounds
UNIT_SECONDS = 10.5  # one round at the seed commit, 2-core x86 host
TRACE_JOBS = ROUND_SIZE

_COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]
_MULTIPLES = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Shape:
    p: int
    q: int
    extras: tuple[tuple[int, int], ...]
    space: bool


def catalog() -> list[Shape]:
    rng = random.Random("germ-hard catalog 1")
    shapes = []
    while len(shapes) < CATALOG_SIZE:
        p = rng.randint(3, 5)
        q = rng.randint(p + 1, 7)
        count, extras = rng.choices((1, 2, 3), (9, 8, 3))[0], set()
        while len(extras) < count:
            i, j = rng.randint(1, p - 1), rng.randint(1, q - 1)
            if i * q + j * p >= 0.7 * p * q:
                extras.add((i, j))
        shapes.append(Shape(p, q, tuple(sorted(extras)),
                            space=len(shapes) % SPACE_EVERY == SPACE_EVERY - 1))
    return shapes


@dataclass
class Job:
    ident: str
    germ: object
    field: object
    plane_terms: dict
    mu_ref: int
    tau_ref: int | None = None  # filled in lazily when the job is checked


def _derivative(terms: dict, i: int) -> dict:
    out = {}
    for e, c in terms.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _draw_terms(rng: random.Random, shape: Shape) -> dict:
    while True:
        terms = {(shape.p, 0): Fraction(1), (0, shape.q): Fraction(1)}
        for e in shape.extras:
            terms[e] = rng.choice(_COEFFS)
        if newton_nondegenerate(terms):
            return terms


def _build(gsv, rng: random.Random, shape: Shape, ident: str) -> Job:
    indices, P = gsv.indices, gsv.poly.Polynomial
    terms = _draw_terms(rng, shape)
    mu_ref = newton_number(terms)
    c1, c2 = rng.choice(_MULTIPLES), rng.choice(_MULTIPLES)
    plane = ("x", "y")
    f = P(plane, terms)
    fx, fy = f.partial_derivative(0), f.partial_derivative(1)
    u1, u2 = fy + f.scaled(c1), -fx + f.scaled(c2)
    if not shape.space:
        return Job(ident, indices.CurveGerm((f,)),
                   indices.VectorFieldGerm((u1, u2)), terms, mu_ref)
    space = ("x", "y", "z")
    x, y, z = (P.variable(space, i) for i in range(3))

    def embed(p):
        return P(space, {e + (0,): c for e, c in p.terms.items()})

    t = ((x * x).scaled(rng.choice(_COEFFS)) + (x * y).scaled(rng.choice(_COEFFS))
         + (y * y).scaled(rng.choice(_COEFFS)))
    lam, c3 = rng.choice(_COEFFS), rng.choice(_MULTIPLES)
    g, big_z = embed(f), z + t
    # field U = (u1, u2, lam*Z + c3*f) is tangent to {f = 0, Z = 0}; its
    # pullback is inverse(DPhi) * U(Phi) with DPhi unipotent lower-triangular
    w1, w2 = embed(u1), embed(u2)
    w3 = (big_z.scaled(lam) + g.scaled(c3) - t.partial_derivative(0) * w1
          - t.partial_derivative(1) * w2)
    return Job(ident, indices.CurveGerm((big_z, g)),
               indices.VectorFieldGerm((w1, w2, w3)), terms, mu_ref)


def job_stream(gsv, seed: int, workdir):
    """Endless deterministic stream of distinct germs for ``seed``."""
    rng = random.Random(f"germ-hard {seed}")
    shapes = catalog()
    seen = set()
    n = 0
    while True:
        for k in rng.sample(range(len(shapes)), len(shapes)):
            while True:
                job = _build(gsv, rng, shapes[k], f"g{n}-shape{k}")
                key = (str(job.germ.equations), str(job.field.components))
                if key not in seen:
                    break
            seen.add(key)
            n += 1
            yield job


def run(gsv, job: Job):
    return gsv.indices.local_indices(job.germ, job.field)


def check(job: Job, report):
    """(wrong, undecided) messages; both None for a verified result."""
    if job.tau_ref is None:
        f = job.plane_terms
        job.tau_ref = local_quotient_dim(
            [f, _derivative(f, 0), _derivative(f, 1)], 2)
    expected = {"gsv": 0, "milnor": job.mu_ref, "schwartz": job.mu_ref,
                "tau": job.tau_ref}
    got = {key: getattr(report, key) for key in expected}
    if got != expected:
        return f"{job.ident}: expected {expected}, got {got}", None
    if report.anomalies:
        return None, "; ".join(report.anomalies)
    return None, None
