"""Single-layer kernels on fixed operands, timed with tracing off.

The operands come from a fixed seed, not the run's seed, so every run
times the same work.  Each figure is the median of several repeats.
"""

from __future__ import annotations

import random
import statistics
import time

from gonalift import ff, mpoly, upoly

KERNEL_SEED = 20160507
P = 1009


def _per_op_ns(op, operands, repeats=5, min_s=0.02):
    """Median ns per call of ``op`` over ``operands``, looped to ``min_s``."""
    def timed(rounds):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a, b in operands:
                op(a, b)
        return time.perf_counter() - t0

    rounds = 1
    while (first := timed(rounds)) < min_s:
        rounds *= 2
    samples = [first] + [timed(rounds) for _ in range(repeats - 1)]
    return statistics.median(samples) / (rounds * len(operands)) * 1e9


def _call_ms(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def _field_ops(field, rng, n=200):
    pairs = [(field.random_nonzero(rng), field.random_nonzero(rng)) for _ in range(n)]
    return {
        "mul": _per_op_ns(lambda a, b: a * b, pairs),
        "inv": _per_op_ns(lambda a, _b: a.inverse(), pairs),
    }


def _random_monic(field, degree, rng):
    return [field.random_element(rng) for _ in range(degree)] + [field.one]


def _bivariate(field, dx, dy, rng):
    ring = mpoly.PolyRing(field, ("x", "y"))
    terms = [((i, j), field.random_element(rng))
             for i in range(dx + 1) for j in range(dy + 1)]
    terms.append(((0, dy), field.one))
    return ring.from_terms(terms)


def run_kernels():
    """Kernel metrics: name -> (value, unit)."""
    rng = random.Random(KERNEL_SEED)
    fp = ff.FqField(P)
    fp2 = ff.FqField(P, 2)
    tower = ff.FqExtField(ff.FqField(5, 2), 2)
    out = {}
    for tag, field in (("fp", fp), ("fp2", fp2), ("tower", tower)):
        ops = _field_ops(field, rng)
        out[f"ff.mul_ns.{tag}"] = (ops["mul"], "ns")
        out[f"ff.inv_ns.{tag}"] = (ops["inv"], "ns")
        quartic = _random_monic(field, 4, rng)
        out[f"upoly.roots_ms.{tag}"] = (
            _call_ms(lambda: upoly.roots(field, quartic), 5), "ms")
    # (x - 1)(x - 2): both roots lie in F_p, which no shift from F_p separates
    split = upoly.mul(fp2, [fp2.element(-1), fp2.one], [fp2.element(-2), fp2.one])
    out["upoly.roots_ms.split_fp2"] = (_call_ms(lambda: upoly.roots(fp2, split), 1), "ms")
    f = _bivariate(fp, 2, 4, rng)
    g = _bivariate(fp, 2, 3, rng)
    out["mpoly.resultant_ms.bivar"] = (_call_ms(lambda: mpoly.resultant(f, g, 1), 3), "ms")
    return out
