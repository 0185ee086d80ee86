"""The four workloads: seeded operation lists, how to run them, how to check them.

``generate(workload, seed)`` returns the operation list as plain data and
needs no library.  ``bind`` turns it into calls on an imported circlelab;
``Checker`` verifies one operation's output against ``oracles`` (and
sympy's totient), sharing no code with the library.  Inputs are sized from a cost
model so that the operations of a workload cost about the same whatever the
seed: a pass is a fixed list of operation slots whose shapes are drawn from
the seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import oracles as O

WORKLOADS = ("tail-union", "set-query", "scans", "maps")

# -- cost model constants (see perfbench/README.md, "Workloads") -------------------

# raw arcs per tail-union operation, scaled per (command, exponent) so that
# every slot costs about the same
TAIL_ARCS = 7000
TAIL_WEIGHT = {
    ("gallagher", 3): 0.8,
    ("gallagher", 2): 0.8,
    ("cassels", 3): 0.38,
    ("cassels", 2): 0.4,
    ("measure", 3): 1.0,
    ("measure", 2): 1.0,
}
PHI_LIMIT = 3000

# standing sets of set-query: (n_min, n_max, predicate, c, a)
STANDING_A = (2, 300, O.Pred("all"), Fraction(1), 3)
STANDING_B = (2, 300, O.Pred("all"), Fraction(1, 4), 2)
MEMBER_POINTS = 500
DENSITY_RADII = {"A": 2, "B": 4}

WITNESS_N_MAX = 100
# the CLI cannot print partial sums over 4,300 digits (lcm of n**a up to the cap)
DS_CAP = {1: 4096, 2: 4096, 3: 2048}

# cost budget per maps operation, in the cost units of gen_maps, so that
# each operation costs about 5 ms; cases are drawn until the budget is met
MAPS_BUDGET = {
    "preimage": 660,
    "is_invariant": 660,
    "inclusion_i": 75,
    "inclusion_ii": 150,
    "inclusion_iii": 190,
    "inclusion_iv": 260,
    "ao": 105,
    "measure_set": 50,
    "density_set": 50,
}
CONJUGATION_MAPS = 8


@dataclass(frozen=True)
class OpSpec:
    """One operation: its kind and its parameters, as plain data."""

    kind: str
    params: tuple

    def __str__(self) -> str:
        return f"{self.kind}{self.params}"


@dataclass
class Env:
    """Everything set-up produces: the library, the operations, standing sets."""

    lib: object
    specs: list[OpSpec]
    calls: list = field(default_factory=list)
    standing: dict = field(default_factory=dict)


# -- generation --------------------------------------------------------------------


def _rand_pred(rng: random.Random) -> O.Pred:
    simple = [
        O.Pred("all"),
        O.Pred("ndvd", 2),
        O.Pred("ndvd", 3),
        O.Pred("exact", 2),
        O.Pred("exact", 3),
        O.Pred("ndvd", 5),
    ]
    roll = rng.randrange(4)
    if roll == 0:
        return O.Pred("or", 0, O.Pred("sq", 2), rng.choice(simple[1:]))
    if roll == 1:
        return O.Pred("or", 0, rng.choice(simple[1:]), rng.choice(simple[1:]))
    return rng.choice(simple)


def _rand_delta(rng: random.Random, a: int) -> O.PowerDelta:
    # exponent 3 gives thousands of disjoint arcs; exponent 2 with a small
    # coefficient gives heavily overlapping ones (c = 1 would collapse to one arc)
    if a == 3:
        c = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(3, 2), Fraction(2)])
    else:
        c = rng.choice([Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(1, 8), Fraction(3, 16), Fraction(1, 10)])
    return O.PowerDelta(c, a)


class _ArcCount:
    """Raw arc counts sum phi(n) over a predicate, for sizing tail unions."""

    def __init__(self):
        self.phi = O.phi_table(PHI_LIMIT)

    def count(self, n_min: int, n_max: int, pred) -> int:
        return sum(self.phi[n] for n in range(n_min, n_max + 1) if pred(n))

    def n_max_for(self, cost, target: int) -> int:
        n = 20
        while cost(n) < target:
            n += 5
            if n > PHI_LIMIT:
                raise ValueError("tail-union sizing ran past the totient table")
        return n


def gen_tail_union(rng: random.Random) -> list[OpSpec]:
    arcs = _ArcCount()
    specs = []
    for _ in range(2):
        for a in (3, 2):
            # gallagher: a schedule of three truncation starts, all orders
            d = _rand_delta(rng, a)
            s1 = rng.randint(2, 6)
            f2 = rng.uniform(0.2, 0.35)
            f3 = rng.uniform(0.45, 0.6)
            target = TAIL_ARCS * TAIL_WEIGHT[("gallagher", a)]

            def sched(n, s1=s1, f2=f2, f3=f3):
                return [s1, max(s1 + 1, int(n * f2)), max(s1 + 2, int(n * f3))]

            n_max = arcs.n_max_for(lambda n: sum(arcs.count(s, n, O.Pred("all")) for s in sched(n)), target)
            specs.append(OpSpec("gallagher", (d.text(), tuple(sched(n_max)), n_max)))

            # cassels: radii delta and m * delta over a predicate.  Its cost
            # follows the merged size of both unions, so m * c stays small
            # enough that the scaled union does not collapse to a few arcs.
            cs = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)] if a == 3 else [Fraction(1, 8), Fraction(1, 10)]
            d = O.PowerDelta(rng.choice(cs), a)
            m = rng.choice([Fraction(3, 2), Fraction(2)])
            pred = _rand_pred(rng)
            n_min = rng.randint(2, 6)
            target = TAIL_ARCS * TAIL_WEIGHT[("cassels", a)]
            n_max = arcs.n_max_for(lambda n: 2 * arcs.count(n_min, n, pred), target)
            specs.append(OpSpec("cassels", (d.text(), O.frac_text(m), pred.text(), n_min, n_max)))

            # measure --delta: one tail union over a predicate
            d = _rand_delta(rng, a)
            pred = _rand_pred(rng)
            n_min = rng.randint(2, 6)
            target = TAIL_ARCS * TAIL_WEIGHT[("measure", a)]
            n_max = arcs.n_max_for(lambda n: arcs.count(n_min, n, pred), target)
            specs.append(OpSpec("measure", (d.text(), pred.text(), n_min, n_max)))
    return specs


def _rand_point(rng: random.Random) -> Fraction:
    """Half the points sit just off an order point m/n, half are generic."""
    if rng.random() < 0.5:
        n = rng.randint(2, 300)
        m = rng.randrange(n)
        while gcd(m, n) != 1:
            m = rng.randrange(n)
        off = Fraction(rng.choice([-1, 1]), rng.randint(2, 20) * n**3)
        return (Fraction(m, n) + off) % 1
    q = rng.randint(1000, 10**6)
    return Fraction(rng.randrange(q), q)


def _rand_radius(rng: random.Random) -> Fraction:
    return Fraction(1, rng.randint(20, 200))


def gen_set_query(rng: random.Random) -> list[OpSpec]:
    specs = []
    for target in ("A", "B"):
        x = _rand_point(rng)
        radii = [_rand_radius(rng)]
        while len(radii) < DENSITY_RADII[target]:
            radii.append(radii[-1] / rng.randint(2, 6))
        specs.append(OpSpec("density", (target, str(x), tuple(map(str, radii)))))
    specs.append(OpSpec("member", tuple(str(_rand_point(rng)) for _ in range(MEMBER_POINTS))))
    for kind in ("and_ball", "sub_ball", "le_ball"):
        specs.append(OpSpec(kind, (str(_rand_point(rng)), str(_rand_radius(rng)))))
    for target in ("A", "B"):
        specs.append(OpSpec("sdm_ball", (target, str(_rand_point(rng)), str(_rand_radius(rng)))))
    specs.append(OpSpec("and_sets", ()))
    specs.append(OpSpec("sub_sets", ()))
    specs.append(OpSpec("le_sets", ()))
    specs.append(OpSpec("sdm_sets", ()))
    return specs


def gen_scans(rng: random.Random) -> list[OpSpec]:
    specs = []
    for a in (1, 2, 3, 1, 2, 3):
        q = rng.randint(50, 5000)
        x = Fraction(rng.randrange(q), q)
        wa = 1 + (a % 2)
        wc = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3)])
        specs.append(OpSpec("witnesses", (str(x), O.PowerDelta(wc, wa).text(), WITNESS_N_MAX)))
        c = rng.choice([Fraction(1), Fraction(7, 3), Fraction(1, 10), Fraction(5, 2), Fraction(1, 4)])
        specs.append(OpSpec("duffin-schaeffer", (O.PowerDelta(c, a).text(), DS_CAP[a])))
    return specs


def _rand_small_set(rng: random.Random) -> tuple:
    """Up to a few dozen arcs with endpoints on small denominators, 0 < measure < 1."""
    while True:
        k = rng.randint(3, 24)
        arcs = []
        for _ in range(k):
            d = rng.randint(3, 60)
            arcs.append((str(Fraction(rng.randrange(d), d)), str(Fraction(1, rng.randint(d, 4 * d)))))
        mu = O.measure(O.arcs_segments((Fraction(s), Fraction(l)) for s, l in arcs))
        if 0 < mu < 1:
            return tuple(arcs)


def _rand_offset(rng: random.Random) -> str:
    q = rng.randint(1, 12)
    return str(Fraction(rng.randrange(q), q))


def gen_maps(rng: random.Random) -> list[OpSpec]:
    specs = []
    for grid in (8, 10, 12, 14, 16):
        specs.append(OpSpec("ergodic-search", (rng.randint(2, 5), _rand_offset(rng), grid)))
    phi = O.phi_table(200)

    def batch(kind, draw, cost):
        cases, total = [], 0
        while total < MAPS_BUDGET[kind]:
            cases.append(draw())
            total += cost(cases[-1])
        specs.append(OpSpec(kind, tuple(cases)))

    def small_map():
        return (rng.randint(2, 5), _rand_offset(rng), _rand_small_set(rng))

    def pieces(case):
        # a preimage makes n pieces of each arc
        return case[0] * len(case[2])

    for _ in range(2):
        batch("preimage", small_map, pieces)
        batch("is_invariant", small_map, pieces)
        specs.append(OpSpec("conjugation", tuple(
            (rng.randint(2, 6), _rand_offset(rng), tuple(str(Fraction(rng.randrange(97), 97)) for _ in range(32)))
            for _ in range(CONJUGATION_MAPS))))

    def coprime_to(n, lo, hi):
        while True:
            m = rng.randint(lo, hi)
            if gcd(m, n) == 1:
                return m

    def radius(n):
        return str(Fraction(1, rng.randint(4 * n, 40 * n)))

    def inc_i():
        n = rng.randint(3, 30)
        return (coprime_to(n, 2, 7), n, radius(n))

    def inc_ii():
        n = rng.randint(2, 12)
        return (rng.randint(2, 4), n, radius(n))

    def inc_iii():
        # a = 1/q has order q, coprime to n
        n = rng.randint(2, 20)
        q = coprime_to(n, 2, 7)
        return (str(Fraction(1, q)), n, radius(n * q))

    def inc_iv():
        # a = p/q of order q, with q**2 dividing n
        q = rng.randint(2, 5)
        n = q * q * rng.randint(1, 6)
        return (str(Fraction(coprime_to(q, 1, q - 1), q)), n, radius(n))

    # cost: the arcs of the approximate-order sets each check builds
    batch("inclusion_i", inc_i, lambda c: phi[c[1]])
    batch("inclusion_ii", inc_ii, lambda c: phi[c[0] * c[1]] + phi[c[1]])
    batch("inclusion_iii", inc_iii, lambda c: phi[c[1]] + phi[Fraction(c[0]).denominator * c[1]])
    batch("inclusion_iv", inc_iv, lambda c: 2 * phi[c[1]])

    def ao():
        # the radius is given directly or as delta_n = c/n**2; either is < 1/(2n)
        n = rng.randint(10, 40)
        if rng.random() < 0.5:
            return (n, "--radius", str(Fraction(1, rng.randint(2 * n + 1, 20 * n))))
        c = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2), Fraction(4)])
        return (n, "--delta", O.PowerDelta(c, 2).text())

    def density_case():
        # a point near an arc's start, so the ratios are not all 0 or 1
        arcs = _rand_small_set(rng)
        x = (Fraction(rng.choice(arcs)[0]) + Fraction(rng.choice([-1, 1]), rng.randint(100, 1000))) % 1
        radii = [Fraction(1, rng.randint(10, 40))]
        while len(radii) < 3:
            radii.append(radii[-1] / rng.randint(2, 6))
        return (arcs, str(x), tuple(map(str, radii)))

    # a CLI call costs about as much as 20 arcs on top of the arcs it builds or parses
    batch("ao", ao, lambda c: phi[c[0]] + 20)
    batch("measure_set", lambda: _rand_small_set(rng), lambda c: len(c) + 20)
    batch("density_set", density_case, lambda c: len(c[0]) + 20)
    return specs


GENERATORS = {
    "tail-union": gen_tail_union,
    "set-query": gen_set_query,
    "scans": gen_scans,
    "maps": gen_maps,
}


def generate(workload: str, seed: int) -> list[OpSpec]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- binding to the library -----------------------------------------------------------


def cli_call(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _arcs_json(arcs: tuple) -> str:
    return json.dumps({"arcs": [{"start": s, "length": length} for s, length in arcs]})


def standing_sets(lib) -> dict:
    def build(spec):
        n_min, n_max, pred, c, a = spec
        return lib.tail_union(lib.TailUnionSpec(n_min, n_max, lib.parse_predicate(pred.text()), lib.Power(c, a)))

    return {"A": build(STANDING_A), "B": build(STANDING_B)}


def bind(env: Env) -> None:
    """Fill env.calls with one zero-argument callable per operation."""
    lib = env.lib
    F = Fraction
    pt = lib.CirclePoint

    def bind_one(spec: OpSpec):
        k, p = spec.kind, spec.params
        if k == "gallagher":
            d, sched, n_max = p
            argv = ["gallagher", "--delta", d, "--n-min-schedule", ",".join(map(str, sched)), "--n-max", str(n_max)]
            return lambda: cli_call(lib, argv)
        if k == "cassels":
            d, m, pred, n_min, n_max = p
            argv = ["cassels", "--delta", d, "--m", m, "--pred", pred, "--n-min", str(n_min), "--n-max", str(n_max)]
            return lambda: cli_call(lib, argv)
        if k == "measure":
            d, pred, n_min, n_max = p
            argv = ["measure", "--delta", d, "--pred", pred, "--n-min", str(n_min), "--n-max", str(n_max)]
            return lambda: cli_call(lib, argv)
        if k == "witnesses":
            x, d, n_max = p
            argv = ["witnesses", "--x", x, "--delta", d, "--n-max", str(n_max)]
            return lambda: cli_call(lib, argv)
        if k == "duffin-schaeffer":
            d, cap = p
            argv = ["duffin-schaeffer", "--delta", d, "--cap", str(cap)]
            return lambda: cli_call(lib, argv)
        if k == "ergodic-search":
            n, x, grid = p
            argv = ["ergodic-search", "--n", str(n), "--x", x, "--grid", str(grid)]
            return lambda: cli_call(lib, argv)
        if k == "ao":
            argvs = [["ao", "--n", str(n), flag, text] for n, flag, text in p]
            return lambda: [cli_call(lib, a) for a in argvs]
        if k == "measure_set":
            argvs = [["measure", "--set", _arcs_json(arcs)] for arcs in p]
            return lambda: [cli_call(lib, a) for a in argvs]
        if k == "density_set":
            argvs = [["density", "--set", _arcs_json(arcs), "--x", x, "--eps", ",".join(radii), "--output", "json"]
                     for arcs, x, radii in p]
            return lambda: [cli_call(lib, a) for a in argvs]

        sets = env.standing
        if k == "density":
            s, x, radii = sets[p[0]], pt(F(p[1])), [F(r) for r in p[2]]
            return lambda: lib.density_profile(s, x, radii)
        if k == "member":
            pts = [pt(F(x)) for x in p]
            a, b = sets["A"], sets["B"]
            return lambda: ([x in a for x in pts], [x in b for x in pts])
        if k in ("and_ball", "sub_ball", "le_ball"):
            b = lib.ball(pt(F(p[0])), F(p[1]))
            a, bb = sets["A"], sets["B"]
            if k == "and_ball":
                return lambda: (a & b, bb & b)
            if k == "sub_ball":
                return lambda: (a - b, bb - b)
            return lambda: (b <= a, b <= bb)
        if k == "sdm_ball":
            s, b = sets[p[0]], lib.ball(pt(F(p[1])), F(p[2]))
            return lambda: s.symm_diff_measure(b)
        if k in ("and_sets", "sub_sets", "le_sets", "sdm_sets"):
            a, b = sets["A"], sets["B"]
            return {
                "and_sets": lambda: a & b,
                "sub_sets": lambda: a - b,
                "le_sets": lambda: b <= a,
                "sdm_sets": lambda: a.symm_diff_measure(b),
            }[k]

        if k in ("preimage", "is_invariant"):
            jobs = [
                (lib.AffineCircleMap(n, pt(F(x))), lib.ArcSet.from_arcs(lib.arc(F(s), F(l)) for s, l in arcs))
                for n, x, arcs in p
            ]
            if k == "preimage":
                return lambda: [t.preimage(s) for t, s in jobs]
            return lambda: [t.is_invariant(s) for t, s in jobs]
        if k == "conjugation":
            jobs = [(n, pt(F(x)), [pt(F(y)) for y in ys]) for n, x, ys in p]
            return lambda: [lib.conjugation_check(n, x, ys) for n, x, ys in jobs]
        if k in ("inclusion_i", "inclusion_ii"):
            f = lib.check_inclusion_i if k == "inclusion_i" else lib.check_inclusion_ii
            jobs = [(m, n, F(d)) for m, n, d in p]
            return lambda: [f(m, n, d) for m, n, d in jobs]
        if k in ("inclusion_iii", "inclusion_iv"):
            f = lib.check_inclusion_iii if k == "inclusion_iii" else lib.check_inclusion_iv
            jobs = [(pt(F(a)), n, F(d)) for a, n, d in p]
            return lambda: [f(a, n, d) for a, n, d in jobs]
        raise ValueError(f"unknown operation kind {k!r}")

    env.calls = [bind_one(s) for s in env.specs]


# -- independent checks ------------------------------------------------------------------


def _parse_delta(text: str) -> O.PowerDelta:
    kind, c, a = text.split(":")
    assert kind == "power"
    return O.PowerDelta(Fraction(c), int(a))


def _parse_pred(text: str) -> O.Pred:
    if text.startswith("or("):
        inner = text[3:-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                return O.Pred("or", 0, _parse_pred(inner[:i]), _parse_pred(inner[i + 1:]))
    if text == "all":
        return O.Pred("all")
    kind, p = text.split(":")
    return O.Pred(kind, int(p))


def _segments(arcs: tuple) -> list:
    return O.arcs_segments((Fraction(s), Fraction(length)) for s, length in arcs)


class OpFailed(Exception):
    """The operation reported an error instead of an answer: a failure, not a wrong answer."""


def _ran(out) -> tuple[int, str, str]:
    # exit 2 is an answer whose verdicts failed; the report checks catch it
    rc, text, err = out
    if rc not in (0, 2) or err:
        raise OpFailed(f"exit {rc}: {err.strip()}")
    return out


class Checker:
    """Caches oracle results shared between operations of one run."""

    def __init__(self, env: Env):
        import sympy

        self.env = env
        self._unions: dict = {}
        self._phi: list[int] = [0]
        self._totient = sympy.totient
        self.verified: dict = {}

    def phi(self, limit: int) -> list[int]:
        while len(self._phi) <= limit:
            self._phi.append(int(self._totient(len(self._phi))))
        return self._phi

    def union(self, n_min, n_max, pred_text, delta: O.PowerDelta) -> list:
        key = (n_min, n_max, pred_text, delta.c, delta.a)
        if key not in self._unions:
            self._unions[key] = O.tail_union_segments(n_min, n_max, _parse_pred(pred_text), delta)
        return self._unions[key]

    def bound(self, delta: O.PowerDelta, n_min: int, n_max: int) -> Fraction:
        return 2 * O.weighted_totient_sums(self.phi(n_max), delta.c, delta.a, n_min, [n_max])[0]

    def standing(self, name: str) -> tuple[list, list]:
        """The standing set's segments, verified once against the sweep oracle."""
        if name not in self.verified:
            n_min, n_max, pred, c, a = STANDING_A if name == "A" else STANDING_B
            segs = self.union(n_min, n_max, pred.text(), O.PowerDelta(c, a))
            if tuple(segs) != self.env.standing[name].segments:
                raise AssertionError(f"standing set {name} differs from the sweep oracle")
            self.verified[name] = (segs, [lo for lo, _ in segs])
        return self.verified[name]

    def check(self, spec: OpSpec, out) -> bool:
        return getattr(self, "_" + spec.kind.replace("-", "_"))(spec.params, out)

    # -- tail-union ----------------------------------------------------------------

    @staticmethod
    def _report(out) -> dict:
        _, text, _ = _ran(out)
        report = json.loads(text)
        if not all(v["pass"] for v in report["verdicts"]):
            raise AssertionError("a verdict failed")
        return {r["label"]: Fraction(r["exact"]) for r in report["rows"]}

    def _gallagher(self, p, out) -> bool:
        d, sched, n_max = p
        delta = _parse_delta(d)
        rows = self._report(out)
        measures = []
        for s in sched:
            mu = O.measure(self.union(s, n_max, "all", delta))
            if rows[f"measure[n_min={s}]"] != mu or rows[f"upper_bound[n_min={s}]"] != self.bound(delta, s, n_max):
                return False
            measures.append(mu)
        return all(a >= b for a, b in zip(measures, measures[1:])) and len(rows) == 2 * len(sched)

    def _cassels(self, p, out) -> bool:
        d, m, pred, n_min, n_max = p
        delta = _parse_delta(d)
        scale = Fraction(m)
        rows = self._report(out)
        w1 = self.union(n_min, n_max, pred, delta)
        wm = self.union(n_min, n_max, pred, delta.scaled(scale))
        subset = O.measure(O.intersect(w1, wm)) == O.measure(w1)
        return (
            subset
            and rows["measure[m=1]"] == O.measure(w1)
            and rows[f"measure[m={m}]"] == O.measure(wm)
            and rows["symm_diff_measure"] == O.measure(wm) - O.measure(w1)
        )

    def _measure(self, p, out) -> bool:
        d, pred, n_min, n_max = p
        delta = _parse_delta(d)
        rows = self._report(out)
        segs = self.union(n_min, n_max, pred, delta)
        # the CLI prints only the measure, so compare the library's segments too
        lib = self.env.lib
        w = lib.tail_union(lib.TailUnionSpec(n_min, n_max, lib.parse_predicate(pred), lib.parse_delta(d)))
        return rows["measure"] == O.measure(segs) and w.segments == tuple(segs)

    # -- set-query -----------------------------------------------------------------

    def _ball(self, x: str, r: str) -> tuple[list, Fraction]:
        segs = O.ball_segments(Fraction(x), Fraction(r))
        return segs, O.measure(segs)

    def _density(self, p, out) -> bool:
        segs, _ = self.standing(p[0])
        expected = []
        for r in p[2]:
            b, mu_b = self._ball(p[1], r)
            expected.append((Fraction(r), O.measure(O.intersect(segs, b)) / mu_b))
        return list(out) == expected

    def _member(self, p, out) -> bool:
        for name, got in zip("AB", out):
            segs, starts = self.standing(name)
            if got != [O.contains(segs, starts, Fraction(x)) for x in p]:
                return False
        return True

    def _and_ball(self, p, out) -> bool:
        b, _ = self._ball(*p)
        return all(got.segments == tuple(O.intersect(self.standing(n)[0], b)) for n, got in zip("AB", out))

    def _sub_ball(self, p, out) -> bool:
        b, _ = self._ball(*p)
        return all(got.segments == tuple(O.difference(self.standing(n)[0], b)) for n, got in zip("AB", out))

    def _le_ball(self, p, out) -> bool:
        b, mu_b = self._ball(*p)
        return list(out) == [O.measure(O.intersect(self.standing(n)[0], b)) == mu_b for n in "AB"]

    def _sdm_ball(self, p, out) -> bool:
        segs, _ = self.standing(p[0])
        b, mu_b = self._ball(p[1], p[2])
        return out == O.measure(segs) + mu_b - 2 * O.measure(O.intersect(segs, b))

    def _and_sets(self, p, out) -> bool:
        return out.segments == tuple(O.intersect(self.standing("A")[0], self.standing("B")[0]))

    def _sub_sets(self, p, out) -> bool:
        return out.segments == tuple(O.difference(self.standing("A")[0], self.standing("B")[0]))

    def _le_sets(self, p, out) -> bool:
        a, b = self.standing("A")[0], self.standing("B")[0]
        return out == (O.measure(O.intersect(a, b)) == O.measure(b))

    def _sdm_sets(self, p, out) -> bool:
        a, b = self.standing("A")[0], self.standing("B")[0]
        return out == O.measure(a) + O.measure(b) - 2 * O.measure(O.intersect(a, b))

    # -- scans ------------------------------------------------------------------------

    def _witnesses(self, p, out) -> bool:
        x, d, n_max = p
        got = json.loads(_ran(out)[1])["witnesses"]
        return got == O.witnesses(Fraction(x), _parse_delta(d), n_max)

    def _duffin_schaeffer(self, p, out) -> bool:
        d, cap = p
        delta = _parse_delta(d)
        rows = self._report(out)
        cutoffs = []
        m = 2
        while m <= cap:
            cutoffs.append(m)
            m *= 2
        sums = O.weighted_totient_sums(self.phi(cutoffs[-1]), delta.c, delta.a, 1, cutoffs)
        report = json.loads(out[1])
        divergent = delta.a <= 2
        return (
            [rows[f"partial_sum[n_max={c}]"] for c in cutoffs] == sums
            and len(rows) == len(cutoffs)
            and report["params"]["series"] == ("divergent" if divergent else "convergent")
        )

    # -- maps ----------------------------------------------------------------------------

    def _ergodic_search(self, p, out) -> bool:
        # for n >= 2 the map is ergodic: only the empty set and the circle are invariant
        return json.loads(_ran(out)[1]) == [
            {"arcs": []},
            {"arcs": [{"start": "0", "length": "1"}]},
        ]

    def _preimage(self, p, out) -> bool:
        for (n, x, arcs), got in zip(p, out):
            s = _segments(arcs)
            starts = [lo for lo, _ in s]
            pre = list(got.segments)
            if O.measure(pre) != O.measure(s):
                return False
            # every preimage piece maps into the set: probe its midpoint
            if not all(O.contains(s, starts, n * (lo + hi) / 2 + Fraction(x)) for lo, hi in pre):
                return False
        return True

    def _is_invariant(self, p, out) -> bool:
        # 0 < measure < 1 for every generated set, and y -> n*y + x (n >= 2) is ergodic
        return out == [False] * len(p)

    def _conjugation(self, p, out) -> bool:
        return out == [True] * len(p)

    def _inclusion_i(self, p, out) -> bool:
        return out == [True] * len(p)

    _inclusion_ii = _inclusion_iii = _inclusion_iv = _inclusion_i

    def _ao(self, p, out) -> bool:
        for (n, flag, text), one in zip(p, out):
            delta = Fraction(text) if flag == "--radius" else _parse_delta(text)(n)
            got = {(Fraction(a["start"]), Fraction(a["length"])) for a in json.loads(_ran(one)[1])["arcs"]}
            want = {((Fraction(m, n) - delta) % 1, 2 * delta) for m in range(n) if gcd(m, n) == 1}
            if got != want or sum(length for _, length in got) != 2 * self.phi(n)[n] * delta:
                return False
        return True

    def _measure_set(self, p, out) -> bool:
        return all(self._report(one) == {"measure": O.measure(_segments(arcs))} for arcs, one in zip(p, out))

    def _density_set(self, p, out) -> bool:
        for (arcs, x, radii), one in zip(p, out):
            segs = _segments(arcs)
            got = [(Fraction(row["eps"]), Fraction(row["ratio"])) for row in json.loads(_ran(one)[1])["rows"]]
            want = []
            for r in radii:
                b, mu_b = self._ball(x, r)
                want.append((Fraction(r), O.measure(O.intersect(segs, b)) / mu_b))
            if got != want:
                return False
        return True
