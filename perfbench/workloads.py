"""Seeded inputs, the timed engine call and the exact output check of each workload.

Every workload draws its inputs from `random.Random` streams keyed by the
workload name and the seed, so one seed always gives the same inputs.  The
engine sees only those inputs; it is reached through module attributes
(`twists.apply_braid`, not a name bound at import) so that the tracer's
patches apply to the calls made here too.

Inputs are sorted into strata by size (the generator count of the complex
the engine starts from) and played in rounds with a fixed number of cases
from each stratum.  The case cost grows steeply with size, so a plain random
stream would let the handful of large cases in a run decide its throughput;
fixed quotas keep each run's size mix, and with it the figures, the same
from seed to seed.  The quotas stay close to the generator's natural size
distribution (listed next to them), with the largest sizes somewhat
over-represented so that every run holds several of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from twistcat import homcore, rootlat, stability, twists
from twistcat import reduce as reduction
from twistcat.zigzag import ZigzagAlgebra

@dataclass
class Case:
    """One timed engine call: `item` is a pool entry, `variant` selects the call."""

    case_id: int
    stratum: tuple
    item_id: int
    item: object
    variant: str
    expect: object = None
    round_end: bool = False  # last case of its round


@dataclass
class Stratum:
    key: tuple
    quota: int  # cases per round
    size: int  # distinct inputs in the pool
    pool: list = field(default_factory=list)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def draw_charge(alg: ZigzagAlgebra, rng: random.Random) -> stability.CentralCharge:
    """A small exact charge that separates every pair of positive roots."""
    n = alg.quiver.vertex_count
    while True:
        charge = stability.CentralCharge(
            stability.ExactComplex(
                Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
                Fraction(rng.randint(1, 12), rng.randint(1, 8)),
            )
            for _ in range(n)
        )
        if stability.StabilityCondition(alg, charge).validate_generic():
            return charge


def random_braid(rng: random.Random, n: int, length: int) -> twists.BraidWord:
    return twists.BraidWord(tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(length)))


def fill_strata(strata: list[Stratum], draw, key_of, draws: int, tick) -> None:
    """Sort `draws` candidates into the strata, each keeping at most `size` of them.

    A fixed number of draws keeps the set-up time steady across seeds; only
    if a stratum is still empty after them does drawing go on.
    """
    by_key = {s.key: s for s in strata}
    for n in range(20 * draws):
        if n >= draws and all(s.pool for s in strata):
            return
        item = draw()
        tick()
        stratum = by_key.get(key_of(item))
        if stratum is not None and len(stratum.pool) < stratum.size:
            stratum.pool.append(item)
    raise RuntimeError(f"input generator left a stratum empty after {20 * draws} draws")


def gens_bucket(gens: int, edges: tuple[int, ...]) -> int | None:
    """Index of the size bucket [edges[i], edges[i+1]) holding `gens`; None past the cap."""
    for i in range(len(edges) - 1):
        if edges[i] <= gens < edges[i + 1]:
            return i
    return None


class Workload:
    """Pools of inputs per stratum, and the infinite round-robin schedule over them."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False, tick=lambda: None):
        self.seed = seed
        self.tiny = tiny
        self.tick = tick  # called between set-up steps (host-speed samples)
        self.strata: list[Stratum] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def schedule(self):
        """Cases forever: each round takes `quota` pool entries from every stratum, shuffled.

        Pools are walked in order and wrap around, so a long run repeats
        inputs; a repeat must reproduce the first result exactly.
        """
        order_rng = _rng(self.name, self.seed, "order")
        cursor = {s.key: 0 for s in self.strata}
        case_id = 0
        while True:
            picks = []
            for s in self.strata:
                for _ in range(s.quota):
                    picks.append((s, cursor[s.key] % len(s.pool)))
                    cursor[s.key] += 1
            order_rng.shuffle(picks)
            cases = []
            for s, i in picks:
                for variant in self.variants_of(case_id + len(cases)):
                    cases.append(Case(case_id + len(cases), s.key, i, s.pool[i], variant,
                                      self.expectation(variant)))
            cases[-1].round_end = True
            case_id += len(cases)
            yield from cases

    def variants_of(self, case_id: int) -> tuple[str, ...]:
        """The calls made on one pool entry, starting at case `case_id`."""
        return ("",)

    def expectation(self, variant: str):
        """The verdict a case must reach, where construction fixes one."""
        return None

    def run(self, case: Case):
        """The timed engine work of one case."""
        raise NotImplementedError

    def check(self, case: Case, result) -> str | None:
        """Exact invariant checks on a result; returns a failure description or None."""
        raise NotImplementedError

    def digest_item(self, case: Case, result):
        """Implementation-independent JSON summary of a result (for digests and repeats)."""
        raise NotImplementedError

    def properties(self, case: Case, result) -> dict:
        """Input properties of one case: generator count and largest Hom^0 basis size."""
        raise NotImplementedError


def _hom0_dim(x, y) -> int:
    return homcore.HomComplex(x, y).dim_at(0)


# -- probe-e -----------------------------------------------------------------


@dataclass
class _ProbeTarget:
    type_name: str
    charge_index: int
    label: str  # "root:<coords>" for stable targets, "braid:<text>@<vertex>" otherwise
    obj: object
    root: tuple | None  # set for stable targets


# (type, charges, height groups, stable cases per round, braid cases per round).
# Probe cost depends on the charge as much as on the target (the mean over
# E7 targets ranges 46-82 ms across charges), so every type is probed under
# several charges; E8 under three, since each of its stable tables takes
# about two seconds.  E8 targets are stable objects only.  Per round of 11
# cases the median falls among the E7 cases and p90 among the E8 ones.
PROBE_TYPES = (("E6", 4, 6, 2, 2), ("E7", 4, 6, 3, 2), ("E8", 3, 8, 2, 0))
PROBE_TINY = (("E6", 1, 2, 2, 2),)


class ProbeE(Workload):
    """phi_probes on E6, E7 and E8 against stable objects and braid images of simples.

    Stable targets are drawn one per height group of the roots sorted by
    height, for every charge, so each pool spans the whole range of
    stable-object sizes.  Braid targets apply a word of 1-6 letters to a
    simple.
    """

    name = "probe-e"

    def build(self) -> None:
        self.stabs: dict[tuple[str, int], stability.StabilityCondition] = {}
        for type_name, n_charges, groups, stable_quota, braid_quota in (
            PROBE_TINY if self.tiny else PROBE_TYPES
        ):
            q = rootlat.named_quiver(type_name)
            alg = ZigzagAlgebra(q)
            rng = _rng(self.name, self.seed, type_name)
            for c in range(n_charges):
                stab = stability.StabilityCondition(alg, draw_charge(alg, rng))
                stab.stable_table()
                self.tick()
                self.stabs[(type_name, c)] = stab
            roots = sorted(self.stabs[(type_name, 0)].roots, key=lambda w: (sum(w), w))
            edges = [len(roots) * g // groups for g in range(groups + 1)]
            stable = Stratum((type_name, "stable"), stable_quota, groups * n_charges)
            for g in range(groups):
                for c in range(n_charges):
                    w = roots[rng.randrange(edges[g], edges[g + 1])]
                    stable.pool.append(_ProbeTarget(
                        type_name, c, "root:" + ",".join(map(str, w)),
                        self.stabs[(type_name, c)].stable_object(w), w,
                    ))
            self.strata.append(stable)
            if not braid_quota:
                continue
            braid = Stratum((type_name, "braid"), braid_quota, groups * n_charges)
            for i in range(braid.size):
                word = random_braid(rng, q.vertex_count, rng.randint(1, 6))
                v = rng.randrange(q.vertex_count)
                obj = twists.apply_braid(alg, word, homcore.simple_object(alg, v))
                self.tick()
                label = f"braid:{twists.braid_word_to_text(word)}@{v + 1}"
                braid.pool.append(_ProbeTarget(type_name, i % n_charges, label, obj, None))
            self.strata.append(braid)

    def run(self, case: Case):
        t = case.item
        return self.stabs[(t.type_name, t.charge_index)].phi_probes(t.obj)

    def check(self, case: Case, result) -> str | None:
        t = case.item
        stab = self.stabs[(t.type_name, t.charge_index)]
        bottom, top = result
        for hit in (bottom, top):
            if hit.root not in stab.roots:
                return f"probe hit {hit.root} is not a positive root"
            if hit.phase != stab.phase_of_root(hit.root, hit.shift):
                return f"probe hit phase does not match Z({hit.root})[{hit.shift}]"
        if top.phase < bottom.phase:
            return "top phase lies below bottom phase"
        if t.root is not None:
            want = stab.phase_of_root(t.root, 0)
            if not (bottom.phase == top.phase == want and bottom.root == top.root == t.root):
                return f"stable object of {t.root} probes to {bottom.root}[{bottom.shift}], {top.root}[{top.shift}]"
        return None

    def digest_item(self, case: Case, result):
        t = case.item
        bottom, top = result
        return [t.type_name, t.charge_index, t.label,
                list(bottom.root), bottom.shift, list(top.root), top.shift]

    def properties(self, case: Case, result) -> dict:
        obj = case.item.obj
        return {"gens": len(obj.generators), "hom0_basis": _hom0_dim(obj, obj)}


# -- reduce-long -------------------------------------------------------------


@dataclass
class _ReduceInput:
    type_name: str
    alg: ZigzagAlgebra
    charge: stability.CentralCharge | None  # drawn once the entry is accepted
    word: twists.BraidWord
    vertex: int
    gens: int  # generator count of the start complex


# Start complexes of 25 generators and more (about 2 % of draws) are left
# out.  Their reductions take 0.5-2 s with a spread of half that at equal
# size, so the few a run could fit would decide its throughput, and a 10-letter
# word on A3 now and then gives one of 90+ that outlasts a run.
REDUCE_EDGES = (1, 2, 5, 10, 15, 20, 25)
# per type and round: cases of size 1, 2-4, 5-9, 10-14, 15-19, 20-24 (the
# natural shares are about 17, 40, 30, 7, 3 and 1.2 %)
REDUCE_QUOTAS = (5, 12, 9, 2, 1, 1)
REDUCE_POOLS = (16, 40, 30, 12, 8, 6)
REDUCE_DRAWS = 600


class ReduceLong(Workload):
    """What `twistcat reduce` does: a fresh charge, apply_braid, reduce_to_stable.

    Cases alternate between the bottom strategy (untwist, coevaluation) and
    the top strategy (twist, evaluation); the strategy is part of the case,
    not of the pool entry, so every input runs both ways over a run.
    """

    name = "reduce-long"

    def build(self) -> None:
        for type_name in ("A3", "D4"):
            q = rootlat.named_quiver(type_name)
            alg = ZigzagAlgebra(q)
            rng = _rng(self.name, self.seed, type_name)
            strata = [
                Stratum((type_name, b), quota, 1 if self.tiny else size)
                for b, (quota, size) in enumerate(zip(REDUCE_QUOTAS, REDUCE_POOLS))
            ]
            if self.tiny:
                strata = strata[:3]

            def draw():
                word = random_braid(rng, q.vertex_count, rng.randint(5, 10))
                v = rng.randrange(q.vertex_count)
                start = twists.apply_braid(alg, word, homcore.simple_object(alg, v))
                return _ReduceInput(type_name, alg, None, word, v, len(start.generators))

            fill_strata(strata, draw,
                        lambda item: (item.type_name, gens_bucket(item.gens, REDUCE_EDGES)),
                        draws=20 if self.tiny else REDUCE_DRAWS, tick=self.tick)
            charge_rng = _rng(self.name, self.seed, type_name + ":charges")
            for s in strata:
                for item in s.pool:
                    item.charge = draw_charge(alg, charge_rng)
                    self.tick()
            self.strata += strata

    def variants_of(self, case_id: int) -> tuple[str, ...]:
        return ("bottom",) if case_id % 2 == 0 else ("top",)

    def run(self, case: Case):
        it = case.item
        stab = stability.StabilityCondition(it.alg, it.charge)
        start = twists.apply_braid(it.alg, it.word, homcore.simple_object(it.alg, it.vertex))
        return start, reduction.reduce_to_stable(stab, start, strategy=case.variant)

    def check(self, case: Case, result) -> str | None:
        it = case.item
        start, trace = result
        stab = stability.StabilityCondition(it.alg, it.charge)
        lo, hi = stab.phi_probes(trace.final)
        if not (hi.phase - lo.phase).is_zero():
            return "final object has nonzero spread"
        cls = trace.final.k_class()
        if cls not in stab.roots and tuple(-c for c in cls) not in stab.roots:
            return f"final class {cls} is not a root"
        return None

    def digest_item(self, case: Case, result):
        _, trace = result
        return [case.variant, [[list(s.root), s.shift, s.exponent] for s in trace.steps]]

    def properties(self, case: Case, result) -> dict:
        start, trace = result
        return {"gens": len(start.generators), "hom0_basis": _hom0_dim(start, start),
                "zero_steps": not trace.steps}


# -- orbit-iso ---------------------------------------------------------------


@dataclass
class _OrbitPair:
    type_name: str
    label: str
    x: object
    y_word: twists.BraidWord
    vertex: int
    y: object = None  # built once the pair is accepted, as is y_shift2
    y_shift2: object = None


# Pairs whose x has 15 generators or more (about a fifth of draws) are left
# out.  From there the cost per pair climbs from 0.4 s to 5 s at 30, with a
# spread of half that at equal size, and one x of 93 takes 100 s; the run's
# throughput would hang on the few such pairs it could fit.
ORBIT_EDGES = (1, 2, 5, 10, 15)
# per type and round: pairs with x of size 1, 2-4, 5-9, 10-14 (natural
# shares about 10, 35, 40 and 15 %)
ORBIT_QUOTAS = (2, 6, 7, 3)
ORBIT_POOLS = (8, 24, 28, 40)
ORBIT_DRAWS = 300


class OrbitIso(Workload):
    """find_isomorphism on braid-relation pairs, with a shifted copy as the negative.

    x applies prefix . (s_a s_b s_a) . suffix to a simple and y the same
    word with (s_b s_a s_b) in the middle, for an edge (a, b) and one sign
    on all three letters, so x and y are isomorphic.  y[2] has the class of
    x but is never isomorphic to it: each pair gives a positive case and,
    right after it, a negative one.
    """

    name = "orbit-iso"

    def build(self) -> None:
        for type_name in ("A3", "D4"):
            q = rootlat.named_quiver(type_name)
            alg = ZigzagAlgebra(q)
            n = q.vertex_count
            rng = _rng(self.name, self.seed, type_name)
            edges = sorted(q.edges)
            strata = [
                Stratum((type_name, b), quota, 1 if self.tiny else size)
                for b, (quota, size) in enumerate(zip(ORBIT_QUOTAS, ORBIT_POOLS))
            ]
            if self.tiny:
                strata = strata[:3]

            def draw():
                prefix = random_braid(rng, n, rng.randint(6, 9))
                suffix = random_braid(rng, n, rng.randint(0, 2))
                a, b = rng.choice(edges)
                if rng.random() < 0.5:
                    a, b = b, a
                e = rng.choice((1, -1))
                v = rng.randrange(n)
                lhs = twists.BraidWord(((a, e), (b, e), (a, e)))
                rhs = twists.BraidWord(((b, e), (a, e), (b, e)))
                x = twists.apply_braid(alg, prefix.then(lhs).then(suffix),
                                       homcore.simple_object(alg, v))
                y_word = prefix.then(rhs).then(suffix)
                label = (f"{twists.braid_word_to_text(prefix.then(lhs).then(suffix))}"
                         f" ~ {twists.braid_word_to_text(y_word)} @{v + 1}")
                return _OrbitPair(type_name, label, x, y_word, v)

            fill_strata(strata, draw,
                        lambda pair: (pair.type_name, gens_bucket(len(pair.x.generators), ORBIT_EDGES)),
                        draws=20 if self.tiny else ORBIT_DRAWS, tick=self.tick)
            for s in strata:
                for pair in s.pool:
                    pair.y = twists.apply_braid(alg, pair.y_word,
                                                homcore.simple_object(alg, pair.vertex))
                    pair.y_shift2 = pair.y.shift(2)
                    self.tick()
            self.strata += strata

    def variants_of(self, case_id: int) -> tuple[str, ...]:
        return ("same", "shift2")

    def expectation(self, variant: str):
        return variant == "same"

    def run(self, case: Case):
        pair = case.item
        return homcore.find_isomorphism(pair.x, pair.y if case.variant == "same" else pair.y_shift2)

    def check(self, case: Case, result) -> str | None:
        witness, _ = result
        if (witness is not None) != case.expect:
            return f"verdict {witness is not None}, expected {case.expect}"
        if witness is not None:
            if witness.degree != 0 or not witness.is_closed():
                return "witness is not a closed degree-0 map"
            if not homcore.minimize(homcore.cone(witness)).is_zero:
                return "witness has a non-acyclic cone"
        return None

    def digest_item(self, case: Case, result):
        return [case.item.label, case.variant, result[0] is not None]

    def properties(self, case: Case, result) -> dict:
        pair = case.item
        return {"gens": len(pair.x.generators), "hom0_basis": _hom0_dim(pair.x, pair.y),
                "equal_after_minimize": homcore.minimize(pair.x) == homcore.minimize(pair.y)}


WORKLOADS = {cls.name: cls for cls in (ProbeE, ReduceLong, OrbitIso)}


def make_workload(name: str, seed: int, tiny: bool = False, tick=lambda: None) -> Workload:
    return WORKLOADS[name](seed, tiny, tick)
