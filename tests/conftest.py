import contextlib
import importlib.util
import math
import pathlib
from fractions import Fraction
from functools import total_ordering
from unittest import mock

import pytest

from twistcat import (
    CentralCharge,
    ExactComplex,
    StabilityCondition,
    ZigzagAlgebra,
    named_quiver,
)
from twistcat import twists
from twistcat.homcore import Entries, HomComplex, TwistedComplex, _fits
from twistcat.verify import random_image, random_word  # noqa: F401  (shared with the test modules)


def load_script(name: str):
    """The module of scripts/<name>.py, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def a3_reference_charge() -> CentralCharge:
    """The exact A3 charge (-1 + i/2, i, 1/2 + i/4) used in the golden tests."""
    return CentralCharge(
        [
            ExactComplex.of(-1, Fraction(1, 2)),
            ExactComplex.of(0, 1),
            ExactComplex.of(Fraction(1, 2), Fraction(1, 4)),
        ]
    )


def a2_reference_charge() -> CentralCharge:
    return CentralCharge([ExactComplex.of(-1, Fraction(1, 2)), ExactComplex.of(0, 1)])


@pytest.fixture(scope="session")
def a2():
    return named_quiver("A2")


@pytest.fixture(scope="session")
def a3():
    return named_quiver("A3")


@pytest.fixture(scope="session")
def d4():
    return named_quiver("D4")


@pytest.fixture(scope="session")
def alg_a2(a2):
    return ZigzagAlgebra(a2)


@pytest.fixture(scope="session")
def alg_a3(a3):
    return ZigzagAlgebra(a3)


@pytest.fixture(scope="session")
def alg_d4(d4):
    return ZigzagAlgebra(d4)


@pytest.fixture(scope="session")
def stab_a3(alg_a3):
    return StabilityCondition(alg_a3, a3_reference_charge())


@pytest.fixture(scope="session")
def stab_a2(alg_a2):
    return StabilityCondition(alg_a2, a2_reference_charge())


def cross(a: ExactComplex, b: ExactComplex) -> Fraction:
    """Positive exactly when arg(b) > arg(a), for a, b with arguments in [0, pi)."""
    return a.re * b.im - a.im * b.re


@total_ordering
class FractionPhase:
    """Oracle for `Phase`: k + arg(z)/pi kept as the shift and the Fraction
    witness z itself, with arg(z) in [0, pi); every comparison is the sign of
    a Fraction cross product and every difference a Fraction product."""

    __slots__ = ("shift", "z")

    def __init__(self, shift: int, z: ExactComplex):
        if not z.in_upper_half():
            raise ValueError("phase witness must have argument in [0, pi)")
        self.shift = shift
        self.z = z

    @classmethod
    def of(cls, z: ExactComplex, shift: int = 0) -> "FractionPhase":
        if z.is_zero():
            raise ValueError("zero has no phase")
        if z.in_upper_half():
            return cls(shift, z)
        if z.im == 0:  # negative real axis: argument pi
            return cls(shift + 1, -z)
        return cls(shift - 1, -z)  # lower half: argument in (-pi, 0)

    @classmethod
    def integer(cls, k: int) -> "FractionPhase":
        return cls(k, ExactComplex.of(1))

    def __eq__(self, other) -> bool:
        return self.shift == other.shift and cross(self.z, other.z) == 0

    def __lt__(self, other: "FractionPhase") -> bool:
        if self.shift != other.shift:
            return self.shift < other.shift
        return cross(self.z, other.z) > 0

    def __add__(self, other: int) -> "FractionPhase":
        return FractionPhase(self.shift + other, self.z)

    def __sub__(self, other: "FractionPhase") -> "FractionPhase":
        a, b = self.z, other.z  # a times the conjugate of b
        return FractionPhase.of(
            ExactComplex(a.re * b.re + a.im * b.im, a.im * b.re - a.re * b.im),
            self.shift - other.shift,
        )

    def is_zero(self) -> bool:
        return self.shift == 0 and self.z.im == 0

    def __float__(self) -> float:
        return self.shift + math.atan2(float(self.z.im), float(self.z.re)) / math.pi

    def __repr__(self) -> str:
        return f"Phase({float(self):.6f})"

    def to_json_dict(self) -> dict:
        return {
            "shift": self.shift,
            "witness": [
                self.z.re.numerator, self.z.re.denominator,
                self.z.im.numerator, self.z.im.denominator,
            ],
            "approx": round(float(self), 9),
        }


def assert_phase_is_the_oracle(phase, oracle: FractionPhase) -> None:
    """Equal phases with byte-identical output: float, repr and JSON."""
    assert phase.shift == oracle.shift
    assert phase.z == oracle.z
    assert phase.is_zero() == oracle.is_zero()
    assert float(phase) == float(oracle)
    assert repr(phase) == repr(oracle)
    assert phase.to_json_dict() == oracle.to_json_dict()


def unpruned_first_hit(stab, y, side):
    """Oracle: the probe walk over every candidate, with no generator-phase bound.

    Every (k, root) of the probe windows in the integer (k, arg position)
    order, ascending for the bottom and descending for the top.  The Hom
    test is read from `stability.hom0_is_nonzero` at call time, so a test
    that replaces it there sees this walk's calls too.
    """
    from twistcat import InvariantViolation, Phase, stability
    from twistcat.stability import ProbeHit

    bottom = side == "bottom"
    lo_y, hi_y = y.shift_range()
    pad = 0 if bottom else -2
    windows = []
    for b in stab._probe_ladder():
        lo_w, hi_w = b.obj.shift_range()
        windows.append((b.root, b.obj, lo_y - hi_w + pad, hi_y - lo_w + 3 + pad))
    ks = range(min(lo for _, _, lo, _ in windows), max(hi for _, _, _, hi in windows))
    if not bottom:
        ks = reversed(ks)
        windows.reverse()
    for k in ks:
        for w, obj, lo, hi in windows:
            if lo <= k < hi and (
                stability.hom0_is_nonzero(y, obj, k) if bottom
                else stability.hom0_is_nonzero(obj, y, -k)
            ):
                return ProbeHit(Phase(k, stab.charge.of_root(w)), w, k)
    raise InvariantViolation(
        "no stable object receives a map from the probe target" if bottom
        else "no stable object maps to the probe target"
    )


def assert_probes_match_the_unpruned_walk(stab, y):
    """phi_probes(y) hits the same (phase, root, shift) at both ends as the oracle."""
    bottom, top = stab.phi_probes(y)
    assert bottom == unpruned_first_hit(stab, y, "bottom")
    assert top == unpruned_first_hit(stab, y, "top")


def two_walk_probes(stab, y):
    """Oracle: the probe as two walks, the bottom walk and then the top walk,
    each from y's generator-phase bound, with no early end."""
    from twistcat.stability import Phases

    low, high = stab._generator_bounds(y) or (None, None)
    return Phases(stab._first_hit(y, "bottom", low), stab._first_hit(y, "top", high))


def minimize_by_passes(x: TwistedComplex) -> TwistedComplex:
    """Oracle for `minimize`: one pass over the whole differential per pivot.

    Each pass cancels the first degree-0 entry in row-major order of the
    current numbering and rebuilds the entry dict around it.
    """
    gens = list(x.generators)
    diff = dict(x.differential)
    while True:
        pivot = next(((h, g) for h, g in sorted(diff) if gens[h].shift == gens[g].shift - 1), None)
        if pivot is None:
            break
        h, g = pivot
        c = diff[pivot]
        into_h = [
            (src, Fraction(a) / c) for (tgt, src), a in diff.items() if tgt == h and src not in pivot
        ]
        from_g = [(tgt, b) for (tgt, src), b in diff.items() if src == g and tgt not in pivot]
        keep = [i for i in range(len(gens)) if i not in pivot]
        remap = {old: new for new, old in enumerate(keep)}
        new_diff: Entries = {
            (remap[t], remap[s]): e for (t, s), e in diff.items() if t in remap and s in remap
        }
        for src, a in into_h:
            for tgt, b in from_g:
                if _fits(x.alg, gens[src], gens[tgt], 1):
                    key = (remap[tgt], remap[src])
                    new_diff[key] = new_diff[key] - a * b if key in new_diff else -(a * b)
        diff = {k: e for k, e in new_diff.items() if e}
        gens = [gens[i] for i in keep]
    return TwistedComplex._trusted(x.alg, tuple(gens), diff)


def matrix_per_call(hom, d: int) -> list:
    """Oracle for `HomComplex.matrix`: the columns of D: Hom^d -> Hom^{d+1}
    with both adjacency dicts built afresh, and the degree's sign applied as
    d_X's entries are filed."""
    dom = hom.basis.get(d, [])
    cod = hom.basis.get(d + 1, [])
    if not (dom and cod):
        return [{} for _ in dom]
    rows = {pair: pos for pos, pair in enumerate(cod)}
    y_by_source = {}
    for (h2, h1), c in hom.target.differential.items():
        c = c.numerator if c.denominator == 1 else c
        y_by_source.setdefault(h1, []).append((h2, c))
    x_by_target = {}
    for (g1, g2), c in hom.source.differential.items():
        c = c.numerator if c.denominator == 1 else c
        x_by_target.setdefault(g1, []).append((g2, -c if d % 2 == 0 else c))
    cols = []
    for g, h in dom:
        col = {}
        for h2, c in y_by_source.get(h, ()):
            row = rows.get((g, h2))
            if row is not None:
                col[row] = c
        for g2, c in x_by_target.get(g, ()):
            row = rows.get((g2, h))
            if row is not None:
                col[row] = c
        cols.append(col)
    return cols


def all_cohomology_reps(hom) -> list:
    """(d, rep) for every degree d in ascending order: `HomComplex.rep_vectors`
    as Fraction-valued Morphisms, which `reps_by_degree` pins to `cocycle_reps(d)`."""
    return [(d, hom._vector_to_morphism(d, vec)) for d, vec in hom.rep_vectors()]


def reps_by_degree(hom) -> list:
    """Oracle for `all_cohomology_reps`: `cocycle_reps` degree by degree."""
    return [(d, rep) for d in hom.degrees() for rep in hom.cocycle_reps(d)]


def assert_same_complex(a: TwistedComplex, b: TwistedComplex) -> None:
    """Equal generators, and equal entries in the same key order."""
    assert a.generators == b.generators
    assert list(a.differential.items()) == list(b.differential.items())


def assert_same_reps(reps: list, oracle: list) -> None:
    """Equal (degree, entries) pairs, entries in the same key order, every one a Fraction."""
    assert [(d, list(r.entries.items())) for d, r in reps] == [
        (d, list(r.entries.items())) for d, r in oracle
    ]
    assert all(type(c) is Fraction for _, r in reps for c in r.entries.values())


def assert_vectors_are_the_reps(hom, vectors: list) -> None:
    """The (degree, vector) pairs of `HomComplex.rep_vectors`, each vector
    mapped through the Hom basis, equal the oracle's reps, entries in the
    same key order."""
    mapped = []
    for d, vec in vectors:
        basis = hom.basis[d]
        mapped.append((d, [((basis[pos][1], basis[pos][0]), vec[pos]) for pos in sorted(vec)]))
    assert mapped == [(d, list(r.entries.items())) for d, r in reps_by_degree(hom)]


@contextlib.contextmanager
def twists_checked_against_oracles():
    """Inside the block every `minimize` and `rep_vectors` call made by the
    twists is compared with its oracle; yields the number of each checked."""
    counts = {"minimize": 0, "reps": 0}
    minimize, rep_vectors = twists.minimize, HomComplex.rep_vectors

    def checked_minimize(x):
        out = minimize(x)
        assert_same_complex(out, minimize_by_passes(x))
        counts["minimize"] += 1
        return out

    def checked_reps(hom):
        out = rep_vectors(hom)
        assert_vectors_are_the_reps(hom, out)
        counts["reps"] += 1
        return out

    with mock.patch.object(twists, "minimize", checked_minimize), \
            mock.patch.object(HomComplex, "rep_vectors", checked_reps):
        yield counts
