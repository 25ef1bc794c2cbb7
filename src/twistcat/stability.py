"""Generic standard stability data: exact charges, phases, stable objects.

A central charge assigns an exact complex number (rational real and
imaginary parts) to every simple root, landing in the half-open upper half
plane H = {Im > 0} union R_{>0}.  Phases are numbers k + arg(z)/pi with
arg in [0, pi); they are compared purely by integer comparisons and signs
of 2x2 determinants, never by floating point.  Floats appear only in
human-readable output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from pathlib import Path
from typing import NamedTuple

from .errors import InvariantViolation, NonGenericChargeError
from .homcore import TwistedComplex, hom0_is_nonzero, is_spherical, simple_object
from .rootlat import (
    QuiverGraph,
    Root,
    WeylWord,
    evaluate_word,
    minimal_word,
    positive_roots,
    root_sequence,
)
from .twists import BraidWord, apply_braid
from .zigzag import ZigzagAlgebra


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "ExactComplex":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def scale(self, c) -> "ExactComplex":
        c = Fraction(c)
        return ExactComplex(self.re * c, self.im * c)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def in_upper_half(self) -> bool:
        """Membership in H = {Im > 0} union R_{>0}."""
        return self.im > 0 or (self.im == 0 and self.re > 0)

    def __repr__(self) -> str:
        return f"({self.re})+({self.im})i"


def cross(a: ExactComplex, b: ExactComplex) -> Fraction:
    """Positive exactly when arg(b) > arg(a), for a, b with arguments in [0, pi)."""
    return a.re * b.im - a.im * b.re


@total_ordering
class Phase:
    """Exact number of the form k + arg(z)/pi, with arg(z) normalized to [0, pi).

    Represents both phases and phase differences (spreads); ordering and
    equality are decided by the integer part and a cross-product sign.
    """

    __slots__ = ("shift", "z")

    def __init__(self, shift: int, z: ExactComplex):
        if not z.in_upper_half():
            raise ValueError("phase witness must have argument in [0, pi)")
        self.shift = shift
        self.z = z

    @classmethod
    def of(cls, z: ExactComplex, shift: int = 0) -> "Phase":
        """Phase shift + arg(z)/pi for any nonzero z (principal argument)."""
        if z.is_zero():
            raise ValueError("zero has no phase")
        if z.in_upper_half():
            return cls(shift, z)
        if z.im == 0:  # negative real axis: argument pi
            return cls(shift + 1, -z)
        return cls(shift - 1, -z)  # lower half: argument in (-pi, 0)

    @classmethod
    def integer(cls, k: int) -> "Phase":
        return cls(k, ExactComplex.of(1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Phase)
            and self.shift == other.shift
            and cross(self.z, other.z) == 0
        )

    def __lt__(self, other: "Phase") -> bool:
        if self.shift != other.shift:
            return self.shift < other.shift
        return cross(self.z, other.z) > 0

    def __add__(self, other) -> "Phase":
        if isinstance(other, int):
            return Phase(self.shift + other, self.z)
        prod = self.z * other.z
        if prod.in_upper_half():
            return Phase(self.shift + other.shift, prod)
        return Phase(self.shift + other.shift + 1, -prod)

    def __sub__(self, other) -> "Phase":
        if isinstance(other, int):
            return Phase(self.shift - other, self.z)
        prod = self.z * other.z.conjugate()
        if prod.in_upper_half():
            return Phase(self.shift - other.shift, prod)
        return Phase(self.shift - other.shift - 1, -prod)

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


class CentralCharge:
    """One exact complex value per simple root, each inside H."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)
        for i, z in enumerate(self.values):
            if not z.in_upper_half():
                raise ValueError(f"charge of simple root {i} lies outside the upper half plane")

    def __len__(self) -> int:
        return len(self.values)

    def of_root(self, w: Root) -> ExactComplex:
        if len(w) != len(self.values):
            raise ValueError("root length does not match the charge")
        total = ExactComplex.of(0)
        for c, z in zip(w, self.values):
            if c:
                total = total + z.scale(c)
        return total

    def to_json_dict(self) -> dict:
        return {
            str(i + 1): [z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator]
            for i, z in enumerate(self.values)
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CentralCharge":
        if not isinstance(data, dict):
            raise ValueError("charge must be a JSON object keyed by vertex")
        values = []
        for i in range(len(data)):
            key = str(i + 1)
            if key not in data:
                raise ValueError(f"charge is missing vertex {key}")
            try:
                nre, dre, nim, dim = data[key]
                if any(type(c) is not int for c in (nre, dre, nim, dim)):
                    raise TypeError
                values.append(ExactComplex(Fraction(nre, dre), Fraction(nim, dim)))
            except (ValueError, TypeError, ZeroDivisionError):
                raise ValueError(
                    f"charge of vertex {key} must be four integers "
                    f"[re num, re den, im num, im den] with nonzero denominators, "
                    f"got {data[key]!r}"
                ) from None
        return cls(values)


def load_charge(path) -> CentralCharge:
    return CentralCharge.from_json_dict(json.loads(Path(path).read_text()))


def random_generic_charge(q: QuiverGraph, rng: random.Random) -> CentralCharge:
    """Draw small exact charges until the genericity test passes.

    Each simple gets (a/b) + (c/d)i with a in -12..12, c in 1..12 and b, d
    in 1..8.
    """
    roots = positive_roots(q)
    while True:
        values = [
            ExactComplex(
                Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
                Fraction(rng.randint(1, 12), rng.randint(1, 8)),
            )
            for _ in range(q.vertex_count)
        ]
        charge = CentralCharge(values)
        images = [charge.of_root(w) for w in roots]
        if _on_distinct_rays([images[i] for i in _by_arg(images)]):
            return charge


def _by_arg(images: list[ExactComplex]) -> list[int]:
    """Indices of `images` (all in H) in order of argument; images on one ray are adjacent."""

    def compare(i: int, j: int) -> int:
        c = cross(images[j], images[i])
        return (c > 0) - (c < 0)

    return sorted(range(len(images)), key=cmp_to_key(compare))


def _on_distinct_rays(ordered: list[ExactComplex]) -> bool:
    """Whether images listed in order of argument lie on distinct rays: no two neighbours tie."""
    return all(cross(a, b) != 0 for a, b in zip(ordered, ordered[1:]))


class ProbeHit(NamedTuple):
    """A phase witnessed by a nonzero Hom^0 with the stable object of root, shifted."""

    phase: Phase
    root: Root
    shift: int


class Phases(NamedTuple):
    """The witnessed bottom and top phases of one object, from one probe."""

    bottom: ProbeHit
    top: ProbeHit

    spread = property(
        lambda self: self.top.phase - self.bottom.phase,
        doc="Top phase minus bottom phase; zero exactly on semistable objects.",
    )
    in_heart = property(
        lambda self: Phase.integer(0) <= self.bottom.phase and self.top.phase < Phase.integer(1),
        doc="Whether both phases, and so every phase of the object, lie in [0, 1).",
    )


@dataclass
class StableBuild:
    """Everything produced while constructing the stable object of a class."""

    root: Root
    word: WeylWord
    sequence: list[Root]
    signs: tuple[int, ...]
    braid: BraidWord
    obj: TwistedComplex

    def flipped(self, i: int) -> TwistedComplex:
        """The lift with exponent i (0-based) of the braid word reversed."""
        if not 0 <= i < len(self.braid.letters):
            raise ValueError(f"no exponent {i} in a word of {len(self.braid.letters)} letters")
        letters = tuple((v, -e if j == i else e) for j, (v, e) in enumerate(self.braid.letters))
        alg = self.obj.alg
        return apply_braid(alg, BraidWord(letters), simple_object(alg, self.word.base))


class _ChargeFree:
    """The stability data of one algebra that no charge changes, shared by all its conditions.

    The positive roots (the finite-type check runs once), each root's
    minimal word and root sequence, and the lift table (base vertex, signed
    braid word) -> object; a lift enters the table only after it has passed
    the sphericity certificate.

    The record is the algebra's `charge_free` attribute, not an entry of a
    table keyed by the algebra: every stored object refers back to its
    algebra, so such a key would never be freed, while the attribute only
    forms a cycle that the garbage collector reclaims.
    """

    __slots__ = ("roots", "words", "lifts")

    def __init__(self, q: QuiverGraph):
        self.roots = positive_roots(q)
        self.words: dict[Root, tuple[WeylWord, tuple[Root, ...]]] = {}
        for w in self.roots:
            word = minimal_word(q, w)
            self.words[w] = (word, tuple(root_sequence(q, word)))
        self.lifts: dict[tuple[int, BraidWord], TwistedComplex] = {}


class StabilityCondition:
    """A generic standard stability condition on the quiver category.

    Per algebra, shared by every condition on it: the positive roots, their
    minimal words and root sequences, and the certified signed braid lifts
    (see `_ChargeFree`; a stable object depends on the charge only through
    its sign vector).  Per charge, done here: the Z image of every positive
    root, their order by argument, one genericity check, and, on first use,
    the signs of each root's word, which select the shared lift.
    """

    def __init__(self, alg: ZigzagAlgebra, charge: CentralCharge):
        if alg.charge_free is None:
            alg.charge_free = _ChargeFree(alg.quiver)
        if len(charge) != alg.quiver.vertex_count:
            raise ValueError("charge length does not match the quiver")
        self.alg = alg
        self.quiver = alg.quiver
        self.charge = charge
        self._shared: _ChargeFree = alg.charge_free
        self.roots = list(self._shared.roots)
        self._builds: dict[Root, StableBuild] = {}
        # Z per positive root, and the positive roots in order of arg Z
        self._z: dict[Root, ExactComplex] = {w: charge.of_root(w) for w in self.roots}
        self._by_arg: list[Root] = [self.roots[i] for i in _by_arg(list(self._z.values()))]
        self._generic = _on_distinct_rays([self._z[w] for w in self._by_arg])

    # -- charges and phases ------------------------------------------------

    def z(self, w: Root) -> ExactComplex:
        z = self._z.get(w)
        return z if z is not None else self.charge.of_root(w)

    def phase_of_root(self, w: Root, shift: int = 0) -> Phase:
        return Phase(shift, self.z(w))

    def validate_generic(self) -> bool:
        """Whether no two positive roots share a ray, read off the neighbours in arg order."""
        return self._generic

    def require_generic(self) -> None:
        if not self._generic:
            raise NonGenericChargeError(
                "charge maps two distinct positive roots to the same ray"
            )

    # -- the sign rule and stable objects ----------------------------------

    def sign_rule(self, roots) -> tuple[int, ...]:
        """Exponent per non-neutral entry: +1 above the neutral ray, -1 below."""
        roots = list(roots)
        if len(roots) < 2:
            return ()
        for w in roots:
            if not (all(c >= 0 for c in w) and any(c > 0 for c in w)):
                raise ValueError(f"root sequence entry {w} is not positive")
        neutral = self.z(roots[0])
        signs = []
        for w in roots[1:]:
            c = cross(neutral, self.z(w))
            if c == 0:
                raise NonGenericChargeError(
                    f"sequence entry {w} is on the neutral ray; charge is not generic here"
                )
            signs.append(1 if c > 0 else -1)
        return tuple(signs)

    def stable_build(self, w: Root, word: WeylWord | None = None) -> StableBuild:
        """Construct the stable object of class w by the signed braid lift.

        Only the signs are worked out per charge, by the sign rule on the
        word's root sequence; the lift they select is looked up in the
        algebra's shared table, and built and certified spherical there the
        first time any condition on the algebra asks for it.  The default
        word is the root's minimal word; an explicit word takes the same
        path.
        """
        self.require_generic()
        if word is None:
            build = self._builds.get(w)
            if build is None:
                if w not in self._shared.words:
                    raise ValueError(f"{w} is not a positive root")
                word, seq = self._shared.words[w]
                build = self._builds[w] = self._lift(w, word, seq)
            return build
        if evaluate_word(self.quiver, word) != w:
            raise ValueError("expression does not evaluate to the requested root")
        return self._lift(w, word, root_sequence(self.quiver, word))

    def _lift(self, w: Root, word: WeylWord, seq) -> StableBuild:
        signs = self.sign_rule(seq)
        braid = BraidWord(tuple(zip(word.letters, signs)))
        lifts = self._shared.lifts
        obj = lifts.get((word.base, braid))
        if obj is None:
            obj = apply_braid(self.alg, braid, simple_object(self.alg, word.base))
            if not is_spherical(obj):
                raise InvariantViolation(f"constructed object of class {w} is not spherical")
            lifts[(word.base, braid)] = obj
        return StableBuild(w, word, list(seq), signs, braid, obj)

    def stable_object(self, w: Root, word: WeylWord | None = None) -> TwistedComplex:
        return self.stable_build(w, word).obj

    def stable_table(self) -> dict[Root, TwistedComplex]:
        return {w: self.stable_build(w).obj for w in self.roots}

    # -- phase probing -----------------------------------------------------

    def _probe_candidates(self, y: TwistedComplex, side: str):
        """Candidates (phase, root, k) for one side of the probe of y, lazily.

        Each root w is tried at the shifts k of its window, the ones where
        Hom^0 between y and S_w[k] can be nonzero.  Phase(k, Z(w)) orders by
        k, then by arg Z(w), and a generic charge puts no two roots on one
        ray, so the phase order is the integer order (k, position of w by
        arg Z): ascending for the bottom, descending for the top.
        """
        lo_y, hi_y = y.shift_range()
        windows = []
        for w in self._by_arg:
            lo_s, hi_s = self.stable_build(w).obj.shift_range()
            if side == "bottom":
                windows.append((w, lo_y - hi_s, hi_y - lo_s + 3))
            else:
                windows.append((w, lo_y - hi_s - 2, hi_y - lo_s + 1))
        ks = range(min(lo for _, lo, _ in windows), max(hi for _, _, hi in windows))
        if side == "top":
            ks = reversed(ks)
            windows.reverse()
        for k in ks:
            for w, lo, hi in windows:
                if lo <= k < hi:
                    yield Phase(k, self._z[w]), w, k

    def phi_probes(self, y: TwistedComplex) -> Phases:
        """Witnessed bottom and top phases of an object with spherical factors.

        This is the one phase measurement; read the spread and heart
        membership off the returned Phases instead of probing again.  The
        bottom is the first candidate S_w[k] with Hom^0(y, S_w[k]) != 0, the
        top the first with Hom^0(S_w[k], y) != 0; both are read off the Hom
        complex with the unshifted S_w, as H^k Hom(y, S_w) and
        H^{-k} Hom(S_w, y).
        """
        if y.is_zero:
            raise ValueError("the zero object has no phases")
        self.require_generic()
        bottom = None
        for phase, w, k in self._probe_candidates(y, "bottom"):
            if hom0_is_nonzero(y, self.stable_object(w), k):
                bottom = ProbeHit(phase, w, k)
                break
        if bottom is None:
            raise InvariantViolation("no stable object receives a map from the probe target")
        top = None
        for phase, w, k in self._probe_candidates(y, "top"):
            if hom0_is_nonzero(self.stable_object(w), y, -k):
                top = ProbeHit(phase, w, k)
                break
        if top is None:
            raise InvariantViolation("no stable object maps to the probe target")
        return Phases(bottom, top)
