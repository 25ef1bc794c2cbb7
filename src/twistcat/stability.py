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
from functools import total_ordering
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


def random_generic_charge(
    q: QuiverGraph, rng: random.Random, max_numerator: int = 12, max_denominator: int = 8
) -> CentralCharge:
    """Draw small exact charges until the genericity test passes."""
    roots = positive_roots(q)
    while True:
        values = [
            ExactComplex(
                Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator)),
                Fraction(rng.randint(1, max_numerator), rng.randint(1, max_denominator)),
            )
            for _ in range(q.vertex_count)
        ]
        charge = CentralCharge(values)
        if _charge_is_generic(charge, roots):
            return charge


def _charge_is_generic(charge: CentralCharge, roots: list[Root]) -> bool:
    images = [charge.of_root(w) for w in roots]
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if cross(images[i], images[j]) == 0:
                return False
    return True


class ProbeHit(NamedTuple):
    phase: Phase
    root: Root
    shift: int


@dataclass
class StableBuild:
    """Everything produced while constructing the stable object of a class."""

    root: Root
    word: WeylWord
    sequence: list[Root]
    signs: tuple[int, ...]
    braid: BraidWord
    obj: TwistedComplex


class StabilityCondition:
    """A generic standard stability condition on the quiver category.

    Holds the build-once cache of stable objects per positive root; lookups
    after construction are read-only.
    """

    def __init__(self, alg: ZigzagAlgebra, charge: CentralCharge):
        q = alg.quiver
        q.require_finite_type()
        if len(charge) != q.vertex_count:
            raise ValueError("charge length does not match the quiver")
        self.alg = alg
        self.quiver = q
        self.charge = charge
        self.roots = positive_roots(q)
        self._generic: bool | None = None
        self._builds: dict[Root, StableBuild] = {}

    # -- charges and phases ------------------------------------------------

    def z(self, w: Root) -> ExactComplex:
        return self.charge.of_root(w)

    def phase_of_root(self, w: Root, shift: int = 0) -> Phase:
        return Phase(shift, self.z(w))

    def validate_generic(self) -> bool:
        if self._generic is None:
            self._generic = _charge_is_generic(self.charge, self.roots)
        return self._generic

    def require_generic(self) -> None:
        if not self.validate_generic():
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
        """Construct the stable object of class w by the signed braid lift."""
        self.require_generic()
        if word is None:
            if w in self._builds:
                return self._builds[w]
            word = minimal_word(self.quiver, w)
            cache = True
        else:
            if evaluate_word(self.quiver, word) != w:
                raise ValueError("expression does not evaluate to the requested root")
            cache = False
        seq = root_sequence(self.quiver, word)
        signs = self.sign_rule(seq)
        braid = BraidWord(tuple(zip(word.letters, signs)))
        obj = apply_braid(self.alg, braid, simple_object(self.alg, word.base))
        build = StableBuild(w, word, seq, signs, braid, obj)
        if cache:
            if not is_spherical(obj):
                raise InvariantViolation(f"constructed object of class {w} is not spherical")
            self._builds[w] = build
        return build

    def stable_object(self, w: Root, word: WeylWord | None = None) -> TwistedComplex:
        return self.stable_build(w, word).obj

    def stable_table(self) -> dict[Root, TwistedComplex]:
        return {w: self.stable_build(w).obj for w in self.roots}

    # -- phase probing -----------------------------------------------------

    def _probe_candidates(self, y: TwistedComplex, side: str):
        lo_y, hi_y = y.shift_range()
        out = []
        for w in self.roots:
            s_obj = self.stable_build(w).obj
            lo_s, hi_s = s_obj.shift_range()
            if side == "bottom":
                k_range = range(lo_y - hi_s, hi_y - lo_s + 3)
            else:
                k_range = range(lo_y - hi_s - 2, hi_y - lo_s + 1)
            for k in k_range:
                out.append((Phase(k, self.z(w)), w, k, s_obj))
        out.sort(key=lambda item: item[0], reverse=(side == "top"))
        return out

    def phi_probes(self, y: TwistedComplex) -> tuple[ProbeHit, ProbeHit]:
        """Witnessed bottom and top phases of an object with spherical factors."""
        if y.is_zero:
            raise ValueError("the zero object has no phases")
        self.require_generic()
        bottom = None
        for phase, w, k, s_obj in self._probe_candidates(y, "bottom"):
            if hom0_is_nonzero(y, s_obj.shift(k)):
                bottom = ProbeHit(phase, w, k)
                break
        if bottom is None:
            raise InvariantViolation("no stable object receives a map from the probe target")
        top = None
        for phase, w, k, s_obj in self._probe_candidates(y, "top"):
            if hom0_is_nonzero(s_obj.shift(k), y):
                top = ProbeHit(phase, w, k)
                break
        if top is None:
            raise InvariantViolation("no stable object maps to the probe target")
        return bottom, top

    def phi_bounds(self, y: TwistedComplex) -> tuple[Phase, Phase]:
        lo, hi = self.phi_probes(y)
        return lo.phase, hi.phase

    def spread(self, y: TwistedComplex) -> Phase:
        lo, hi = self.phi_bounds(y)
        return hi - lo

    def heart_test(self, y: TwistedComplex) -> bool:
        """Whether every phase of y lies in [0, 1)."""
        lo, hi = self.phi_bounds(y)
        return Phase.integer(0) <= lo and hi < Phase.integer(1)
