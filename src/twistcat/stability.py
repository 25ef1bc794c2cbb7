"""Generic standard stability data: exact charges, phases, stable objects.

A central charge assigns an exact complex number (rational real and
imaginary parts) to every simple root, landing in the half-open upper half
plane H = {Im > 0} union R_{>0}.  Phases are numbers k + arg(z)/pi with
arg in [0, pi); they are compared purely by integer comparisons and signs
of 2x2 determinants, never by floating point.  Floats appear only in
human-readable output.

A condition reads its charge once on the integer lattice D*Z, where D is
the lcm of the denominators of the simple charges: every positive root w
gets the ray D*Z(w) in Z^2, the integer combination of the simples' rays.
A positive scaling keeps every argument, and the cross product of two rays
is D^2 times that of the charges, with the same sign, so the argument
order, the genericity check and the sign rule read integer cross products
and decide exactly what the rational charges decide.

Phases are decided on integer rays too.  A `Phase` is the shift k, an
integer ray in H and a positive int scale, its witness z being ray/scale;
a probe hit S_w[k] is (k, D*Z(w), D).  Order and equality are the shift
and the sign of an integer cross product; adding an integer moves the
shift, and a difference multiplies one ray by the conjugate of the other
and the scales, which gives the same witness as the product of the
rational witnesses.  The Fraction witness `Phase.z` is built only for
output (`to_json_dict`, `float`, `repr`); the exact Z(w) is
`CentralCharge.of_root`.

The stable objects a condition probes with depend on its charge only
through their sign vectors, so the algebra's shared record keeps one
certified `StableBuild` (root, word, signs, lift) per (word, sign vector),
and a new condition's probe ladder is the list of the records of its roots'
minimal words, read off that table after working out each root's signs
with integer crosses (see `_probe_ladder`).  Every lift is certified at
shift 0: a stable object lies in the heart A of the P_v, so its minimal
model has every generator there.

A probe walk tries the stable objects S_w[k] in phase order and starts at
the phase bound of the object's own generators.  `phi_probes` minimizes a
y with an entry of degree 0 first, so no entry has degree 0 and every entry
keeps or raises the shift.
When the entry graph of the differential (an edge g -> h per entry (h, g))
has no cycle, peeling off a sink, which is a subcomplex, again and again
shows y to be an iterated cone of its generators P_v[s], each the stable
object of e_v with phase Phase(s, Z(e_v)).  P(>= L) and P(<= U) are
extension-closed (Bridgeland, arXiv:math/0212237), so the least and
greatest generator phases L and U bound the phases of y, and no S_w[k]
below L receives a map from y and none above U maps to it.

Such a walk tests one shift, on one layer of y.  Let lo and hi be y's
least and greatest shift, Q the generators at lo with the entries among
them and T those at hi.  The generators above lo form a subcomplex y', so
Q is a quotient of y, and T is a subcomplex.  A one-shift acyclic complex
at s is an iterated extension of objects P_v[s], so Q lies in A[lo], T in
A[hi] and y' is built from A[j] with j > lo.  For E in A[lo],
Hom(A[j], A[lo]) = 0 for j > lo, so Hom(y', E) = Hom(y'[1], E) = 0 and the
triangle y' -> y -> Q gives Hom(y, E) = Hom(Q, E).  Each S_w[lo] lies in
A[lo], its record being at shift 0.  Q has a simple quotient P_u[lo] in
A[lo], a stable object of phase below lo + 1, so the bottom walk's first
hit has shift at most lo, and at least lo by the bound: the bottom walk
tests Q at k = lo alone.  The top walk is the mirror case: for E in
A[hi], Hom(E, y) = Hom(E, T), and T has a simple subobject P_u[hi], so it
tests T at k = hi alone.  When the graph has a cycle there is no bound and
the walk tries every root at every shift where a Hom can be nonzero.

A probe ends after one walk when that walk proves y semistable: the
graph has no cycle, every generator sits at one shift s, the hit S_u[s]
has shift s, and Z(y) lies on the ray of Z(u) (one integer cross product,
since the class of y is +-(its generator counts)).  Then y lies in
P([s, s+1)), a window shorter than 1, so Z(y), the sum of the charges of
its HN factors, has an argument strictly between the lowest and the
highest phase unless there is one factor; either hit is one of those two
phases, so y is semistable of phase phi(u) + s.  Genericity leaves S_u[s]
as its only Jordan-Holder factor, so the other walk would stop at S_u[s]
too.  Such a probe runs first the walk from the bound nearer the arg
position of the root on the ray of y's class, the top walk when that root
lies nearer the top bound and the bottom walk otherwise, so a semistable
object costs about the Hom tests between its phase and the nearer bound
(the proof in full is in `phi_probes`).

A walk on a layer L (Q or T, at shift s, with a the generator count per
vertex) tests only the roots w <= a in every coordinate; the others are
skipped without a Hom test.  L lies in A[s] and has class a there.  Let
E = S_w[s] be the first candidate of the bottom walk with Hom(Q, E) != 0.
Every candidate below E has a zero Hom, and so do their extensions, so Q
lies in P(>= phi(E)).  The image I of a nonzero map Q -> E is a quotient
of Q, so phi-(I) >= phi(E), and a subobject of the stable E, so
phi+(I) <= phi(E); a proper subobject of E would have a strictly smaller
phase, so I = E, and E, a quotient of Q in A[s], has class w <= a.  The
top walk is the mirror case: its first hit is a subobject of T
(Bridgeland, arXiv:math/0212237; King, Quart. J. Math. 45, 1994).  So the
prune never skips the first hit, and every hit is the one the unpruned
walk finds.
"""

from __future__ import annotations

import json
import math
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from pathlib import Path
from typing import NamedTuple

from .errors import InvariantViolation, NonGenericChargeError
from .homcore import (
    TwistedComplex,
    _Reader,
    _same_quiver,
    hom0_is_nonzero,
    is_spherical,
    minimize,
    simple_object,
)
from .rootlat import (
    QuiverGraph,
    Root,
    WeylWord,
    evaluate_word,
    minimal_word,
    positive_roots,
    root_sequence,
    simple_root,
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


Ray = tuple[int, int]


def _check_exact(z, what: str) -> None:
    """Raise ValueError unless z is an ExactComplex with int or Fraction parts (no bool)."""
    if not (isinstance(z, ExactComplex) and {type(z.re), type(z.im)} <= {int, Fraction}):
        raise ValueError(f"{what} must be an ExactComplex with int or Fraction parts, got {z!r}")


def _check_shift(shift) -> None:
    """Raise ValueError unless the shift is an int (a bool is not)."""
    if type(shift) is not int:
        raise ValueError(f"phase shift {shift!r} must be an int")


def _lattice(values: Sequence[ExactComplex]) -> tuple[int, tuple[Ray, ...]]:
    """The scale D, the lcm of the values' denominators, and the ray D*z of each value z."""
    d = math.lcm(*(z.re.denominator for z in values), *(z.im.denominator for z in values))
    return d, tuple(
        (z.re.numerator * (d // z.re.denominator), z.im.numerator * (d // z.im.denominator))
        for z in values
    )


@total_ordering
class Phase:
    """Exact number of the form k + arg(z)/pi, with arg(z) normalized to [0, pi).

    Represents both phases and phase differences (spreads).  It is stored as
    the shift k, an integer ray (re, im) in H and a positive int scale, with
    z = (re + i*im) / scale; a positive scale keeps the argument, so order,
    equality, integer shifts and differences are int arithmetic on the
    shift and the ray (cross products and complex products), and the
    Fraction witness `z` is built only when output asks for it.
    """

    __slots__ = ("shift", "_re", "_im", "_scale")

    def __init__(self, shift: int, z: ExactComplex):
        _check_shift(shift)
        _check_exact(z, "phase witness")
        if not z.in_upper_half():
            raise ValueError("phase witness must have argument in [0, pi)")
        self.shift = shift
        self._scale, ((self._re, self._im),) = _lattice((z,))

    @classmethod
    def _on_ray(cls, shift: int, re: int, im: int, scale: int) -> "Phase":
        """Phase shift + arg(re + i*im)/pi, with witness (re + i*im)/scale; no check
        that (re, im) lies in H or that scale is positive."""
        phase = object.__new__(cls)
        phase.shift, phase._re, phase._im, phase._scale = shift, re, im, scale
        return phase

    @classmethod
    def _principal(cls, shift: int, re: int, im: int, scale: int) -> "Phase":
        """Phase shift + arg(re + i*im)/pi, by the principal argument, for a nonzero ray."""
        if im > 0 or (im == 0 and re > 0):
            return cls._on_ray(shift, re, im, scale)
        if im == 0:  # negative real axis: argument pi
            return cls._on_ray(shift + 1, -re, 0, scale)
        return cls._on_ray(shift - 1, -re, -im, scale)  # lower half: argument in (-pi, 0)

    @classmethod
    def of(cls, z: ExactComplex, shift: int = 0) -> "Phase":
        """Phase shift + arg(z)/pi for any nonzero z (principal argument)."""
        _check_shift(shift)
        _check_exact(z, "phase witness")
        if z.is_zero():
            raise ValueError("zero has no phase")
        scale, ((re, im),) = _lattice((z,))
        return cls._principal(shift, re, im, scale)

    @classmethod
    def integer(cls, k: int) -> "Phase":
        _check_shift(k)
        return cls._on_ray(k, 1, 0, 1)

    @property
    def z(self) -> ExactComplex:
        """The exact witness: arg(z)/pi is the phase minus its shift."""
        return ExactComplex(Fraction(self._re, self._scale), Fraction(self._im, self._scale))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Phase)
            and self.shift == other.shift
            and self._re * other._im == self._im * other._re
        )

    def __lt__(self, other: "Phase") -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        if self.shift != other.shift:
            return self.shift < other.shift
        return self._re * other._im > self._im * other._re

    def __gt__(self, other: "Phase") -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        if self.shift != other.shift:
            return self.shift > other.shift
        return self._re * other._im < self._im * other._re

    def __add__(self, other: int) -> "Phase":
        if type(other) is not int:
            return NotImplemented
        return Phase._on_ray(self.shift + other, self._re, self._im, self._scale)

    def __sub__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return Phase._principal(
            self.shift - other.shift, a * c + b * d, b * c - a * d, self._scale * other._scale
        )

    def is_zero(self) -> bool:
        return self.shift == 0 and self._im == 0

    def __float__(self) -> float:
        # int / int is correctly rounded, so each part equals float() of the witness's Fraction
        return self.shift + math.atan2(self._im / self._scale, self._re / self._scale) / math.pi

    def __repr__(self) -> str:
        return f"Phase({float(self):.6f})"

    def to_json_dict(self) -> dict:
        z = self.z
        return {
            "shift": self.shift,
            "witness": [z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator],
            "approx": round(float(self), 9),
        }


class CentralCharge:
    """One exact complex value per simple root, each inside H."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)
        for i, z in enumerate(self.values):
            _check_exact(z, f"charge of simple root {i}")
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
        keys = [str(i + 1) for i in range(len(data))]
        unknown = [k for k in data if k not in keys]
        if unknown:
            raise ValueError(f"charge key {unknown[0]!r} is not a vertex 1..{len(data)}")
        values = []
        for key in keys:
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
        _, simples = _lattice(values)
        if _by_argument([_ray(simples, w) for w in roots])[1]:
            return charge


PhaseKey = tuple[int, int]  # (shift k, position of the root by arg Z): the phase order


def _ray(simples: tuple[Ray, ...], w: Root) -> Ray:
    """D*Z(w) for an integer vector w, from the simples' rays."""
    if len(w) != len(simples):
        raise ValueError("root length does not match the charge")
    re = im = 0
    for c, (a, b) in zip(w, simples):
        if c:
            re += c * a
            im += c * b
    return re, im


def _ray_cross(u: Ray, v: Ray) -> int:
    """Positive exactly when arg(v) > arg(u), for rays with arguments in [0, pi)."""
    return u[0] * v[1] - u[1] * v[0]


def _by_argument(rays: list[Ray]) -> tuple[list[int], bool]:
    """Positions of the rays (all in H) by increasing argument, and whether no two share a ray.

    The cross product compares arguments in [0, pi) exactly, so the sort is
    by argument (stable on a shared ray), and rays on one ray end up next to
    each other, where one cross product per neighbouring pair finds them.
    """
    order = sorted(range(len(rays)), key=cmp_to_key(lambda i, j: _ray_cross(rays[j], rays[i])))
    return order, all(_ray_cross(rays[i], rays[j]) for i, j in zip(order, order[1:]))


def _layer(y: TwistedComplex, s: int) -> TwistedComplex:
    """The generators of y at shift s with the entries among them; y itself when
    every generator sits at s."""
    keep = [i for i, (_, t) in enumerate(y.generators) if t == s]
    if len(keep) == len(y.generators):
        return y
    new = {old: i for i, old in enumerate(keep)}
    diff = {(new[h], new[g]): c for (h, g), c in y.differential.items() if h in new and g in new}
    return TwistedComplex._trusted(y.alg, tuple(y.generators[i] for i in keep), diff)


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


@dataclass(frozen=True, slots=True)
class StableBuild:
    """The certified stable object of a class under one sign vector: the root,
    the word and its root sequence, the signs, the signed braid and its lift
    of the word's base simple, certified spherical and at shift 0.

    A record is shared by every condition on the algebra that gives the word
    the same signs (see `_ChargeFree`), so it never changes after it is
    made: no field can be reassigned, no method adds state, and `sequence`
    hands each caller a fresh list.
    """

    root: Root
    word: WeylWord
    root_seq: tuple[Root, ...]
    signs: tuple[int, ...]
    braid: BraidWord
    obj: TwistedComplex

    @property
    def sequence(self) -> list[Root]:
        """The root sequence of the word, as a new list."""
        return list(self.root_seq)

    def flipped(self, i: int) -> TwistedComplex:
        """The lift of the braid word with exponent i (0-based) reversed,
        applied to the word's base simple in one call."""
        letters = self.braid.letters
        if type(i) is not int or not 0 <= i < len(letters):
            raise ValueError(f"no exponent {i!r} in a word of {len(letters)} letters")
        v, e = letters[i]
        word = BraidWord(letters[:i] + ((v, -e),) + letters[i + 1:])
        return apply_braid(self.obj.alg, word, simple_object(self.obj.alg, self.word.base))


class _ChargeFree:
    """The stability data of one algebra that no charge changes, shared by all its conditions.

    The positive roots (the finite-type check runs once), the simple roots
    among them, one letter tuple (v, e) per signed vertex, each root's
    minimal word and root sequence, and `builds`, the one table of stable
    objects: (word, sign vector) -> its certified `StableBuild`.  The root
    sequences hold the tuples of `roots` and the signed braids the letter
    tuples held here, so no condition adds copies of either.  A word and its
    sign vector select the lift, so a condition whose sign vectors all have
    records reads its probe ladder off them.  A record enters the table only
    after its lift has passed the sphericity and shift-0 certificates.

    The record is the algebra's `charge_free` attribute, not an entry of a
    table keyed by the algebra: every stored object refers back to its
    algebra, so such a key would never be freed, while the attribute only
    forms a cycle that the garbage collector reclaims.
    """

    __slots__ = ("roots", "simples", "letters", "words", "builds")

    def __init__(self, q: QuiverGraph):
        self.roots = positive_roots(q)
        held = {w: w for w in self.roots}
        self.simples = tuple(held[simple_root(q, v)] for v in range(q.vertex_count))
        # one braid letter per signed vertex: letters[e][v] is (v, e)
        self.letters = {e: tuple((v, e) for v in range(q.vertex_count)) for e in (1, -1)}
        self.words: dict[Root, tuple[WeylWord, tuple[Root, ...]]] = {}
        for w in self.roots:
            word = minimal_word(q, w)
            self.words[w] = (word, tuple(held[r] for r in root_sequence(q, word)))
        self.builds: dict[tuple[WeylWord, tuple[int, ...]], StableBuild] = {}


class StabilityCondition:
    """A generic standard stability condition on the quiver category.

    Per algebra, shared by every condition on it: the positive roots, their
    minimal words and root sequences, and the table of certified stable
    records (see `_ChargeFree`; a stable object depends on the charge only
    through its sign vector).  Per charge, done here: the integer ray D*Z of
    every positive root, their order by argument and one genericity check
    (see the module docstring), and, on first use, the signs of each root's
    minimal word, which select its shared record, and the probe ladder, the
    list of those records by arg Z.
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
        self._d, self._simples = _lattice(charge.values)
        rays = [_ray(self._simples, w) for w in self.roots]
        self._rays: dict[Root, Ray] = dict(zip(self.roots, rays))
        order, self._generic = _by_argument(rays)
        self._arg_order: list[Root] = [self.roots[i] for i in order]
        self._pos: dict[Root, int] = {w: i for i, w in enumerate(self._arg_order)}
        # the ladder by arg Z
        self._ladder: list[StableBuild] | None = None

    # -- charges and phases ------------------------------------------------

    def _ray_of(self, w: Root) -> Ray:
        ray = self._rays.get(w)
        return ray if ray is not None else _ray(self._simples, w)

    def phase_of_root(self, w: Root, shift: int = 0) -> Phase:
        """Phase(shift, Z(w)) for a positive root w, read off its lattice ray."""
        ray = self._rays.get(w)
        if ray is None:
            raise ValueError(f"{w} is not a positive root")
        if type(shift) is not int:
            raise ValueError(f"shift {shift!r} must be an int")
        return Phase._on_ray(shift, *ray, self._d)

    def validate_generic(self) -> bool:
        """Whether no two positive roots share a ray."""
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
        return self._signs(roots)

    def _signs(self, roots: Sequence[Root]) -> tuple[int, ...]:
        """Per entry after the first: +1 above the neutral ray, -1 below; an
        entry on it raises."""
        n_re, n_im = self._ray_of(roots[0])
        out = []
        for w in roots[1:]:
            re, im = self._ray_of(w)
            c = n_re * im - n_im * re
            if c == 0:
                raise NonGenericChargeError(
                    f"sequence entry {w} is on the neutral ray; charge is not generic here"
                )
            out.append(1 if c > 0 else -1)
        return tuple(out)

    def stable_build(self, w: Root, word: WeylWord | None = None) -> StableBuild:
        """The shared record of the stable object of class w, by the signed braid lift.

        Only the signs are worked out per charge, by the sign rule on the
        word's root sequence; the word and its signs select the record in
        the algebra's shared table (see `_ChargeFree`), built and certified
        spherical there the first time any condition on the algebra asks
        for it (see `_records`).  The default word is the root's minimal
        word, and its record is the root's entry of the probe ladder; an
        explicit word takes the same table, so the minimal word given
        explicitly returns the same record.
        """
        self.require_generic()
        if word is None:
            if w not in self._pos:
                raise ValueError(f"{w} is not a positive root")
            return self._probe_ladder()[self._pos[w]]
        if evaluate_word(self.quiver, word) != w:
            raise ValueError("expression does not evaluate to the requested root")
        seq = tuple(root_sequence(self.quiver, word))
        return self._records([(w, word, seq, self.sign_rule(seq))])[0]

    def _records(
        self, items: list[tuple[Root, WeylWord, tuple[Root, ...], tuple[int, ...]]]
    ) -> list[StableBuild]:
        """The shared record of each (root, word, root sequence, signs), the
        missing ones built, certified and stored in one walk.

        The missing records are sorted by (base, signed letters), so words
        whose signed letters share a prefix follow one another, and the walk
        keeps the lifts of the prefixes on its current path in the trie of
        signed braids: each record starts from the deepest prefix it shares
        with that path and applies the rest one letter at a time.
        `apply_braid` is a left fold over the letters, so every lift equals
        the one applied in a single call.  A record enters the table only
        after its lift has passed two certificates, prefixes never: it is
        spherical, and its generators all sit at shift 0, as the minimal
        model of an object of the heart A must (the probe walks rely on it;
        see the module docstring).
        """
        table, letters = self._shared.builds, self._shared.letters
        # (base, signed letters) determines (word, signs), so the sort never compares the values
        missing = {}
        for w, word, seq, signs in items:
            if (word, signs) not in table:
                braid = tuple(letters[e][v] for v, e in zip(word.letters, signs))
                missing[word.base, braid] = (w, word, seq, signs)
        base_now, letters_now, path = None, (), []  # path[i]: lift of letters_now[:i]
        for (base, braid), (w, word, seq, signs) in sorted(missing.items()):
            if base != base_now:
                base_now, letters_now, path = base, (), [simple_object(self.alg, base)]
            depth = 0
            for a, b in zip(letters_now, braid):
                if a != b:
                    break
                depth += 1
            del path[depth + 1:]
            for letter in braid[depth:]:
                path.append(apply_braid(self.alg, BraidWord((letter,)), path[-1]))
            letters_now = braid
            obj = path[-1]
            if not is_spherical(obj):
                raise InvariantViolation(f"constructed object of class {w} is not spherical")
            if obj.shift_range() != (0, 0):
                raise InvariantViolation(f"constructed object of class {w} is not in the heart")
            table[word, signs] = StableBuild(w, word, seq, signs, BraidWord(braid), obj)
        return [table[word, signs] for _, word, _, signs in items]

    def stable_object(self, w: Root, word: WeylWord | None = None) -> TwistedComplex:
        return self.stable_build(w, word).obj

    def stable_table(self) -> dict[Root, TwistedComplex]:
        ladder = self._probe_ladder()
        return {w: ladder[self._pos[w]].obj for w in self._shared.roots}

    # -- phase probing -----------------------------------------------------

    def _probe_ladder(self) -> list[StableBuild]:
        """The record of every positive root's minimal word, by arg Z.

        Each root's record is read off the algebra's shared table by its
        minimal word and sign vector, the signs worked out with integer
        crosses on its root sequence; the missing records are built and
        certified in one batch (see `_records`).
        """
        if self._ladder is None:
            self.require_generic()
            words = self._shared.words
            ladder = self._records(
                [(w, *words[w], self._signs(words[w][1])) for w in self._arg_order]
            )
            self._ladder = ladder
        return self._ladder

    def _generator_bounds(self, y: TwistedComplex) -> tuple[PhaseKey, PhaseKey] | None:
        """The least and greatest key (s, arg position of e_v) over the generators
        P_v[s] of y, or None when the entry graph of its differential has a cycle
        (or y has no generator)."""
        return self._bounds_and_minimal(y)[0]

    def _bounds_and_minimal(
        self, y: TwistedComplex
    ) -> tuple[tuple[PhaseKey, PhaseKey] | None, bool]:
        """`_generator_bounds(y)`, and whether y is minimal (no entry of degree 0).

        One pass over the entries builds the edges g -> h, one per entry
        (h, g), and finds any entry of degree 0 (shift(h) = shift(g) - 1);
        Kahn's algorithm then peels the graph.
        """
        gens = y.generators
        succ: list[list[int]] = [[] for _ in gens]
        indegree = [0] * len(gens)
        minimal = True
        for h, g in y.differential:
            succ[g].append(h)
            indegree[h] += 1
            if gens[h].shift == gens[g].shift - 1:
                minimal = False
        ready = [i for i, d in enumerate(indegree) if not d]
        peeled = 0
        while ready:
            peeled += 1
            for h in succ[ready.pop()]:
                indegree[h] -= 1
                if not indegree[h]:
                    ready.append(h)
        if peeled < len(gens) or not gens:
            return None, minimal
        pos, simples = self._pos, self._shared.simples
        keys = [(s, pos[simples[v]]) for v, s in gens]
        return (min(keys), max(keys)), minimal

    def _first_hit(self, y: TwistedComplex, side: str, bound: PhaseKey | None) -> ProbeHit:
        """The first S_w[k] on one side of the probe of a minimal y with a nonzero Hom^0.

        Phase(k, Z(w)) orders by k, then by arg Z(w), and a generic charge
        puts no two roots on one ray, so the phase order is the integer
        order (k, position of w by arg Z): ascending for the bottom,
        descending for the top.  Both Hom tests read the complex with the
        unshifted S_w, as H^k Hom(y, S_w) and H^{-k} Hom(S_w, y).

        `bound` is the least generator key (s, position of e_v) for the
        bottom and the greatest for the top (see `_generator_bounds`), or
        None when the entry graph of y has a cycle.  With a bound, the walk
        tests one shift, k = s, on one layer of y: the generators at s with
        the entries among them, a quotient of y for the bottom (s = lo_y)
        and a subcomplex for the top (s = hi_y).  It starts at the bound's
        arg position and tests only the roots w <= the layer's generator
        count per vertex.  The module docstring shows that the first hit
        has shift s, that y and its layer have the same Homs with every
        S_w[s], and that the prune never skips the first hit.  The
        comparison is made lazily, candidate by candidate, so the walk pays
        it only up to its hit.

        With no bound the walk tests every root at every shift k with
        lo_y <= k + pad < hi_y + 3, pad 0 for the bottom and 2 for the top:
        every record sits at shift 0, so these are the shifts where
        H^k Hom(y, S_w) or H^{-k} Hom(S_w, y) has a Hom degree at all, the
        path degrees being 0..2.

        Either walk may run first: `phi_probes` starts with the one whose
        bound lies nearer the class of a one-shift acyclic y, and ends the
        probe there when the hit proves y semistable.  The walks share no
        state, so each finds the same hit whichever runs first.

        The walk makes one `_Reader` of the complex it tests (the layer, or
        y) and passes it to every Hom test, so that complex's differential
        is indexed once per walk rather than once per test.  Each test
        files its basis from per-vertex lists on that reader, each built at
        most once per walk: the top walk reads the reach of each vertex
        into the complex's generators (the record is the source), and the
        bottom walk the coreach, its
        generators with a path into each vertex (the record is the target),
        so no list is built on a record.  The bottom walk files its pairs
        record-generator-major, which permutes rows and columns and changes
        no rank (see `HomComplex`).  The reader is a local of the walk:
        nothing is kept on y, on a record or on the condition, and it goes
        when the walk ends.
        """
        bottom = side == "bottom"
        ladder = self._probe_ladder()
        if bound is None:
            lo_y, hi_y = y.shift_range()
            pad = 0 if bottom else 2
            ks = range(lo_y - pad, hi_y + 3 - pad)
            walk = ((k, b) for k in ks for b in ladder) if bottom else (
                (k, b) for k in reversed(ks) for b in reversed(ladder))
        else:
            k, pos = bound
            y = _layer(y, k)
            dim = [abs(c) for c in y.k_class()]
            row = ladder[pos:] if bottom else reversed(ladder[:pos + 1])
            walk = ((k, b) for b in row if all(map(operator.le, b.root, dim)))
        reader = _Reader(y)  # the tested complex's indexes, shared by this walk's Hom tests only
        for k, b in walk:
            if hom0_is_nonzero(reader, b.obj, k) if bottom else hom0_is_nonzero(b.obj, reader, -k):
                return ProbeHit(Phase._on_ray(k, *self._rays[b.root], self._d), b.root, k)
        raise InvariantViolation(
            "no stable object receives a map from the probe target" if bottom
            else "no stable object maps to the probe target"
        )

    def phi_probes(self, y: TwistedComplex) -> Phases:
        """Witnessed bottom and top phases of an object with spherical factors.

        This is the one phase measurement; read the spread and heart
        membership off the returned Phases instead of probing again.  The
        bottom is the first candidate S_w[k] with Hom^0(y, S_w[k]) != 0, the
        top the first with Hom^0(S_w[k], y) != 0 (see `_first_hit`).  A y
        with an entry of degree 0 is minimized first, which changes no Hom;
        the pass over the entries that finds the generator bounds looks for
        one, so the engine's own objects, minimal already, are not scanned
        again.  When the entry graph has no cycle, the bottom walk tests y's
        lowest layer at its lowest shift, and the top walk its highest layer
        at its highest shift, each from y's generator-phase bound on that
        side.

        When the entry graph has no cycle and every generator sits at one
        shift s, the probe runs first the walk whose bound lies nearer the
        class: with p the arg position of the root on the ray of y's class
        (the class divided by its gcd) and low, high the positions of the
        two bounds, the top walk when high - p < p - low, and the bottom
        walk otherwise, also when the class is not a multiple of a root.
        That walk's hit (u, s') is both hits, and the other walk is not
        run, when s' = s and Z(y) lies on the ray of Z(u).  The class of y
        is +-(its generator counts), so the last test is one integer cross
        product of lattice rays; H holds no pair v, -v, so collinear rays
        are one ray.  Why the other hit is the same: with no cycle and one
        shift s, y is an iterated cone of objects P_v[s], so y lies in
        P([s, s+1)), a window shorter than 1.  Z(y) is the sum of the
        charges of its HN factors, and with two or more factors its
        argument lies strictly between the lowest and the highest phase.
        The bottom hit is the lowest phase and the top hit the highest, so
        either one at phi(u) + s leaves y one factor: it is semistable of
        phase phi(u) + s.  A generic charge puts only S_u[s] on that ray,
        so every Jordan-Holder factor of y is S_u[s]; hence both
        Hom^0(y, S_u[s]) and Hom^0(S_u[s], y) are nonzero, no candidate
        below it receives a map from y and none above it maps to y: the
        other walk would stop at exactly (u, s).  When the first walk
        proves nothing, the other walk runs as it would alone, so every
        hit is the two-walk probe's.

        Every walk with a bound also skips, without a Hom test, every S_w[s]
        whose root w is not <= its layer's generator counts in every
        coordinate; the module docstring shows that these walks find the
        hits of the walk over every shift and every root.

        An object isomorphic to zero raises ValueError, and an object over an algebra of another quiver than the condition's
        raises the ValueError of `homcore`'s quiver check.
        """
        _same_quiver(self.alg, y.alg)
        bounds, minimal = self._bounds_and_minimal(y)
        if not minimal:
            y = minimize(y)
            bounds = self._generator_bounds(y)
        if y.is_zero:
            raise ValueError("the zero object has no phases")
        self.require_generic()
        low, high = bounds or (None, None)
        if low is None or low[0] != high[0]:
            return Phases(self._first_hit(y, "bottom", low), self._first_hit(y, "top", high))
        s, k_class = low[0], y.k_class()
        ray = self._ray_of(k_class)
        g = math.gcd(*k_class) if s % 2 == 0 else -math.gcd(*k_class)
        p = self._pos.get(tuple(c // g for c in k_class))

        def proves_semistable(hit: ProbeHit) -> bool:
            return hit.shift == s and _ray_cross(ray, self._rays[hit.root]) == 0

        if p is not None and high[1] - p < p - low[1]:
            top = self._first_hit(y, "top", high)
            if proves_semistable(top):
                return Phases(top, top)
            return Phases(self._first_hit(y, "bottom", low), top)
        bottom = self._first_hit(y, "bottom", low)
        if proves_semistable(bottom):
            return Phases(bottom, bottom)
        return Phases(bottom, self._first_hit(y, "top", high))
