"""Exact engine for spherical objects and stability phases on ADE quiver categories."""

from .errors import (
    HypothesisNotMet,
    InvariantViolation,
    NonGenericChargeError,
    NotFiniteTypeError,
)
from .rootlat import (
    QuiverGraph,
    WeylWord,
    cartan_pairing,
    evaluate_word,
    last_minimal_word,
    load_quiver,
    minimal_word,
    named_quiver,
    positive_roots,
    quiver_from_text,
    reflect,
    root_height,
    root_sequence,
    simple_root,
)
from .zigzag import AlgebraElement, BasisElement, ZigzagAlgebra
from .homcore import (
    Generator,
    Morphism,
    TwistedComplex,
    cone,
    direct_sum,
    find_isomorphism,
    find_shift_isomorphism,
    hom_dims,
    identity_morphism,
    is_isomorphic,
    is_spherical,
    minimize,
    simple_object,
    zero_object,
)
from .twists import (
    BraidWord,
    apply_braid,
    braid_class_action,
    braid_word_to_text,
    parse_braid_word,
    twist,
    twist_triangle,
    untwist,
    untwist_triangle,
)
from .stability import (
    CentralCharge,
    ExactComplex,
    Phase,
    Phases,
    ProbeHit,
    StabilityCondition,
    load_charge,
    random_generic_charge,
)
from .reduce import (
    HeartAlignment,
    ReductionTrace,
    StepRecord,
    certify_step,
    heart_align,
    reduce_to_stable,
    sandwich_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
