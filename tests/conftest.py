from fractions import Fraction

import pytest

from twistcat import (
    CentralCharge,
    ExactComplex,
    StabilityCondition,
    ZigzagAlgebra,
    named_quiver,
)
from twistcat.verify import random_word  # noqa: F401  (shared with the test modules)


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
