import itertools

import pytest

from collections import Counter

from twistcat import AlgebraElement, BasisElement, ZigzagAlgebra, named_quiver
from twistcat.zigzag import basis_product

ADE_TYPES = (
    [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
)


def test_edge_roundtrip_is_loop(alg_a2):
    assert alg_a2.arrow(0, 1) * alg_a2.arrow(1, 0) == alg_a2.loop(0)
    assert alg_a2.arrow(1, 0) * alg_a2.arrow(0, 1) == alg_a2.loop(1)


def test_unit_acts_as_identity(alg_a2):
    a = alg_a2.arrow(0, 1)
    assert alg_a2.unit(0) * a == a
    assert a * alg_a2.unit(1) == a
    assert (alg_a2.unit(1) * a).is_zero()


def test_loop_kills_positive_degree(alg_a2):
    assert (alg_a2.loop(0) * alg_a2.loop(0)).is_zero()
    assert (alg_a2.loop(0) * alg_a2.arrow(0, 1)).is_zero()
    assert (alg_a2.arrow(0, 1) * alg_a2.loop(1)).is_zero()


def test_straight_path_dies(alg_a3):
    assert (alg_a3.arrow(0, 1) * alg_a3.arrow(1, 2)).is_zero()


def test_branch_roundtrips_agree_at_the_center(alg_d4):
    center = 1  # D4 center in the package's numbering
    loops = {alg_d4.arrow(center, j) * alg_d4.arrow(j, center) for j in (0, 2, 3)}
    assert loops == {alg_d4.loop(center)}


@pytest.mark.parametrize("name", ["A1", "A3", "D4"])
def test_associativity_exhaustive(name):
    alg = ZigzagAlgebra(named_quiver(name))
    basis = [AlgebraElement.of(b) for b in alg.basis()]
    for x, y, z in itertools.product(basis, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_hom_basis_examples(alg_a3):
    assert [b.degree for b in alg_a3.hom_basis(0, 0)] == [0, 2]
    assert [b.degree for b in alg_a3.hom_basis(0, 1)] == [1]
    assert alg_a3.hom_basis(0, 2) == []


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_graded_symmetry(name):
    alg = ZigzagAlgebra(named_quiver(name))
    n = alg.quiver.vertex_count
    for i in range(n):
        for j in range(n):
            forward = {b.degree for b in alg.hom_basis(i, j)}
            for k in range(3):
                dim_f = sum(1 for b in alg.hom_basis(i, j) if b.degree == k)
                dim_b = sum(1 for b in alg.hom_basis(j, i) if b.degree == 2 - k)
                assert dim_f == dim_b, (i, j, k, forward)


def test_a1_special_case():
    alg = ZigzagAlgebra(named_quiver("A1"))
    kinds = sorted(b.kind for b in alg.basis())
    assert kinds == ["e", "l"]
    assert (alg.loop(0) * alg.loop(0)).is_zero()


def test_arrow_requires_edge(alg_a3):
    with pytest.raises(ValueError):
        alg_a3.arrow(0, 2)


def test_element_arithmetic(alg_a2):
    e = alg_a2.unit(0)
    two_e = e + e
    assert two_e == e.scale(2)
    assert (two_e - e.scale(2)).is_zero()
    assert (-e).scale(-1) == e
    mixed = e + alg_a2.loop(0)
    assert mixed.homogeneous_degree() is None
    assert e.homogeneous_degree() == 0
    assert alg_a2.arrow(0, 1).homogeneous_degree() == 1


@pytest.mark.parametrize("name", ADE_TYPES)
def test_product_rule_matches_basis_product(name):
    """A product of composable basis paths is nonzero exactly when a path of
    the summed degree joins its outer ends, and then has coefficient 1."""
    alg = ZigzagAlgebra(named_quiver(name))
    basis = alg.basis()
    pairs = 0
    for x, y in itertools.product(basis, repeat=2):
        if x.target != y.source:
            continue
        pairs += 1
        prod = basis_product(x, y)
        assert (prod is not None) == alg.has_path(x.source, y.target, x.degree + y.degree)
        if prod is not None:
            assert prod == alg.path(x.source, y.target, x.degree + y.degree)
            assert AlgebraElement.of(x) * AlgebraElement.of(y) == AlgebraElement.of(prod)
    assert pairs > 0


@pytest.mark.parametrize("name", ADE_TYPES)
def test_ends_and_degree_fix_the_path(name):
    q = named_quiver(name)
    alg = ZigzagAlgebra(q)
    n = q.vertex_count
    paths = [BasisElement(kind, v, v) for v in range(n) for kind in "el"]
    paths += [BasisElement("a", i, j) for i in range(n) for j in range(n) if q.adjacent(i, j)]
    counts = Counter((b.source, b.target, b.degree) for b in paths)
    assert max(counts.values()) == 1
    assert sorted(alg.basis(), key=repr) == sorted(paths, key=repr)
    for b in paths:
        assert alg.path(b.source, b.target, b.degree) == b
