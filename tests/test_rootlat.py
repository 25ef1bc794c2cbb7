import dataclasses
import random
from collections import deque

import pytest

from twistcat import (
    BraidWord,
    NotFiniteTypeError,
    QuiverGraph,
    WeylWord,
    braid_class_action,
    cartan_pairing,
    evaluate_word,
    last_minimal_word,
    minimal_word,
    named_quiver,
    positive_roots,
    quiver_from_text,
    reflect,
    root_sequence,
    simple_root,
)
from twistcat.rootlat import is_positive_root, pairing_with_simple, root_height

RANK4_TYPES = ["A1", "A2", "A3", "A4", "D4"]


def all_minimal_words(q, w):
    """Oracle: every minimal expression of w, one per strict height descent,
    listed by the descent's reflections, lowest index first."""
    if not is_positive_root(q, w):
        raise ValueError(f"{w} is not a positive root")
    if root_height(w) == 1:
        return [WeylWord(base=w.index(1), letters=())]
    out = []
    for i in range(q.vertex_count):
        if pairing_with_simple(q, w, i) > 0:
            for sub in all_minimal_words(q, reflect(q, w, i)):
                out.append(WeylWord(base=sub.base, letters=sub.letters + (i,)))
    return out


def bfs_word_length(q, target):
    """Independent oracle: fewest simple reflections from any simple root."""
    simples = [simple_root(q, i) for i in range(q.vertex_count)]
    dist = {s: 0 for s in simples}
    queue = deque(simples)
    while queue:
        w = queue.popleft()
        if w == target:
            return dist[w]
        for i in range(q.vertex_count):
            r = reflect(q, w, i)
            if r not in dist:
                dist[r] = dist[w] + 1
                queue.append(r)
    raise AssertionError(f"{target} unreachable")


def test_cartan_pairing_examples(a2):
    a1, al2 = simple_root(a2, 0), simple_root(a2, 1)
    assert cartan_pairing(a2, a1, a1) == 2
    assert cartan_pairing(a2, a1, al2) == -1
    # bilinear expansion: 2 - 1 - 1 + 2
    both = (1, 1)
    assert cartan_pairing(a2, both, both) == 2


def test_cartan_pairing_length_mismatch(a2):
    with pytest.raises(ValueError):
        cartan_pairing(a2, (1, 0, 0), (0, 1))


def test_reflect_examples(a2):
    assert reflect(a2, simple_root(a2, 1), 0) == (1, 1)
    assert reflect(a2, simple_root(a2, 0), 0) == (-1, 0)


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_reflect_involution_and_pairing_invariance(name):
    q = named_quiver(name)
    rng = random.Random(f"reflect:{name}")
    for _ in range(50):
        a = tuple(rng.randint(-3, 3) for _ in range(q.vertex_count))
        b = tuple(rng.randint(-3, 3) for _ in range(q.vertex_count))
        i = rng.randrange(q.vertex_count)
        assert reflect(q, reflect(q, a, i), i) == a
        assert cartan_pairing(q, reflect(q, a, i), reflect(q, b, i)) == cartan_pairing(q, a, b)


def test_positive_roots_a2(a2):
    assert set(positive_roots(a2)) == {(1, 0), (0, 1), (1, 1)}


def test_positive_root_counts():
    # closed-form oracles: |Phi+| = n(n+1)/2 for A_n and n(n-1) for D_n
    for n in range(1, 5):
        q = named_quiver(f"A{n}")
        assert len(positive_roots(q)) == n * (n + 1) // 2
    assert len(positive_roots(named_quiver("D4"))) == 12
    assert len(positive_roots(named_quiver("D5"))) == 20
    assert len(positive_roots(named_quiver("E6"))) == 36


def test_positive_roots_a1():
    q = named_quiver("A1")
    assert positive_roots(q) == [(1,)]


def test_non_finite_type_rejected():
    triangle = QuiverGraph.of(3, [(0, 1), (1, 2), (0, 2)])  # affine cycle
    assert not triangle.is_finite_type()
    with pytest.raises(NotFiniteTypeError):
        positive_roots(triangle)
    star = QuiverGraph.of(5, [(0, 4), (1, 4), (2, 4), (3, 4)])  # affine D4
    with pytest.raises(NotFiniteTypeError):
        positive_roots(star)


@pytest.mark.parametrize("name", ["A1", "A5", "D4", "D7", "E6", "E8"])
def test_neighbors_are_the_sorted_edge_scan_and_stay_off_equality(name):
    """Each vertex's neighbours, listed once per graph, are the sorted scan of
    the edges; a caller may change the returned list; a vertex outside the
    graph has none; and two graphs of one edge set are equal with equal
    hashes, however they were made."""
    q = named_quiver(name)
    for i in range(-1, q.vertex_count + 1):
        scan = sorted(b if a == i else a for a, b in q.edges if i in (a, b))
        assert q.neighbors(i) == scan
        q.neighbors(i).append(99)
        assert q.neighbors(i) == scan
    twin = QuiverGraph.of(q.vertex_count, sorted(q.edges, reverse=True))
    assert twin == q and hash(twin) == hash(q)
    assert [f.name for f in dataclasses.fields(q)] == ["vertex_count", "edges"]


@pytest.mark.parametrize("count, pairs", [(2, [(0, 1.0)]), (2, [(True, 0)]), (True, []), (2.0, [])])
def test_a_quiver_rejects_a_non_int_vertex_or_count(count, pairs):
    """A float or bool vertex, or vertex count, raises ValueError instead of
    making a graph that fails later (a float vertex) or counts True vertices."""
    with pytest.raises(ValueError):
        QuiverGraph.of(count, pairs)


def test_minimal_word_examples(a2, a3):
    word = minimal_word(a2, (1, 1))
    assert word == WeylWord(base=1, letters=(0,))
    assert minimal_word(a2, (0, 1)) == WeylWord(base=1, letters=())
    word3 = minimal_word(a3, (1, 1, 1))
    assert len(word3) == 2
    assert evaluate_word(a3, word3) == (1, 1, 1)


def test_minimal_word_rejects_non_roots(a2):
    with pytest.raises(ValueError):
        minimal_word(a2, (1, -1))
    with pytest.raises(ValueError):
        minimal_word(a2, (2, 2))


@pytest.mark.parametrize("name", RANK4_TYPES)
def test_minimal_word_roundtrip_and_positivity(name):
    q = named_quiver(name)
    for w in positive_roots(q):
        word = minimal_word(q, w)
        assert evaluate_word(q, word) == w
        assert len(word) == bfs_word_length(q, w)
        for entry in root_sequence(q, word):
            assert all(c >= 0 for c in entry) and any(c > 0 for c in entry)


def test_root_sequence_staircase(a3):
    # w = s2 s3 s1 (alpha_2): a length-3 expression with all-positive sequence
    word = WeylWord(base=1, letters=(0, 2, 1))
    seq = root_sequence(a3, word)
    assert seq == [(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 1, 0)]


def test_root_sequence_edges(a2):
    assert root_sequence(a2, WeylWord(base=1, letters=())) == [(0, 1)]
    assert root_sequence(a2, WeylWord(base=1, letters=(0,))) == [(1, 1), (1, 0)]


@pytest.mark.parametrize(
    "call, offender",
    [
        # a Weyl word takes an int base >= 0 and a tuple of int letters >= 0, no bools
        (lambda q, stab: WeylWord(0, [1]), r"letters \[1\] must be a tuple"),
        (lambda q, stab: WeylWord(0, (True,)), r"letters \(True,\)"),
        (lambda q, stab: WeylWord(0, (-1,)), r"letters \(-1,\)"),
        (lambda q, stab: WeylWord(True, ()), r"base True"),
        (lambda q, stab: WeylWord(0.0, ()), r"base 0\.0"),
        # a vertex outside 0..n-1 or a root of the wrong length
        (lambda q, stab: stab.stable_build((1, 0, 0), WeylWord(0, (9,))), r"vertex 9 out of range"),
        (lambda q, stab: root_sequence(q, WeylWord(0, (9,))), r"vertex 9 out of range"),
        (lambda q, stab: root_sequence(q, WeylWord(3, ())), r"vertex 3 out of range"),
        (lambda q, stab: evaluate_word(q, WeylWord(0, (3,))), r"vertex 3 out of range"),
        (lambda q, stab: reflect(q, (1, 0, 0), 9), r"vertex 9 out of range"),
        (lambda q, stab: reflect(q, (1, 0, 0), -1), r"vertex -1 out of range"),
        (lambda q, stab: reflect(q, (1, 0, 0), True), r"vertex True out of range"),
        (lambda q, stab: reflect(q, (1, 0), 0), r"root \(1, 0\) needs 3 coordinates"),
        (lambda q, stab: pairing_with_simple(q, (1, 0, 0), -1), r"vertex -1 out of range"),
        (lambda q, stab: pairing_with_simple(q, (1, 0, 0), 3), r"vertex 3 out of range"),
        (lambda q, stab: pairing_with_simple(q, (1, 0), 1), r"root \(1, 0\) needs 3 coordinates"),
        (lambda q, stab: braid_class_action(q, BraidWord(), (1, 0)), r"needs 3 coordinates"),
        (lambda q, stab: braid_class_action(q, BraidWord(((3, 1),)), (1, 0, 0)), r"vertex 3"),
    ],
)
def test_weyl_words_and_reflections_reject_bad_vertices_and_roots(a3, stab_a3, call, offender):
    with pytest.raises(ValueError, match=offender):
        call(a3, stab_a3)


def test_all_minimal_words(a2, a3):
    words = all_minimal_words(a2, (1, 1))
    assert len(words) == 2
    words3 = all_minimal_words(a3, (1, 1, 1))
    assert len(words3) == 4
    for word in words3:
        assert evaluate_word(a3, word) == (1, 1, 1)
        assert len(word) == 2


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "D5", "E6"])
def test_greedy_descents_are_the_first_and_last_minimal_words(name):
    """The two greedy descents are the ends of the full enumeration, so they
    differ exactly when a root has two or more minimal words."""
    q = named_quiver(name)
    multi = 0
    for w in positive_roots(q):
        words = all_minimal_words(q, w)
        assert minimal_word(q, w) == words[0], w
        assert last_minimal_word(q, w) == words[-1], w
        assert (minimal_word(q, w) != last_minimal_word(q, w)) == (len(words) >= 2), w
        multi += len(words) >= 2
    assert multi > 0


def test_named_quiver_errors():
    with pytest.raises(ValueError):
        named_quiver("B3")
    with pytest.raises(ValueError):
        named_quiver("E9")
    with pytest.raises(ValueError):
        named_quiver("D3")


def test_quiver_text_parsing():
    q = quiver_from_text("3\n1 2\n2 3\n")
    assert q == named_quiver("A3")
    with pytest.raises(ValueError):
        quiver_from_text("")
    with pytest.raises(ValueError):
        quiver_from_text("2\n1 1\n")
    with pytest.raises(ValueError):
        quiver_from_text("2\n1 2 3\n")
