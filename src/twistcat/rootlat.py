"""Root lattices and Weyl words for simply laced quivers.

Conventions used throughout the package:

* vertices are 0-indexed integers (text formats are 1-indexed);
* a root is a plain integer tuple of coordinates over the simple roots;
* the Cartan pairing is 2 on the diagonal and -1 across quiver edges;
* a Weyl word ``(base v, letters (v_1, ..., v_n))`` encodes the expression
  ``w = s_{v_n} ... s_{v_1}(alpha_v)``: letters are stored in application
  order, so ``letters[0]`` acts first on the base simple root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import NotFiniteTypeError

Root = tuple[int, ...]


@dataclass(frozen=True)
class QuiverGraph:
    """Finite simple graph: no loops, no multiple edges.

    Each vertex's sorted neighbours are listed once, when the graph is
    made; they are not a field, so equality and hashing stay on
    `vertex_count` and `edges`.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        adjacency: dict[int, list[int]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        object.__setattr__(self, "_neighbors", {i: sorted(js) for i, js in adjacency.items()})

    @classmethod
    def of(cls, vertex_count: int, pairs) -> "QuiverGraph":
        if type(vertex_count) is not int:
            raise ValueError(f"vertex count {vertex_count!r} must be an int")
        if vertex_count < 1:
            raise ValueError("quiver needs at least one vertex")
        edges = set()
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"edge ({a!r},{b!r}) needs int vertices")
            if a == b:
                raise ValueError(f"loop at vertex {a} is not allowed")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range")
            edge = (min(a, b), max(a, b))
            if edge in edges:
                raise ValueError(
                    f"repeated edge between vertices {a + 1} and {b + 1} (numbered from 1): "
                    "multiple edges are not of finite type"
                )
            edges.add(edge)
        return cls(vertex_count, frozenset(edges))

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def check_vertex(self, i: int) -> None:
        """Raise ValueError unless i is an int vertex, 0..vertex_count-1."""
        if type(i) is not int or not 0 <= i < self.vertex_count:
            raise ValueError(f"vertex {i!r} out of range 0..{self.vertex_count - 1}")

    def check_root(self, w: Root) -> None:
        """Raise ValueError unless w has one coordinate per vertex."""
        if len(w) != self.vertex_count:
            raise ValueError(f"root {w!r} needs {self.vertex_count} coordinates, one per vertex")

    def neighbors(self, i: int) -> list[int]:
        return list(self._neighbors.get(i, ()))

    def cartan_matrix(self) -> list[list[int]]:
        n = self.vertex_count
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2
        for a, b in self.edges:
            mat[a][b] = -1
            mat[b][a] = -1
        return mat

    def is_finite_type(self) -> bool:
        """Positive definiteness of the Cartan matrix (LDL pivots all > 0)."""
        mat = [[Fraction(x) for x in row] for row in self.cartan_matrix()]
        n = self.vertex_count
        for k in range(n):
            pivot = mat[k][k]
            if pivot <= 0:
                return False
            for i in range(k + 1, n):
                if mat[i][k] == 0:
                    continue
                factor = mat[i][k] / pivot
                for j in range(k, n):
                    mat[i][j] -= factor * mat[k][j]
        return True

    def require_finite_type(self) -> None:
        if not self.is_finite_type():
            raise NotFiniteTypeError(
                "quiver is not of finite (ADE) type: Cartan form is not positive definite"
            )


@dataclass(frozen=True)
class WeylWord:
    """Expression ``w = s_{v_n} ... s_{v_1}(alpha_base)`` with letters applied left to right."""

    base: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if type(self.base) is not int or self.base < 0:
            raise ValueError(f"base {self.base!r} must be an int vertex >= 0")
        if type(self.letters) is not tuple or any(
            type(v) is not int or v < 0 for v in self.letters
        ):
            raise ValueError(f"letters {self.letters!r} must be a tuple of int vertices >= 0")

    def __len__(self) -> int:
        return len(self.letters)


def named_quiver(name: str) -> QuiverGraph:
    """Build one of the standard diagrams A1..A9, D4..D9, E6, E7, E8."""
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in "ADE" or not name[1:].isdigit():
        raise ValueError(f"unknown quiver name {name!r}")
    family, n = name[0], int(name[1:])
    if family == "A":
        if not 1 <= n <= 9:
            raise ValueError(f"unsupported type {name}; A_n is available for 1 <= n <= 9")
        return QuiverGraph.of(n, [(i, i + 1) for i in range(n - 1)])
    if family == "D":
        if not 4 <= n <= 9:
            raise ValueError(f"unsupported type {name}; D_n is available for 4 <= n <= 9")
        chain = [(i, i + 1) for i in range(n - 3)]
        return QuiverGraph.of(n, chain + [(n - 3, n - 2), (n - 3, n - 1)])
    if n not in (6, 7, 8):
        raise ValueError(f"unsupported type {name}; E_n is available for n in 6..8")
    # Bourbaki numbering: chain 1-3-4-5-...-n with node 2 hanging off 4.
    chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    return QuiverGraph.of(n, chain + [(1, 3)])


def quiver_from_text(text: str) -> QuiverGraph:
    """Parse the plain quiver format: vertex count, then one 1-indexed edge per line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty quiver description")
    try:
        count = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}") from None
    pairs = []
    for ln in lines[1:]:
        try:
            a, b = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}: an edge is two vertex numbers") from None
        if not (1 <= a <= count and 1 <= b <= count):
            raise ValueError(f"edge line {ln!r}: vertices are numbered 1..{count}")
        if a == b:
            raise ValueError(f"edge line {ln!r}: loop at vertex {a} is not allowed")
        pairs.append((a - 1, b - 1))
    return QuiverGraph.of(count, pairs)


def load_quiver(path) -> QuiverGraph:
    return quiver_from_text(Path(path).read_text())


def simple_root(q: QuiverGraph, i: int) -> Root:
    q.check_vertex(i)
    return tuple(1 if j == i else 0 for j in range(q.vertex_count))


def root_height(w: Root) -> int:
    return sum(w)


def cartan_pairing(q: QuiverGraph, a: Root, b: Root) -> int:
    """Symmetric bilinear form: <alpha_i, alpha_i> = 2, -1 across edges, 0 otherwise."""
    q.check_root(a)
    q.check_root(b)
    total = 2 * sum(x * y for x, y in zip(a, b))
    for i, j in q.edges:
        total -= a[i] * b[j] + a[j] * b[i]
    return total


def pairing_with_simple(q: QuiverGraph, w: Root, i: int) -> int:
    """<w, alpha_i>; a vertex out of range or a root of the wrong length raises ValueError."""
    q.check_vertex(i)
    q.check_root(w)
    return _pairing(q, w, i)


def _pairing(q: QuiverGraph, w: Root, i: int) -> int:
    """`pairing_with_simple` for a vertex and a root its caller has checked."""
    return 2 * w[i] - sum(w[j] for j in q.neighbors(i))


def reflect(q: QuiverGraph, w: Root, i: int) -> Root:
    """Simple reflection s_i(w) = w - <w, alpha_i> alpha_i."""
    q.check_vertex(i)
    q.check_root(w)
    return _reflect(q, w, i)


def _reflect(q: QuiverGraph, w: Root, i: int) -> Root:
    """`reflect` for a vertex and a root its caller has checked."""
    c = _pairing(q, w, i)
    if c == 0:
        return w
    return tuple(x - c if j == i else x for j, x in enumerate(w))


def reflect_sequence(q: QuiverGraph, vertices, w: Root) -> Root:
    """Apply s_v for each vertex in order (first entry acts first)."""
    for v in vertices:
        w = reflect(q, w, v)
    return w


def is_root(q: QuiverGraph, w: Root) -> bool:
    """Real-root test; in finite type the norm-2 vectors are exactly the roots."""
    return cartan_pairing(q, w, w) == 2


def is_positive_root(q: QuiverGraph, w: Root) -> bool:
    return is_root(q, w) and all(x >= 0 for x in w) and any(x > 0 for x in w)


def positive_roots(q: QuiverGraph) -> list[Root]:
    """All positive roots, by closing the simples under simple reflections."""
    q.require_finite_type()
    seen: set[Root] = {simple_root(q, i) for i in range(q.vertex_count)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(q.vertex_count):
                r = _reflect(q, w, i)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(w for w in seen if all(x >= 0 for x in w))


def minimal_word(q: QuiverGraph, w: Root) -> WeylWord:
    """Minimal expression of a positive root over a simple root.

    Greedy height descent: repeatedly apply the lowest-index simple
    reflection that strictly lowers the height.  In simply laced finite type
    every descent step lowers the height by exactly one, so the word length
    always equals height(w) - 1.
    """
    return _greedy_word(q, w, range(q.vertex_count))


def last_minimal_word(q: QuiverGraph, w: Root) -> WeylWord:
    """The minimal expression from the greedy descent by the highest-index reflection.

    Every minimal expression of w is a strict height descent, and
    `minimal_word` and this one are the first and the last of them when the
    descents are listed by their reflections, lowest index first.  So the
    two words differ exactly when w has two or more minimal expressions.
    """
    return _greedy_word(q, w, range(q.vertex_count - 1, -1, -1))


def _greedy_word(q: QuiverGraph, w: Root, vertices: range) -> WeylWord:
    """Height descent taking, at each step, the first lowering reflection in `vertices`."""
    if not is_positive_root(q, w):
        raise ValueError(f"{w} is not a positive root")
    descent = []
    cur = w
    while root_height(cur) > 1:
        for i in vertices:
            if _pairing(q, cur, i) > 0:
                descent.append(i)
                cur = _reflect(q, cur, i)
                break
        else:  # pragma: no cover - unreachable in finite type
            raise RuntimeError(f"no descent available from {cur}")
    return WeylWord(base=cur.index(1), letters=tuple(reversed(descent)))


def evaluate_word(q: QuiverGraph, word: WeylWord) -> Root:
    return reflect_sequence(q, word.letters, simple_root(q, word.base))


def root_sequence(q: QuiverGraph, word: WeylWord) -> list[Root]:
    """The roots R_i = s_{v_n} ... s_{v_{i+1}}(alpha_{v_i}), for i = 0..n.

    R_0 is the word's target root; for a minimal word every entry is positive.
    """
    simples = [simple_root(q, v) for v in (word.base,) + word.letters]  # checks every vertex
    seq = []
    for i, r in enumerate(simples):
        for v in word.letters[i:]:
            r = _reflect(q, r, v)
        seq.append(r)
    return seq
