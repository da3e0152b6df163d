"""Phenylene chains built from {0,1,2} codes.

A chain with n hexagonal cells and n-1 square cells is encoded by a word
w in {0,1,2}^(n-2), one entry per interior hexagon: the entry says how many
of the hexagon's two extra vertices sit on its top side (the rest go on the
bottom).  Both terminal hexagons carry their extra vertices on the bottom.
Entry 1 makes the chain continue straight at that hexagon; entries 0 and 2
are the two mirror-image kinks.  `orbit_words` lists the words of the
congruent chains; every symmetry class here is read off it.

Vertex layout: the underlying ladder has columns 0..2n-1 with top vertex 2j
and bottom vertex 2j+1 in column j; extra cycle vertices are appended after
the ladder ids, hexagon by hexagon.  Square i (between hexagons i and i+1)
has corners a_i = 4i-2 (top, hexagon-i side), b_i = 4i (top), k_i = 4i+1
(bottom), l_i = 4i-1 (bottom, hexagon-i side).
"""

from itertools import product
from typing import NamedTuple

from .exact_arith import Rational, format_rational
from .resistance_engine import InvalidNetworkError, ResistanceNetwork


class ChainCodeError(ValueError):
    """Malformed chain code input."""


_ALLOWED = (0, 1, 2)


class _ChainCodeFields(NamedTuple):
    n: int
    w: tuple


class ChainCode(_ChainCodeFields):
    """A phenylene chain shape: hexagon count n and interior word w, a
    tuple.  Checked when made, and by `_make` and `_replace` through it."""

    __slots__ = ()

    def __new__(cls, n, w):
        if not isinstance(n, int) or n < 1:
            raise ChainCodeError(f"need at least one hexagon, got n={n!r}")
        w = tuple(w)
        expected = max(n - 2, 0)
        if len(w) != expected:
            raise ChainCodeError(f"n={n} needs {expected} entries, got {len(w)}")
        for e in w:
            if e not in _ALLOWED:
                raise ChainCodeError(f"entries must be 0, 1, or 2, got {e!r}")
        return tuple.__new__(cls, (n, w))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "ChainCode":
        """Parse "020", "0,2,0", "w=020", "n=5 w=0,2,0", or "n=1".

        An n= token must agree with the word length; a bare empty word
        needs one (1 and 2 both have empty words).
        """
        if not isinstance(text, str):
            raise ChainCodeError(f"expected string, got {type(text).__name__}")
        word = None
        n = None
        for token in text.split():
            if token.startswith("n="):
                if n is not None:
                    raise ChainCodeError(f"repeated n= in {text!r}")
                try:
                    n = int(token[2:])
                except ValueError:
                    raise ChainCodeError(f"bad hexagon count in {text!r}") from None
            else:
                if word is not None:
                    raise ChainCodeError(f"more than one code word in {text!r}")
                word = token[2:] if token.startswith("w=") else token
        entries = cls._parse_word(word or "", text)
        if n is None:
            if not entries:
                raise ChainCodeError(f"empty word is ambiguous, give n=1 or n=2: {text!r}")
            n = len(entries) + 2
        return cls(n, entries)

    @staticmethod
    def _parse_word(word: str, context: str) -> tuple:
        if not word:
            return ()
        parts = word.split(",") if "," in word else list(word)
        entries = []
        for p in parts:
            if p not in ("0", "1", "2"):
                raise ChainCodeError(f"entries must be 0, 1, or 2: {context!r}")
            entries.append(int(p))
        return tuple(entries)

    @property
    def word(self) -> str:
        return "".join(str(e) for e in self.w)

    def __str__(self):
        return f"n={self.n} w={self.word}" if self.w else f"n={self.n}"

    def orbit(self) -> tuple:
        """The symmetry class (`orbit_words`), each code once, in word order."""
        return tuple(ChainCode(self.n, map(int, w)) for w in sorted(set(orbit_words(self.word))))

    def canonical(self) -> "ChainCode":
        """The least code of the orbit."""
        return ChainCode(self.n, map(int, canonical_word(self.word)))

    def is_canonical(self) -> bool:
        return self.word == canonical_word(self.word)

    def is_all_kink(self) -> bool:
        """True when no interior hexagon continues straight (no entry is 1)."""
        return all(e != 1 for e in self.w)

    def full_entries(self) -> tuple:
        """Per-hexagon top-vertex counts, terminal hexagons included."""
        if self.n == 1:
            return (0,)
        return (0, *self.w, 0)


_FLIP = str.maketrans("02", "20")


def orbit_words(word: str) -> tuple:
    """The words of the chains congruent to `word`'s, with repeats: itself,
    its reverse, its 0-2 flip (the mirror image) and the flip's reverse."""
    flip = word.translate(_FLIP)
    return word, word[::-1], flip, flip[::-1]


def canonical_word(word: str) -> str:
    """The least word of `word`'s orbit."""
    return min(orbit_words(word))


def helicene(n: int) -> ChainCode:
    """The all-kink chain that always turns the same way."""
    return ChainCode(n, (0,) * max(n - 2, 0))


def linear(n: int) -> ChainCode:
    """The straight chain (every interior entry 1)."""
    return ChainCode(n, (1,) * max(n - 2, 0))


def enumerate_words(n: int, canonical_only=False):
    """Yield all ChainCodes with n hexagons in lexicographic word order."""
    for w in product(_ALLOWED, repeat=max(n - 2, 0)):
        code = ChainCode(n, w)
        if canonical_only and not code.is_canonical():
            continue
        yield code


# ---------------------------------------------------------------------------
# construction


def _hexagon_cells(num_columns: int, hexagon_squares, entries):
    """Edge list and hexagon cycles for a row of cells over a ladder.

    `hexagon_squares` gives the 0-based ladder squares that become hexagons
    (their top/bottom edges are subdivided per the matching entry); every
    other ladder edge is kept.  Returns (edges, hexagons) with fresh
    subdivision ids starting at 2*num_columns.
    """
    hexagon_squares = list(hexagon_squares)
    edges = []
    for j in range(num_columns):
        edges.append((2 * j, 2 * j + 1))
    skip = set(hexagon_squares)
    for j in range(num_columns - 1):
        if j not in skip:
            edges.append((2 * j, 2 * j + 2))
            edges.append((2 * j + 1, 2 * j + 3))
    nxt = 2 * num_columns
    hexagons = []
    for sq, entry in zip(hexagon_squares, entries):
        tl, bl, tr, br = 2 * sq, 2 * sq + 1, 2 * sq + 2, 2 * sq + 3
        top_added = list(range(nxt, nxt + entry))
        nxt += entry
        bottom_added = list(range(nxt, nxt + (2 - entry)))
        nxt += 2 - entry
        for path in ((tl, *top_added, tr), (bl, *bottom_added, br)):
            for u, v in zip(path, path[1:]):
                edges.append((u, v))
        hexagons.append((tl, *top_added, tr, br, *reversed(bottom_added), bl))
    return edges, tuple(hexagons)


class LabeledChain(NamedTuple):
    """A built phenylene chain with its cell structure and landmarks.

    hexagons: one 6-tuple per hexagon, in cycle order starting at the
    top-left corner.  square_corners: one (a_i, b_i, k_i, l_i) per square,
    a/b on top, a/l on the hexagon-i side.  The landmarks need at least one
    square: a1 and l1 are the left corners of the first square, unit_edge is
    the edge (b, k) that the last square shares with the last hexagon, x is
    the degree-2 vertex of the last hexagon adjacent to b, and y is x's other
    neighbor.
    """

    network: ResistanceNetwork
    hexagons: tuple
    square_corners: tuple

    @property
    def a1(self):
        return self.square_corners[0][0]

    @property
    def l1(self):
        return self.square_corners[0][3]

    @property
    def unit_edge(self):
        return self.square_corners[-1][1:3]

    @property
    def x(self):
        return self.hexagons[-1][1]

    @property
    def y(self):
        return self.hexagons[-1][2]

    def reweighted(self, weights) -> "LabeledChain":
        """Copy with `weights` (unordered vertex pair -> resistance) applied;
        unit_edge, on a chain with a square, stays 1."""
        b, k = self.unit_edge if self.square_corners else (None, None)
        for (u, v), r in dict(weights).items():
            if {u, v} == {b, k} and Rational(r) != 1:
                raise InvalidNetworkError(
                    f"edge ({b}, {k}) is the designated unit edge and must stay 1")
        return LabeledChain(self.network.reweighted(weights), self.hexagons, self.square_corners)


def build_chain(code: ChainCode) -> LabeledChain:
    n = code.n
    edges, hexagons = _hexagon_cells(2 * n, [2 * k for k in range(n)], code.full_entries())
    corners = tuple((4 * i - 2, 4 * i, 4 * i + 1, 4 * i - 1) for i in range(1, n))
    return LabeledChain(ResistanceNetwork(edges), hexagons, corners)


def build_terminal_chain(n: int, weights=None) -> LabeledChain:
    """The chain of n squares and n hexagons in alternation, square first.

    Cell order is S_1 C_1 S_2 C_2 ... S_n C_n.  `weights` maps unordered
    vertex pairs to resistances; the unit edge (b_n, k_n) = (4n-2, 4n-1),
    shared between S_n and C_n, must keep resistance 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    edges, hexagons = _hexagon_cells(2 * n + 1, [2 * k - 1 for k in range(1, n + 1)], (0,) * n)
    corners = tuple((4 * i - 4, 4 * i - 2, 4 * i - 1, 4 * i - 3) for i in range(1, n + 1))
    chain = LabeledChain(ResistanceNetwork(edges), hexagons, corners)
    return chain.reweighted(weights) if weights else chain


def corner_labels(chain) -> dict:
    """Vertex -> "a3"-style labels for the square corners."""
    labels = {}
    for i, (a, b, k, l) in enumerate(chain.square_corners, start=1):
        labels[a] = f"a{i}"
        labels[b] = f"b{i}"
        labels[k] = f"k{i}"
        labels[l] = f"l{i}"
    return labels


def chain_to_dot(chain, name="chain"):
    """Yield the Graphviz rendering of `chain` line by line: each vertex with
    its corner label and the hexagons it lies on, each edge with its
    resistance."""
    labels = corner_labels(chain)
    hexagons = {}
    for i, cycle in enumerate(chain.hexagons, start=1):
        for v in cycle:
            hexagons[v] = f"{hexagons[v]},{i}" if v in hexagons else str(i)
    yield f"graph {name} {{\n  node [shape=circle];\n"
    for v in chain.network.vertices:
        attrs = [f'{key}="{text[v]}"' for key, text in (("label", labels), ("hexagons", hexagons)) if v in text]
        yield f'  "{v}" [{", ".join(attrs)}];\n' if attrs else f'  "{v}";\n'
    for e in chain.network.edges:
        yield f'  "{e.u}" -- "{e.v}" [label="{format_rational(e.r)}"];\n'
    yield "}\n"
