"""Exhaustive Kirchhoff-index search over phenylene chains, the two-port
transfer engine behind it, the kink-flip rewiring, and the supporting
strict-inequality checks.

All verdicts are exact rational comparisons.  The exhaustive operations
refuse to run past a configurable code-count cap instead of sampling: the
extremal claims are only meaningful when the enumeration is complete.
"""

from functools import cache
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .chain_model import (
    ChainCode,
    LabeledChain,
    build_chain,
    build_terminal_chain,
    canonical_word,
    enumerate_words,
    helicene,
    linear,
)
from .exact_arith import Rational, _LazyList, _exact, _fields_json, format_rational
from .resistance_engine import (
    Edge,
    NetworkError,
    ResistanceNetwork,
    kirchhoff_index,
    resistance_matrix,
    resistance_sums,
    simplify_chain_circuit,
    terminal_resistances,
)
from .st_isomer import STPair, lemma4_delta, make_st_pair

DEFAULT_CAP = 2187  # 3^7, reached at n = 9
DEFAULT_SEED = 1729


class SearchCapExceeded(RuntimeError):
    """Exhaustive enumeration would be larger than the configured cap."""


class LabelingError(ValueError):
    """A chain's recorded cell structure does not match its edges."""


# ---------------------------------------------------------------------------
# two-port transfer engine
#
# Cut a unit chain at the square after hexagon m.  The prefix A (hexagons
# 1..m, N vertices) meets the rest only at the right corners (a, l) of
# hexagon m; R = r_A(a, l).  Seen from u in A, A is a star on u, a, l whose
# centre sits on the a-l wire at p_u from a, on a pendant x_u:
#     p_u = (r(u,a) - r(u,l) + R)/2,   x_u = (r(u,a) + r(u,l) - R)/2.
# A block B (the next square and the hexagon with letter e) meets A only at
# {a, l}: for pairs inside A it acts as one resistor rho = r_B(a,l) across
# a and l, and A acts as one resistor R for pairs inside B.  With
# t = 1/(R + rho) and (s_X, rho - s_X, y_X) B's own star on a, l, X,
#     r(u,v) = r_A(u,v) - t (p_u - p_v)^2           (Sherman-Morrison),
#     r(X,Y) = r_B(X,Y) - t (s_X - s_Y)^2,
#     r(u,X) = x_u + y_X + (p_u + s_X) - t (p_u + s_X)^2   (as tR = 1 - t rho).
# Read at B's right corners (a', l'), p'_u is affine in p_u and x'_u - x_u
# quadratic, so the state (N, R, sum x, sum p, sum p^2, Kf) closes under
# appending a block, and every coefficient of the update is a polynomial
# in t whose coefficients depend on e alone.  Neither rho nor R' = r(a', l')
# depends on e: the hexagon's two routes from its left edge to a' and l'
# always have 4 edges together.  So R and t depend only on the depth.
#
# The state is kept fraction-free.  With tau the spanning-tree count of the
# prefix, R tau is an integer, and so are sum x, sum p and Kf times
# S = 2 tau, and sum p^2 times S^2; the engine keeps these five integers.
# B is a hexagon with two pendant edges, so it has _TREES spanning trees,
# and the 2-sum identity tau(A + B) = tau_A tau_B (R + rho) gives the next
# scale S' = _TREES (R S) + _TREES rho S, and t = _TREES S / S'.  A
# coefficient polynomial of degree k times S'^k is then a form in S and S'
# over the blocks' common denominator D, so each update needs only
# products and a division by D, D^2 or D S, each checked to be exact.
# Lemma 6 rides the same step: each checked vertex u of the first hexagon
# starts from its star (p_u, x_u) on the cut (a_1, l_1) and moves by
# p' = alpha p + beta, x' = x + gamma + delta p - t p^2 per block, which is
# the update of a one-vertex prefix (N = 1, sum p^2 = p^2) to which the
# block adds no vertices.  After the terminal letter-0 block, whose right
# corners (a', l') are the chain's x and y, r(u, a') = x'_u + p'_u and
# r(u, l') = x'_u + R' - p'_u.

_CELL = 6  # vertices a block adds: those of its hexagon
_TREES = 6  # spanning trees of a hexagon (drop any one edge), so of a block
_SCALE = 2 * _TREES  # S of the first hexagon


class _Block(NamedTuple):
    """Coefficients of appending a block with one letter, each a polynomial
    in t = 1/(R + rho) given by its coefficients, constant term first."""

    r_next: tuple      # R of the longer prefix
    alpha: tuple       # p'_u = alpha p_u + beta, where alpha = alpha_1 t
    beta: tuple
    gamma: tuple       # x'_u = x_u + gamma + delta p_u - t p_u^2
    delta: tuple
    new_x: tuple       # sums of x', p', p'^2 over the block's vertices
    new_p: tuple
    new_pp: tuple
    kf_new: tuple      # Kf among the block's vertices
    cross_n: tuple     # Kf between prefix and block, per prefix vertex ...
    cross_p: tuple     # ... and per unit of sum p, besides 6 sum x - 6 t sum p^2


class _Constants(NamedTuple):
    """The engine's integers, made once by `_transfer_constants`."""

    start: tuple       # (sum x, sum p, sum p^2, Kf) of the first hexagon, scaled
    r: int             # R S of the first hexagon
    rho: int           # rho _TREES
    den: int           # D, the blocks' common denominator
    blocks: tuple      # _Blocks of letters 0, 1, 2, polynomials times D
    feet: tuple        # (x_u, p_u, p_u^2), scaled, per first-hexagon vertex


class _Level(NamedTuple):
    """Appending one block at one depth, in integers.  From (x, p, q, k) =
    (sum x, sum p, sum p^2, Kf) times (S, S, S^2, S) to the same over S':
        x' = (dt x + dp p - dq q + x1) / ds,
        p' = (a p + p1) / den,
        q' = (a (a q + 2 b p) + q1) / den^2,
        k' = (dt (k + 6 x) - dq ((N + 6) q - p^2) + kp p + k1) / ds.
    """

    size: int          # N
    den: int
    den2: int          # den^2
    ds: int            # den S
    dt: int            # den S'
    dq: int            # den _TREES
    dp: int
    x1: int
    a: int
    b: int
    p1: int
    q1: int
    kp: int
    k1: int
    scale: int         # S'
    r: int             # R' S'


def _star(r, a, l, u):
    """(foot, pendant) of u on the a-l wire, from resistances r(., .)."""
    return (r(u, a) - r(u, l) + r(a, l)) / 2, (r(u, a) + r(u, l) - r(a, l)) / 2


def _block(e: int) -> tuple:
    """(rho, _Block of rational polynomials) for a block with letter e.

    The block is square 1 and hexagon 2 of the chain with code (e,), less
    the edge (a_1, l_1) of hexagon 1: one 8-vertex factorization.
    """
    chain = build_chain(ChainCode(3, (e,)))
    a, _, _, l = chain.square_corners[0]
    a2, _, _, l2 = chain.square_corners[1]
    cells = chain.network.induced({a, l, *chain.hexagons[1]})
    block = ResistanceNetwork([edge for edge in cells.edges if {edge.u, edge.v} != {a, l}])
    r = resistance_matrix(block).resistance
    new = [v for v in block.vertices if v not in (a, l)]
    s, y = {}, {}
    for v in new:
        s[v], y[v] = _star(r, a, l, v)

    def joined(u, v):  # r(u, v) in the joined network
        return r(u, v), -(s[u] - s[v]) ** 2

    c0, c1 = joined(a2, l2)
    sa, sl = s[a2], s[l2]
    feet, pendants = [], []
    for v in new:
        (ra0, ra1), (rl0, rl1) = joined(v, a2), joined(v, l2)
        feet.append(((ra0 - rl0 + c0) / 2, (ra1 - rl1 + c1) / 2))
        pendants.append(((ra0 + rl0 - c0) / 2, (ra1 + rl1 - c1) / 2))
    s1 = sum(s.values())
    s2 = sum(v * v for v in s.values())
    return r(a, l), _Block(
        r_next=(c0, c1),
        alpha=(0, sl - sa),
        beta=((y[a2] - y[l2] + sa - sl + c0) / 2, (c1 - sa * sa + sl * sl) / 2),
        gamma=((y[a2] + y[l2] + sa + sl - c0) / 2, -(c1 + sa * sa + sl * sl) / 2),
        delta=(1, -(sa + sl)),
        new_x=tuple(map(sum, zip(*pendants))),
        new_p=tuple(map(sum, zip(*feet))),
        new_pp=(sum(f0 * f0 for f0, _ in feet), sum(2 * f0 * f1 for f0, f1 in feet),
                sum(f1 * f1 for _, f1 in feet)),
        kf_new=(sum(r(u, v) for i, u in enumerate(new) for v in new[i + 1:]),
                -(len(new) * s2 - s1 * s1)),
        cross_n=(sum(y.values()) + s1, -s2),
        cross_p=(len(new), -2 * s1))


def _integer(value, scale: int) -> int:
    """value * scale, which must be an integer."""
    scaled = Rational(value) * scale
    if scaled.denominator != 1:
        raise ArithmeticError(f"{value} * {scale} is not an integer")
    return scaled.numerator


@cache
def _transfer_constants() -> _Constants:
    """The engine's _Constants, with the feet in `hexagons[0]` order.

    Four factorizations of at most 8 vertices, made on first use.
    """
    first = build_chain(ChainCode(2, ()))
    hexagon = first.network.induced(first.hexagons[0])
    matrix = resistance_matrix(hexagon)
    stars = [_star(matrix.resistance, first.a1, first.l1, u) for u in first.hexagons[0]]
    rhos, blocks = zip(*(_block(e) for e in (0, 1, 2)))
    den = lcm(*(Rational(c).denominator for block in blocks for poly in block for c in poly))
    return _Constants(
        start=(_integer(sum(x for _, x in stars), _SCALE), _integer(sum(p for p, _ in stars), _SCALE),
               _integer(sum(p * p for p, _ in stars), _SCALE ** 2),
               _integer(matrix.total(), _SCALE)),
        r=_integer(matrix.resistance(first.a1, first.l1), _SCALE),
        rho=_integer(rhos[0], _TREES),
        den=den,
        blocks=tuple(_Block(*(tuple(_integer(c, den) for c in poly) for poly in block))
                     for block in blocks),
        feet=tuple((_integer(x, _SCALE), _integer(p, _SCALE), _integer(p * p, _SCALE ** 2))
                   for p, x in stars))


def _at(poly: tuple, t_den: int, t_num: int) -> int:
    """poly(t_num / t_den) times t_den^(degree of poly)."""
    degree = len(poly) - 1
    return sum(c * t_num ** k * t_den ** (degree - k) for k, c in enumerate(poly))


def _scales(steps: int):
    """(S, S', R' S') for each of `steps` blocks appended to the first
    hexagon; neither S nor R depends on the letters."""
    c = _transfer_constants()
    s, r = _SCALE, c.r
    for _ in range(steps):
        s_next = _TREES * r + c.rho * s
        r = _exact(_at(c.blocks[0].r_next, s_next, _TREES * s), c.den)
        yield s, s_next, r
        s = s_next


def _level(block: _Block, scales: tuple, size: int, den: int) -> _Level:
    """The _Level of appending `block` at a depth with `scales` = (S, S',
    R' S') to a prefix of `size` vertices.  Each coefficient is `_at` of
    its polynomial, written out: degree 1, and degree 2 for new_pp.  The
    fields are passed by position, in their order: by keyword the call
    took half as long again."""
    s, s_next, r = scales
    u = _TREES * s  # t S'
    _, (_, a), (b0, b1), (g0, g1), (d0, d1), (x0, x1), (p0, p1), (q0, q1, q2), \
        (k0, k1), (n0, n1), (c0, c1) = block
    b = b0 * s_next + b1 * u
    return _Level(size, den, den * den, den * s, den * s_next, den * _TREES, d0 * s_next + d1 * u,
                  s * (size * (g0 * s_next + g1 * u) + x0 * s_next + x1 * u), _TREES * a, b,
                  size * b + p0 * s_next + p1 * u,
                  size * b * b + den * ((q0 * s_next + q1 * u) * s_next + q2 * u * u), c0 * s_next + c1 * u,
                  s * (size * (n0 * s_next + n1 * u) + k0 * s_next + k1 * u), s_next, r)


def _move(c: _Level, x: int, p: int, q: int) -> tuple:
    """(x, p, q) of the prefix after appending the block of `c`."""
    return (_exact(c.dt * x + c.dp * p - c.dq * q + c.x1, c.ds),
            _exact(c.a * p + c.p1, c.den),
            _exact(c.a * (c.a * q + 2 * c.b * p) + c.q1, c.den2))


def _kf(c: _Level, x: int, p: int, q: int, k: int) -> int:
    """k of the prefix after appending the block of `c`."""
    return _exact(c.dt * (k + _CELL * x) - c.dq * ((c.size + _CELL) * q - p * p)
                  + c.kp * p + c.k1, c.ds)


def _advance(state: tuple, c: _Level) -> tuple:
    """(x, p, q, k) of the prefix after appending the block of `c`."""
    return (*_move(c, *state[:3]), _kf(c, *state))


def _transfer_kf(code: ChainCode, levels=None) -> Rational:
    """Kf of the unit chain of `code`, one block per hexagon after the
    first, each block's level made for its letter or, given `levels` =
    `_levels(code.n)`, read off them."""
    c = _transfer_constants()
    state, scale = c.start, _SCALE
    if levels:
        steps = [*(row[e] for row, e in zip(levels[0], code.w)), levels[1]]
    else:
        letters = code.full_entries()[1:]
        steps = (_level(c.blocks[e], scales, _CELL * (depth + 1), c.den)
                 for depth, (e, scales) in enumerate(zip(letters, _scales(len(letters)))))
    for level in steps:
        state, scale = _advance(state, level), level.scale
    return Rational(state[3], scale)


def _levels(n: int, feet=False) -> tuple:
    """(levels, last) for codes with n >= 2 hexagons: levels[d] holds the
    _Levels of letters 0, 1, 2 at interior depth d, and last is the level of
    the terminal hexagon, which carries letter 0.  With `feet` the levels
    move one vertex, and the block adds no vertices."""
    c = _transfer_constants()
    blocks = c.blocks
    if feet:
        blocks = [b._replace(new_x=(0, 0), new_p=(0, 0), new_pp=(0, 0, 0)) for b in blocks]
    rows = [tuple(_level(b, scales, 1 if feet else _CELL * (depth + 1), c.den)
                  for b in (blocks if depth < n - 2 else blocks[:1]))
            for depth, scales in enumerate(_scales(n - 1))]
    return rows[:-1], rows[-1][0]


def _walk(start, levels: tuple, advance, finish):
    """Yield finish(state, last) for every code, in word order, by a
    depth-first walk of the code trie over `levels` = (levels, last) of
    `_levels` that extends each prefix's state once with
    advance(state, level).  It holds one state per pending trie node, at
    most 2 per depth, and nothing per leaf.

    The walk keeps its own stack: a recursive closure would refer to itself,
    and the cycle would keep the states alive until the next full garbage
    collection.
    """
    levels, last = levels
    todo = [(start, 0)]
    while todo:
        state, depth = todo.pop()
        if depth == len(levels):
            yield finish(state, last)
        else:
            todo.extend((advance(state, level), depth + 1) for level in reversed(levels[depth]))


class _Split(NamedTuple):
    """The codes with n hexagons cut after `cut` letters (`_split`): word
    uv's Kf numerator over `scale` is (F_u + G_v) / den - p_u s_v, with
    heads[u] = (F_u, p_u) per prefix u of `cut` letters and tails[v] =
    (G_v, s_v) per suffix v, each in word order, and den > 0."""

    scale: int
    heads: list
    tails: list
    den: int
    levels: object     # the `_levels(n)` the walks ran on, None for n = 1


def _layer(rows, reverse=False):
    """The state (x, p, q, k), over the last row's S, of every word over
    `rows` (of `_levels`), grown from the first hexagon a letter at a time,
    one `_advance` per trie node below the root, in word order or, with
    `reverse`, in the word order of the reversed words.  The leaves are
    made as they are read, so a reader that keeps only its readings never
    holds them all."""
    if not rows:
        return iter([_transfer_constants().start])
    states, row = list(_layer(rows[:-1], reverse)), rows[-1]
    return ((_advance(state, c) for c in row for state in states) if reverse
            else (_advance(state, c) for state in states for c in row))


def _seen_from_cut(x: int, p: int, q: int, k: int, size: int, scale: int) -> tuple:
    """(y, s, s2, k) over `scale` of the far side B of a cut, from the
    state of the chain of its `size` vertices read from its far end: B
    adds the cut square's two single edges, and each moves a foot by 1."""
    return x, p + size * scale, q + (2 * p + size * scale) * scale, k


def _split(n: int, cut: int) -> _Split:
    """The _Split of the codes with n hexagons cut after `cut` letters,
    0 <= cut <= m = n - 2 (see `extremes`).

    The a = cut letters of u leave A, the first a + 1 hexagons, in the
    state (x, p, q, k) of u over S_A.  B, the rest, less the cut square's
    two single edges is the chain of b + 1 hexagons with the letters of
    rev(v) read from its far end, so `_seen_from_cut` of the state of
    rev(v) over the same levels[:b] reads it, over S_B: a level depends
    only on its depth and letter.  With N = 6 n and D = 2 S_(n-1), which
    is S_A S_B (R_A + 2 + R_B) by the 2-sum identity, t = S_A S_B / D and
        F_u = S_B ((k + N_B (x + p)) D - S_B (N q - p^2))
    over D S_A S_B is f(u), G_v is the same of (y, s, s2, k) with the
    sides swapped, and den = 2 S_A S_B; an empty side is the first hexagon."""
    if n == 1:
        return _Split(_SCALE, [(0, 0)], [(_transfer_constants().start[3], 0)], 1, None)
    table = levels, last = _levels(n)
    b = len(levels) - cut
    s_a, s_b = (levels[depth - 1][0].scale if depth else _SCALE for depth in (cut, b))
    n_a, n_b, size, d = _CELL * (cut + 1), _CELL * (b + 1), _CELL * n, 2 * last.scale

    def read(x, p, q, k, n_far, s_far):  # (F_u, p_u) of a prefix, (G_v, s_v) of a suffix's (y, s, s2, k)
        return s_far * ((k + n_far * (x + p)) * d - s_far * (size * q - p * p)), p

    heads = [read(*state, n_b, s_b) for state in _layer(levels[:cut])]
    tails = [read(*_seen_from_cut(*state, n_b, s_b), n_a, s_a) for state in _layer(levels[:b], reverse=True)]
    return _Split(last.scale, heads, tails, 2 * s_a * s_b, table)


def _halves(n: int, cap: int) -> tuple:
    """(code count, `_split` of n at its middle), the cap and n checked
    first."""
    count = check_cap(n, cap)
    helicene(n)  # ChainCodeError for n < 1
    return count, _split(n, max(n - 2, 0) // 2)


def _transfer_lemma6(n: int):
    """Yield (u, r(u, x), r(u, y)) per first-hexagon vertex u other than a_1
    and l_1, in `hexagons[0]` order, for every code with n >= 2 hexagons in
    word order."""
    feet = _transfer_constants().feet
    # every code with n hexagons numbers its first and last hexagon alike
    chain = build_chain(helicene(n))
    first, last = chain.hexagons[0], chain.hexagons[-1]
    # both carry letter 0, so the last one's right corners sit where the
    # first one's, a_1 and l_1, do
    a, l = (last[first.index(v)] for v in (chain.a1, chain.l1))
    x_end, y_end = chain.x, chain.y
    places = [i for i, u in enumerate(first) if u not in (chain.a1, chain.l1)]
    checked = [first[i] for i in places]

    def move(state, c):
        return tuple(_move(c, *foot) for foot in state)

    def read(state, c):
        rows = []
        for u, (pendant, foot, _) in zip(checked, move(state, c)):
            r = {a: Rational(pendant + foot, c.scale), l: Rational(pendant + c.r - foot, c.scale)}
            rows.append((u, r[x_end], r[y_end]))
        return tuple(rows)

    return _walk(tuple(feet[i] for i in places), _levels(n, feet=True), move, read)


# ---------------------------------------------------------------------------
# enumeration


def _report_dict(n: int, word: str, canonical: str, num: int, den: int) -> dict:
    """The JSON report of the code with n hexagons and `word`, whose Kf is
    num/den in lowest terms."""
    return {
        "code": {"n": n, "w": word},
        "canonical": canonical,
        "kf": f"{num}/{den}" if den != 1 else str(num),
        "kf_num": num,
        "kf_den": den,
        "is_all_kink": "1" not in word,
        "vertex_count": 6 * n,
        "edge_count": 8 * n - 2,
    }


class KfReport(NamedTuple):
    code: ChainCode
    kf: Rational
    per_vertex_sums: object = None  # optional dict vertex -> Rational

    @property
    def vertex_count(self) -> int:
        return 6 * self.code.n

    @property
    def edge_count(self) -> int:
        return 8 * self.code.n - 2

    def as_dict(self) -> dict:
        code, kf = self.code, self.kf
        out = _report_dict(code.n, code.word, code.canonical().word, kf.numerator, kf.denominator)
        if self.per_vertex_sums is not None:
            out["per_vertex_sums"] = {str(v): format_rational(q)
                                      for v, q in sorted(self.per_vertex_sums.items(), key=lambda t: str(t[0]))}
        return out


def kf_of_code(code: ChainCode, with_sums=False) -> KfReport:
    """Exact Kirchhoff index of the unit chain built from `code`.

    Kf comes from the two-port transfer engine: one exact update per
    hexagon, with constants from the factorization of four networks of at
    most 8 vertices.  With `with_sums` the whole chain is built and factored
    instead, since per-vertex resistance sums need the factored network:
    Kf and the sums then come from the grounded factorization, so the sums
    are not an independent check of that Kf.
    """
    if not with_sums:
        return KfReport(code, _transfer_kf(code))
    net = build_chain(code).network
    return KfReport(code, kirchhoff_index(net), resistance_sums(net))


def _code_at(n: int, index: int) -> ChainCode:
    """The code with n hexagons at `index` in word order: its letters are
    the base-3 digits of `index`."""
    return ChainCode(n, [index // 3 ** e % 3 for e in reversed(range(max(n - 2, 0)))])


def _lower_envelope(lines, xs) -> list:
    """min(m x + c for (m, c) in lines) for each x of xs, in xs' order: the
    lower envelope of the lines, in integers (the convex-hull trick).

    The lines are taken by falling slope, and for one slope by falling
    intercept.  Each one pops the hull's last line l2 while the line l1
    before it meets the new line l3 at or left of where it meets l2, so
    that l2 is nowhere alone below both: duplicates, concurrent lines and
    each slope's higher lines go.  Along the hull each line is then lower
    than the next exactly left of where they meet, and the queries, in
    rising order, walk it once."""
    hull = []
    for m3, c3 in sorted(lines, reverse=True):
        while len(hull) > 1:
            (m1, c1), (m2, c2) = hull[-2:]
            if (c3 - c1) * (m1 - m2) > (c2 - c1) * (m1 - m3):
                break
            hull.pop()
        hull.append((m3, c3))
    values, j = [0] * len(xs), 0
    for i in sorted(range(len(xs)), key=xs.__getitem__):
        x = xs[i]
        value = hull[j][0] * x + hull[j][1]
        while j + 1 < len(hull) and (ahead := hull[j + 1][0] * x + hull[j + 1][1]) < value:
            j, value = j + 1, ahead
        values[i] = value
    return values


def _class(n: int, split: _Split, numerator: int, indices) -> tuple:
    """(Kf, codes): the numerator over the scale of `split`, and the codes
    with n hexagons at `indices` of word order, each of whose Kf
    `_transfer_kf` must find to be that, walking the code's own letters
    through the levels of `split`."""
    kf, codes = Rational(numerator, split.scale), tuple(_code_at(n, i) for i in indices)
    for code in codes:
        if (engine := _transfer_kf(code, split.levels)) != kf:
            raise ArithmeticError(f"{code}: the split route gives Kf {kf}, the engine {engine}")
    return kf, codes


def _extreme(n: int, split: _Split, sign: int) -> tuple:
    """(Kf, codes) of the least Kf of `split` for sign 1, the greatest for
    sign -1: den sign (numerator of uv) = sign F_u + line_v(den p_u), with
    line_v(x) = sign (G_v - s_v x); their lower envelope gives each prefix's
    best suffix, and they are scanned only for prefixes at the extreme."""
    _, heads, tails, den, _ = split
    lines = [(-sign * s, sign * g) for g, s in tails]
    xs = [den * p for _, p in heads]
    best = [sign * f + y for (f, _), y in zip(heads, _lower_envelope(lines, xs))]
    low = min(best)
    at = [u * len(lines) + v for u, (f, _) in enumerate(heads) if best[u] == low
          for v, (m, c) in enumerate(lines) if sign * f + m * xs[u] + c == low]
    return _class(n, split, sign * _exact(low, den), at)


class Extremes(NamedTuple):
    """The least and greatest Kf over the `count` codes with n hexagons,
    and the codes that reach each, in word order."""

    n: int
    count: int
    min_kf: Rational
    max_kf: Rational
    min_codes: tuple
    max_codes: tuple


def extremes(n: int, cap=DEFAULT_CAP) -> Extremes:
    """Exact min/max Kirchhoff classes over every code with n hexagons, by
    meet in the middle: 3^ceil(m/2) states a side for the 3^m codes,
    m = n - 2.

    Cut a word w = uv after its first a letters, at the square after
    hexagon a + 1.  The prefix A, of N_A = 6 (a + 1) vertices, and the
    rest B, of N_B = 6 (m - a + 1), meet at that square's corners.  By the
    header's three formulas, Kf(uv) sums r_A(u, u') - t (p_u - p_u')^2 over
    pairs in A, r_B(X, Y) - t (s_X - s_Y)^2 over pairs in B, and
    x_u + y_X + (p_u + s_X) - t (p_u + s_X)^2 over the N_A N_B cross
    pairs.  Expanded, the squares give N_A sum p^2 - (sum p)^2 inside A,
    the same in s inside B, and N_B sum p^2 + N_A sum s^2 + 2 P S across,
    with P = sum p over A and S = sum s over B.  Every term but the last
    is N_B or N_A times a sum over one side, or t times one: a function of
    u alone or of v alone.  t = 1/(R + rho) with R = r_A(a, l) and
    rho = r_B(a, l).  R depends on the depth alone (the header), and so
    does rho: read from the far end, B less the square's two single edges
    is a prefix of the reversed chain, so rho is 2 plus its R.  N_A and
    N_B count hexagons.  So
        Kf(uv) = f(u) + g(v) - 2 t P(u) S(v),
    with t the same for every code.  `_split` reads f(u) and P(u) off the
    state of u, and g(v) and S(v) off the state of rev(v), one walk a
    side, so that the numerator of uv is (F_u + G_v) / den - p_u s_v.
    For each prefix the least Kf is the lower envelope of the lines
    (-s_v, G_v) read at den p_u (`_lower_envelope`), the greatest the same
    of the negated lines; every comparison is exact, on integers.  Each
    class member's Kf is re-derived by `_transfer_kf` (`_class`).  The
    halves are kept, nothing per code.
    """
    return _extremes(n, *_halves(n, cap))


def _extremes(n: int, count: int, split: _Split) -> Extremes:
    """`extremes` of the `count` codes with n hexagons from their `_split`."""
    (min_kf, min_codes), (max_kf, max_codes) = _extreme(n, split, 1), _extreme(n, split, -1)
    return Extremes(n, count, min_kf, max_kf, min_codes, max_codes)


class ExtremaTable(NamedTuple):
    """The fields of `Extremes`, and every code's Kf: the i-th numerator
    over `scale` for the i-th code in word order, the numerators made
    afresh each time they are read."""

    n: int
    count: int
    min_kf: Rational
    max_kf: Rational
    min_codes: tuple
    max_codes: tuple
    scale: int
    numerators: _LazyList

    @property
    def reports(self) -> _LazyList:
        """The codes' rows (`_rows`), made when read; len() is the code count."""
        return _LazyList(self._rows, self.count)

    def _rows(self):
        """Yield the codes in word order as rows (word, canonical word,
        reduced Kf numerator and denominator, is min, is max), each made
        from its word and numerator: one gcd with the scale, no code and no
        fraction."""
        scale = self.scale
        lo, hi = int(self.min_kf * scale), int(self.max_kf * scale)
        for letters, k in zip(product("012", repeat=max(self.n - 2, 0)), self.numerators):
            word = "".join(letters)
            g = gcd(k, scale)
            yield word, canonical_word(word), k // g, scale // g, k == lo, k == hi

    def as_dict(self) -> dict:
        """The json listing: the fields of `Extremes`, then the reports,
        made as they are read."""
        return {
            **_fields_json(Extremes(*self[:6]), min_codes="min_class", max_codes="max_class"),
            "reports": _LazyList(lambda: (_report_dict(self.n, word, canonical, num, den)
                                          for word, canonical, num, den, _, _ in self.reports),
                                 self.count),
        }

    def csv_lines(self):
        """Yield the csv listing line by line, each ending in a newline."""
        yield "n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max\n"
        flags = {True: "true", False: "false"}
        for word, canonical, num, den, is_min, is_max in self.reports:
            yield (f"{self.n},{word},{canonical},{num},{den},{flags['1' not in word]},"
                   f"{flags[is_min]},{flags[is_max]}\n")


def check_cap(n: int, cap: int):
    """The number of codes with n hexagons, 3^(n-2), if it is at most `cap`.

    Otherwise SearchCapExceeded is raised.  The power is computed only for
    e = n - 2 <= cap.bit_length(); past that, 3^e > 2^e > cap, so a huge n
    is refused at once.
    """
    exponent = max(n - 2, 0)
    if exponent > cap.bit_length():
        count = f"3^{exponent}"
    else:
        total = 3 ** exponent
        if total <= cap:
            return total
        count = str(total)
    raise SearchCapExceeded(
        f"n={n} needs {count} codes but the cap is {cap}; raise it with --cap to search this size exhaustively")


def find_extrema(n: int, cap=DEFAULT_CAP) -> ExtremaTable:
    """`extremes` with every code's Kf, one integer numerator per code,
    for a listing of every code.

    The extremes and classes are those of `extremes`, and the numerators
    come from the same halves: by the identity derived there from the
    header's formulas, Kf(uv) = f(u) + g(v) - 2 t P(u) S(v), where t, N_A
    and N_B depend on the cut's depth alone (N_A and N_B count the
    hexagons on each side, and t = 1/(R + rho) takes the two sides'
    corner resistances, which depend on their hexagon counts alone).  So
    code uv's numerator is (F_u + G_v) / den - p_u s_v, one product and
    one checked division (`_split`).  They are made as the listing reads
    them, so only the halves are kept.
    """
    count, split = _halves(n, cap)
    _, heads, tails, den, _ = split
    numerators = _LazyList(lambda: (_exact(f + g, den) - p * s for f, p in heads for g, s in tails), count)
    return ExtremaTable(*_extremes(n, count, split), split.scale, numerators)


# ---------------------------------------------------------------------------
# kink flips


def _square(chain: LabeledChain, i: int):
    """Corners (a, b, k, l) of square i (1-based) and its single edges ab and lk."""
    if not 1 <= i <= len(chain.square_corners):
        raise LabelingError(f"square index {i} out of range 1..{len(chain.square_corners)}")
    a, b, k, l = corners = chain.square_corners[i - 1]
    edges = []
    for u, v in ((a, b), (l, k)):
        found = chain.network.edges_between(u, v)
        if len(found) != 1:
            raise LabelingError(f"expected one edge between {u!r} and {v!r}, found {len(found)}")
        edges.append(found[0])
    return corners, edges[0], edges[1]


def kink_flip(chain: LabeledChain, i: int) -> ResistanceNetwork:
    """Rewire square i: delete edges a_i b_i and l_i k_i, add a_i k_i and b_i l_i.

    This swaps the kink direction of everything right of square i.  Applying
    it twice restores the original network.
    """
    (a, b, k, l), top, bottom = _square(chain, i)
    net = chain.network
    if top.r != 1 or bottom.r != 1:
        raise LabelingError("kink flip is defined for unit-weight square edges")
    edges = [e for e in net.edges if e not in {top, bottom}]
    edges.append((a, k, Rational(1)))
    edges.append((b, l, Rational(1)))
    return ResistanceNetwork(edges, net.vertices)


def kink_flip_pair(chain: LabeledChain, i: int) -> STPair:
    """The marked-component decomposition at square i.

    Removing edges a_i b_i and l_i k_i splits the chain into the component A
    containing a_i and l_i (hexagons 1..i) and the component B containing b_i
    and k_i; the original chain and its kink flip are exactly the two bridge
    unions of this pair.
    """
    (a, b, k, l), top, bottom = _square(chain, i)
    net = chain.network
    cut = ResistanceNetwork([e for e in net.edges if e not in {top, bottom}], net.vertices)
    side_a = cut.component(a)
    if l not in side_a or b in side_a or k in side_a:
        raise LabelingError(f"square {i} does not separate the chain as labeled")
    side_b = [v for v in net.vertices if v not in side_a]
    return STPair(net.induced(side_a), a, l, net.induced(side_b), b, k)


def flipped_code(code: ChainCode, i: int) -> ChainCode:
    """The code of the chain produced by kink_flip at square i: the entries
    from position i onward (1-based, interior hexagons) are complemented."""
    w = code.w
    cut = max(i - 1, 0)
    return ChainCode(code.n, w[:cut] + tuple(2 - e for e in w[cut:]))


def junction_squares(code: ChainCode) -> tuple:
    """Squares sitting between consecutive interior entries (0, 2)."""
    w = code.w
    return tuple(idx + 2 for idx in range(len(w) - 1) if w[idx] == 0 and w[idx + 1] == 2)


class KinkFlipReport(NamedTuple):
    code: ChainCode
    square: int
    at_junction: bool       # square sits between entries (0, 2)
    kf_original: Rational
    kf_flipped: Rational
    delta_formula: Rational
    flipped: ChainCode
    identity_ok: bool       # Kf difference equals the closed form
    reconstruction_ok: bool  # bridge unions reproduce both networks
    relabel_ok: bool        # flipped network has the flipped code's Kf
    decrease_ok: bool       # strict decrease (required only at junctions)
    passed: bool


def verify_kink_flip(code: ChainCode, i: int) -> KinkFlipReport:
    """Cross-check one kink flip against the difference identity."""
    chain = build_chain(code)
    flipped_net = kink_flip(chain, i)
    pair = kink_flip_pair(chain, i)
    s, t = make_st_pair(pair)
    reconstruction_ok = (s == chain.network and t == flipped_net)
    kf_original = kirchhoff_index(chain.network)
    kf_flipped = kirchhoff_index(flipped_net)
    delta = lemma4_delta(pair)
    identity_ok = (kf_original - kf_flipped == delta)
    new_code = flipped_code(code, i)
    relabel_ok = (kf_of_code(new_code).kf == kf_flipped)
    at_junction = i in junction_squares(code)
    decrease_ok = kf_flipped < kf_original
    passed = identity_ok and reconstruction_ok and relabel_ok and (decrease_ok or not at_junction)
    return KinkFlipReport(code, i, at_junction, kf_original, kf_flipped, delta,
                          new_code, identity_ok, reconstruction_ok, relabel_ok,
                          decrease_ok, passed)


# ---------------------------------------------------------------------------
# terminal-resistance inequalities


def _unit_cycle(net: ResistanceNetwork, cycle) -> bool:
    pairs = zip(cycle, cycle[1:] + cycle[:1])
    return all(all(e.r == 1 for e in net.edges_between(u, v)) for u, v in pairs)


class Lemma5Report(NamedTuple):
    n: int
    r_a1_x: Rational
    r_a1_y: Rational
    r_l1_x: Rational
    r_l1_y: Rational
    r1: Rational
    r2: Rational
    step_count: int
    inequalities_ok: bool
    steps_preserve_ok: bool
    star_range_ok: bool     # 0 < R_1 < 1
    closed_form_ok: object  # None when the last hexagon is not unit-weighted
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, step_count="steps", passed="pass")


def check_lemma5(n: int, weights=None) -> Lemma5Report:
    """Terminal-resistance inequalities on the square-first chain.

    Checks r(a_1, x) < r(a_1, y) and r(l_1, x) < r(l_1, y) from one
    factorization grounded at x that eliminates a_1, l_1 and y last, then
    runs the staged simplification.  Its trace must replay
    (`ReductionTrace.replay`: each step's recorded edges are applied and
    certified on their own, so every resistance among surviving vertices
    is kept); a_1, x and y must be in the replayed network, and one
    factorization of it grounded at a_1 that eliminates x and y last must
    give back r(a_1, x) and r(a_1, y).  Neither read solves or runs a
    Takahashi step but those of the vertices it reads.  Last, the final
    star, read off the replayed network (the reducer's if a step is
    refused), must obey 0 < R_1 < 1 and (for a unit-weighted last hexagon)
    the reduced two-path form must reproduce those values.  No step factors
    the whole network.
    """
    chain = build_terminal_chain(n, weights)
    net = chain.network
    (_, r_a1_x, r_a1_y), (_, r_l1_x, r_l1_y) = terminal_resistances(net, chain.x, chain.y, (chain.a1, chain.l1))
    inequalities_ok = r_a1_x < r_a1_y and r_l1_x < r_l1_y

    final, trace = simplify_chain_circuit(chain)
    try:
        final = trace.replay(net)
        steps_preserve_ok = all(final.has_vertex(v) for v in (chain.a1, chain.x, chain.y))
    except NetworkError:
        steps_preserve_ok = False
    if steps_preserve_ok:
        (_, held_x, _), (_, held_y, _) = terminal_resistances(final, chain.a1, chain.x, (chain.x, chain.y))
        steps_preserve_ok = held_x == r_a1_x and held_y == r_a1_y

    hubs = [s.new_vertex for s in trace if s.kind == "delta-wye"]
    b_n, k_n = chain.unit_edge
    r1 = final.edges_between(hubs[-1], b_n)[0].r
    r2 = final.edges_between(hubs[-1], k_n)[0].r
    star_range_ok = 0 < r1 < 1

    closed_form_ok = None
    if _unit_cycle(net, list(chain.hexagons[-1])):
        # r(a_1, x) = pendant path + two parallel routes around the last
        # hexagon: R_1 + 1 over the top, R_2 + 4 under the bottom
        pendant = Rational(0)
        prev = chain.a1
        for hub in hubs:
            pendant += final.edges_between(prev, hub)[0].r
            prev = hub
        denom = r1 + r2 + 5
        closed_form_ok = (
            r_a1_x == pendant + (r1 + 1) * (r2 + 4) / denom
            and r_a1_y == pendant + (r1 + 2) * (r2 + 3) / denom)

    passed = (inequalities_ok and steps_preserve_ok and star_range_ok
              and closed_form_ok is not False)
    return Lemma5Report(n, r_a1_x, r_a1_y, r_l1_x, r_l1_y, r1, r2, len(trace),
                        inequalities_ok, steps_preserve_ok, star_range_ok,
                        closed_form_ok, passed)


class Lemma6Instance(NamedTuple):
    code: ChainCode
    resistances: tuple      # (u, r(u, x), r(u, y)) per checked vertex
    passed: bool

    def as_dict(self) -> dict:
        return {
            "code": {"n": self.code.n, "w": self.code.word},
            "checked": [
                {"u": str(u), "r_u_x": format_rational(rx), "r_u_y": format_rational(ry)}
                for u, rx, ry in self.resistances
            ],
            "pass": self.passed,
        }


class Lemma6Report(NamedTuple):
    n: int
    instances: tuple
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, passed="pass")


def check_lemma6(n: int, weights=None, code=None, cap=DEFAULT_CAP) -> Lemma6Report:
    """First-hexagon to last-hexagon inequalities on phenylene chains.

    For each chain: with x the degree-2 vertex of the last hexagon adjacent
    to b_(n-1) and y its other neighbor, every u in the first hexagon other
    than a_1 and l_1 must satisfy r(u, x) < r(u, y).

    Without an explicit code, every code with n hexagons is checked at unit
    weights, and no chain is factored: the transfer engine walks the code
    trie with O(1) exact updates per trie node for each checked vertex.
    Past `cap` codes that walk is refused (`check_cap`), as in `extremes`.
    An explicit code, weighted or not, is checked on its own chain, read
    off the last five Takahashi steps of one factorization grounded at x
    that eliminates the four checked vertices and y last; its unit edge
    (b_(n-1), k_(n-1)) must keep weight 1.
    """
    if n < 2:
        raise ValueError("need n >= 2: the inequality involves two distinct hexagons")
    if code is None:
        if weights:
            raise ValueError("weights need an explicit code: vertex ids depend on it")
        check_cap(n, cap)
        per_code = zip(enumerate_words(n), _transfer_lemma6(n))
    else:
        if code.n != n:
            raise ValueError(f"code has n={code.n}, expected {n}")
        chain = build_chain(code)
        if weights:
            chain = chain.reweighted(weights)
        checked = [u for u in chain.hexagons[0] if u not in (chain.a1, chain.l1)]
        per_code = [(code, terminal_resistances(chain.network, chain.x, chain.y, checked))]
    instances = tuple(Lemma6Instance(c, rows, all(rx < ry for _, rx, ry in rows))
                      for c, rows in per_code)
    return Lemma6Report(n, instances, all(i.passed for i in instances))


def random_terminal_weights(n: int, rng) -> dict:
    """Random positive rational weights for a terminal chain, leaving every
    edge of the last hexagon (the shared unit edge included) at 1."""
    return _random_weights(build_terminal_chain(n), rng)


def random_chain_weights(code: ChainCode, rng) -> dict:
    """Random positive rational weights for a chain, last hexagon kept unit."""
    return _random_weights(build_chain(code), rng)


def _random_weights(chain, rng) -> dict:
    """Weights p/q with p, q in 1..9 for every edge of `chain` off its last
    hexagon, drawn in edge order."""
    cycle = chain.hexagons[-1]
    spare = {frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])}
    return {(e.u, e.v): Rational(rng.randint(1, 9), rng.randint(1, 9))
            for e in chain.network.edges if frozenset((e.u, e.v)) not in spare}


# ---------------------------------------------------------------------------
# weighted hexagon


class HexagonReport(NamedTuple):
    r: Rational
    sum_a: Rational
    sum_l: Rational
    difference: Rational
    expected_difference: Rational
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, passed="pass")


def weighted_hexagon_check(r) -> HexagonReport:
    """Vertex-sum difference on a 6-cycle with one edge of weight r.

    On the cycle b - a - l - q - p - k - b with edge (k, b) of resistance r
    and unit edges elsewhere, the sums over all vertices y satisfy
    sum r(y, a) = (11r + 24)/(r + 5) and sum r(y, l) = (9r + 26)/(r + 5),
    so their difference is (2r - 2)/(r + 5): negative exactly when r < 1.
    r is checked as an `Edge`'s is: a float or r <= 0 raises InvalidNetworkError.
    """
    b, a, l, q, p, k = "b", "a", "l", "q", "p", "k"
    weighted = Edge(k, b, r)
    r = weighted.r
    net = ResistanceNetwork([(b, a), (a, l), (l, q), (q, p), (p, k), weighted])
    sums = resistance_sums(net)
    sum_a, sum_l = sums[a], sums[l]
    difference = sum_a - sum_l
    expected = (2 * r - 2) / (r + 5)
    passed = (
        difference == expected
        and sum_a == (11 * r + 24) / (r + 5)
        and sum_l == (9 * r + 26) / (r + 5)
        and (difference < 0 if r < 1 else True))
    return HexagonReport(r, sum_a, sum_l, difference, expected, passed)


# ---------------------------------------------------------------------------
# top-level verdicts


class Theorem1Report(NamedTuple):
    n: int
    min_codes: tuple
    violations: tuple       # minimizing codes that are not all-kink
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, min_codes="min_class", passed="pass")


def verify_theorem1(n: int, cap=DEFAULT_CAP) -> Theorem1Report:
    """Every Kirchhoff-minimizing code must be all-kink."""
    table = extremes(n, cap=cap)
    violations = tuple(c for c in table.min_codes if not c.is_all_kink())
    return Theorem1Report(n, table.min_codes, violations, not violations)


class ConjectureReport(NamedTuple):
    n: int
    min_codes: tuple
    max_codes: tuple
    min_kf: Rational
    max_kf: Rational
    expected_min: tuple
    expected_max: tuple
    passed: bool

    def as_dict(self) -> dict:
        return _fields_json(self, min_codes="min_class", max_codes="max_class", expected_min="expected_min_class",
                            expected_max="expected_max_class", passed="pass")


def verify_conjecture(n: int, cap=DEFAULT_CAP) -> ConjectureReport:
    """The minimum class must be exactly the all-left/all-right pair and the
    maximum class exactly the straight chain; min < max for n >= 3."""
    table = extremes(n, cap=cap)
    expected_min = helicene(n).orbit()
    expected_max = (linear(n),)
    passed = (
        set(c.w for c in table.min_codes) == set(c.w for c in expected_min)
        and set(c.w for c in table.max_codes) == set(c.w for c in expected_max)
        and (table.min_kf < table.max_kf or n <= 2))
    return ConjectureReport(n, table.min_codes, table.max_codes, table.min_kf,
                            table.max_kf, expected_min, expected_max, passed)
