"""Exhaustive Kirchhoff-index search over phenylene chains, the two-port
transfer engine behind it, the kink-flip rewiring, and the supporting
strict-inequality checks.

All verdicts are exact rational comparisons.  The exhaustive operations
refuse to run past a configurable code-count cap instead of sampling: the
extremal claims are only meaningful when the enumeration is complete.
"""

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .chain_model import (
    ChainCode,
    LabeledChain,
    build_chain,
    build_terminal_chain,
    enumerate_words,
    helicene,
    linear,
)
from .exact_arith import Rational, format_rational
from .resistance_engine import (
    ResistanceNetwork,
    grounded_resistances,
    kirchhoff_index,
    resistance_matrix,
    resistance_sums,
    simplify_chain_circuit,
    step_preserves_resistances,
    terminal_resistances,
)
from .st_isomer import STPair, lemma4_delta, make_st_pair

DEFAULT_CAP = 2187  # 3^7, reached at n = 9
DEFAULT_SEED = 1729


class SearchCapExceeded(RuntimeError):
    """Exhaustive enumeration would be larger than the configured cap."""


class LabelingError(ValueError):
    """A chain's recorded cell structure does not match its edges."""


def _code_json(code: ChainCode) -> dict:
    return {"n": code.n, "w": code.word}


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

_CELL = 6  # vertices a block adds: those of its hexagon


class _Prefix(NamedTuple):
    """The transfer state of a chain prefix, seen from its right corners."""

    size: int
    r: Rational        # R = r(a, l)
    sum_x: Rational
    sum_p: Rational
    sum_pp: Rational   # sum of p_u^2
    kf: Rational


class _Step(NamedTuple):
    """Coefficients of appending one block at a given R, t = 1/(R + rho).

    `_block` keeps each field as a polynomial in t; `_coefficients`
    evaluates them.
    """

    t: Rational
    r_next: Rational   # R of the longer prefix
    alpha: Rational    # p'_u = alpha p_u + beta
    beta: Rational
    gamma: Rational    # x'_u = x_u + gamma + delta p_u - t p_u^2
    delta: Rational
    new_x: Rational    # sums of x', p', p'^2 over the block's vertices
    new_p: Rational
    new_pp: Rational
    kf_new: Rational   # Kf among the block's vertices
    cross_n: Rational  # Kf between prefix and block, per prefix vertex ...
    cross_p: Rational  # ... and per unit of sum p, besides 6 sum x - 6 t sum p^2


def _star(r, a, l, u):
    """(foot, pendant) of u on the a-l wire, from resistances r(., .)."""
    return (r(u, a) - r(u, l) + r(a, l)) / 2, (r(u, a) + r(u, l) - r(a, l)) / 2


def _block(e: int) -> tuple:
    """(rho, _Step of polynomials in t) for a block with letter e.

    A polynomial is its coefficient tuple, constant term first.  The block
    is square 1 and hexagon 2 of the chain with code (e,), less the edge
    (a_1, l_1) of hexagon 1: one 8-vertex factorization.
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
    return r(a, l), _Step(
        t=(0, 1),
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


@cache
def _transfer_constants() -> tuple:
    """(state of the first hexagon, the blocks of letters 0, 1, 2).

    Four factorizations of at most 8 vertices, made on first use.
    """
    first = build_chain(ChainCode(2, ()))
    hexagon = first.network.induced(first.hexagons[0])
    matrix = resistance_matrix(hexagon)
    stars = [_star(matrix.resistance, first.a1, first.l1, u) for u in hexagon.vertices]
    start = _Prefix(hexagon.num_vertices, matrix.resistance(first.a1, first.l1),
                    sum(x for _, x in stars), sum(p for p, _ in stars),
                    sum(p * p for p, _ in stars), matrix.total())
    return start, tuple(_block(e) for e in (0, 1, 2))


def _coefficients(block, r) -> _Step:
    """The block's update coefficients when appended to a prefix with R = r."""
    rho, polys = block
    t = 1 / (r + rho)
    values = []
    for poly in polys:
        value = 0
        for k in reversed(poly):
            value = value * t + k
        values.append(value)
    return _Step(*values)


def _kf_after(s: _Prefix, c: _Step) -> Rational:
    return (s.kf + _CELL * s.sum_x - c.t * ((s.size + _CELL) * s.sum_pp - s.sum_p * s.sum_p)
            + c.cross_p * s.sum_p + s.size * c.cross_n + c.kf_new)


def _advance(s: _Prefix, c: _Step) -> _Prefix:
    p, pp = s.sum_p, s.sum_pp
    return _Prefix(
        s.size + _CELL,
        c.r_next,
        s.sum_x + s.size * c.gamma + c.delta * p - c.t * pp + c.new_x,
        c.alpha * p + s.size * c.beta + c.new_p,
        c.alpha * (c.alpha * pp + 2 * c.beta * p) + s.size * c.beta * c.beta + c.new_pp,
        _kf_after(s, c))


def _transfer_kf(code: ChainCode) -> Rational:
    """Kf of the unit chain of `code`, one block per hexagon after the first."""
    state, blocks = _transfer_constants()
    for e in code.full_entries()[1:]:
        state = _advance(state, _coefficients(blocks[e], state.r))
    return state.kf


def _transfer_kfs(n: int) -> list:
    """Kf of every code with n hexagons, in word order, by a depth-first
    walk of the code trie that extends each prefix's state once."""
    start, blocks = _transfer_constants()
    if n == 1:
        return [start.kf]
    levels, r = [], start.r
    for _ in range(n - 2):
        levels.append(tuple(_coefficients(block, r) for block in blocks))
        r = levels[-1][0].r_next
    last = _coefficients(blocks[0], r)  # terminal hexagons carry letter 0
    out = []

    def walk(state, depth):
        if depth == len(levels):
            out.append(_kf_after(state, last))
            return
        for step in levels[depth]:
            walk(_advance(state, step), depth + 1)

    walk(start, 0)
    return out


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class KfReport:
    code: ChainCode
    canonical: ChainCode
    kf: Rational
    per_vertex_sums: object = None  # optional dict vertex -> Rational

    @property
    def vertex_count(self) -> int:
        return 6 * self.code.n

    @property
    def edge_count(self) -> int:
        return 8 * self.code.n - 2

    def as_dict(self) -> dict:
        out = {
            "code": _code_json(self.code),
            "canonical": self.canonical.word,
            "kf": format_rational(self.kf),
            "kf_num": self.kf.numerator,
            "kf_den": self.kf.denominator,
            "is_all_kink": self.code.is_all_kink(),
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
        }
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
        return KfReport(code, code.canonical(), _transfer_kf(code))
    net = build_chain(code).network
    return KfReport(code, code.canonical(), kirchhoff_index(net), resistance_sums(net))


@dataclass(frozen=True)
class ExtremaTable:
    n: int
    reports: tuple          # one KfReport per code, lexicographic
    min_kf: Rational
    max_kf: Rational
    min_codes: tuple        # codes attaining min_kf, lexicographic
    max_codes: tuple

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "count": len(self.reports),
            "min_kf": format_rational(self.min_kf),
            "max_kf": format_rational(self.max_kf),
            "min_class": [c.word for c in self.min_codes],
            "max_class": [c.word for c in self.max_codes],
            "reports": [r.as_dict() for r in self.reports],
        }

    def to_csv(self) -> str:
        minset = {c.w for c in self.min_codes}
        maxset = {c.w for c in self.max_codes}
        lines = ["n,code,canonical,kf_num,kf_den,is_all_kink,is_min,is_max"]
        for r in self.reports:
            lines.append(",".join([
                str(self.n),
                r.code.word,
                r.canonical.word,
                str(r.kf.numerator),
                str(r.kf.denominator),
                str(r.code.is_all_kink()).lower(),
                str(r.code.w in minset).lower(),
                str(r.code.w in maxset).lower(),
            ]))
        return "\n".join(lines) + "\n"


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
        f"n={n} needs {count} codes but the cap is {cap}; raise it (--cap where offered, "
        f"or the PHENKF_MAX_CODES environment variable) to search this size exhaustively")


def find_extrema(n: int, cap=DEFAULT_CAP) -> ExtremaTable:
    """Exact min/max Kirchhoff classes over every code with n hexagons.

    The transfer engine walks the code trie, so codes sharing a prefix share
    its updates.
    """
    check_cap(n, cap)
    reports = [KfReport(code, code.canonical(), kf)
               for code, kf in zip(enumerate_words(n), _transfer_kfs(n))]
    min_kf = min(r.kf for r in reports)
    max_kf = max(r.kf for r in reports)
    return ExtremaTable(
        n,
        tuple(reports),
        min_kf,
        max_kf,
        tuple(r.code for r in reports if r.kf == min_kf),
        tuple(r.code for r in reports if r.kf == max_kf),
    )


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
    side_a = set()
    todo = [a]
    while todo:
        v = todo.pop()
        if v in side_a:
            continue
        side_a.add(v)
        todo.extend(cut.neighbors(v))
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


@dataclass(frozen=True)
class KinkFlipReport:
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


def _terminal_rows(chain: LabeledChain, vertices) -> tuple:
    """(u, r(u, x), r(u, y)) per u in `vertices`, from one factorization
    grounded at x and one solve (`terminal_resistances`)."""
    rows = terminal_resistances(chain.network, chain.x, chain.y)
    return tuple((u, *rows[u]) for u in vertices)


@dataclass(frozen=True)
class Lemma5Report:
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
        return {
            "n": self.n,
            "r_a1_x": format_rational(self.r_a1_x),
            "r_a1_y": format_rational(self.r_a1_y),
            "r_l1_x": format_rational(self.r_l1_x),
            "r_l1_y": format_rational(self.r_l1_y),
            "r1": format_rational(self.r1),
            "r2": format_rational(self.r2),
            "steps": self.step_count,
            "inequalities_ok": self.inequalities_ok,
            "steps_preserve_ok": self.steps_preserve_ok,
            "star_range_ok": self.star_range_ok,
            "closed_form_ok": self.closed_form_ok,
            "pass": self.passed,
        }


def check_lemma5(n: int, weights=None) -> Lemma5Report:
    """Terminal-resistance inequalities on the square-first chain.

    Checks r(a_1, x) < r(a_1, y) and r(l_1, x) < r(l_1, y) from one
    factorization grounded at x, then runs the staged simplification.  Each
    replayed step must pass its local certificate
    (`step_preserves_resistances`: the step's removed and added edges give
    equal resistances among the vertices they share, so every resistance
    among surviving vertices is kept) and keep a_1, x and y; one
    factorization of the final network must then give back r(a_1, x) and
    r(a_1, y).  Last, the final star must obey 0 < R_1 < 1 and (for a
    unit-weighted last hexagon) the reduced two-path form must reproduce
    those values.  No step factors the whole network.
    """
    chain = build_terminal_chain(n, weights)
    net = chain.network
    (_, r_a1_x, r_a1_y), (_, r_l1_x, r_l1_y) = _terminal_rows(chain, (chain.a1, chain.l1))
    inequalities_ok = r_a1_x < r_a1_y and r_l1_x < r_l1_y

    final, trace = simplify_chain_circuit(chain)
    ends = (chain.a1, chain.x, chain.y)
    steps_preserve_ok = True
    before = net
    for step, after in zip(trace, trace.networks(net)):
        if not (step_preserves_resistances(step, before, after)
                and all(after.has_vertex(v) for v in ends)):
            steps_preserve_ok = False
            break
        before = after
    if steps_preserve_ok:
        held = grounded_resistances(final, chain.a1)
        steps_preserve_ok = (before == final and held[chain.x] == r_a1_x
                             and held[chain.y] == r_a1_y)

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


@dataclass(frozen=True)
class Lemma6Instance:
    code: ChainCode
    resistances: tuple      # (u, r(u, x), r(u, y)) per checked vertex
    passed: bool

    def as_dict(self) -> dict:
        return {
            "code": _code_json(self.code),
            "checked": [
                {"u": str(u), "r_u_x": format_rational(rx), "r_u_y": format_rational(ry)}
                for u, rx, ry in self.resistances
            ],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Lemma6Report:
    n: int
    instances: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "instances": [i.as_dict() for i in self.instances],
            "pass": self.passed,
        }


def check_lemma6(n: int, weights=None, code=None) -> Lemma6Report:
    """First-hexagon to last-hexagon inequalities on phenylene chains.

    For each chain: with x the degree-2 vertex of the last hexagon adjacent
    to b_(n-1) and y its other neighbor, every u in the first hexagon other
    than a_1 and l_1 must satisfy r(u, x) < r(u, y).  Without an explicit
    code, all codes with n hexagons are checked (unit weights only); the
    chain's unit edge (b_(n-1), k_(n-1)) must keep weight 1.
    """
    if n < 2:
        raise ValueError("need n >= 2: the inequality involves two distinct hexagons")
    if code is None:
        if weights:
            raise ValueError("weights need an explicit code: vertex ids depend on it")
        codes = list(enumerate_words(n))
    else:
        if code.n != n:
            raise ValueError(f"code has n={code.n}, expected {n}")
        codes = [code]
    instances = []
    for c in codes:
        chain = build_chain(c)
        if weights:
            chain = chain.reweighted(weights)
        checked = [u for u in chain.hexagons[0] if u not in (chain.a1, chain.l1)]
        rows = _terminal_rows(chain, checked)
        instances.append(Lemma6Instance(c, rows, all(rx < ry for _, rx, ry in rows)))
    return Lemma6Report(n, tuple(instances), all(i.passed for i in instances))


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


@dataclass(frozen=True)
class HexagonReport:
    r: Rational
    sum_a: Rational
    sum_l: Rational
    difference: Rational
    expected_difference: Rational
    passed: bool

    def as_dict(self) -> dict:
        return {
            "r": format_rational(self.r),
            "sum_a": format_rational(self.sum_a),
            "sum_l": format_rational(self.sum_l),
            "difference": format_rational(self.difference),
            "expected_difference": format_rational(self.expected_difference),
            "pass": self.passed,
        }


def weighted_hexagon_check(r) -> HexagonReport:
    """Vertex-sum difference on a 6-cycle with one edge of weight r.

    On the cycle b - a - l - q - p - k - b with edge (k, b) of resistance r
    and unit edges elsewhere, the sums over all vertices y satisfy
    sum r(y, a) = (11r + 24)/(r + 5) and sum r(y, l) = (9r + 26)/(r + 5),
    so their difference is (2r - 2)/(r + 5): negative exactly when r < 1.
    """
    r = Rational(r)
    if r <= 0:
        raise ValueError("need r > 0")
    b, a, l, q, p, k = "b", "a", "l", "q", "p", "k"
    net = ResistanceNetwork([(b, a), (a, l), (l, q), (q, p), (p, k), (k, b, r)])
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


@dataclass(frozen=True)
class Theorem1Report:
    n: int
    min_codes: tuple
    violations: tuple       # minimizing codes that are not all-kink
    passed: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "min_class": [c.word for c in self.min_codes],
            "violations": [c.word for c in self.violations],
            "pass": self.passed,
        }


def verify_theorem1(n: int, cap=DEFAULT_CAP) -> Theorem1Report:
    """Every Kirchhoff-minimizing code must be all-kink."""
    table = find_extrema(n, cap=cap)
    violations = tuple(c for c in table.min_codes if not c.is_all_kink())
    return Theorem1Report(n, table.min_codes, violations, not violations)


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    min_codes: tuple
    max_codes: tuple
    min_kf: Rational
    max_kf: Rational
    expected_min: tuple
    expected_max: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "min_class": [c.word for c in self.min_codes],
            "max_class": [c.word for c in self.max_codes],
            "min_kf": format_rational(self.min_kf),
            "max_kf": format_rational(self.max_kf),
            "expected_min_class": [c.word for c in self.expected_min],
            "expected_max_class": [c.word for c in self.expected_max],
            "pass": self.passed,
        }


def verify_conjecture(n: int, cap=DEFAULT_CAP) -> ConjectureReport:
    """The minimum class must be exactly the all-left/all-right pair and the
    maximum class exactly the straight chain; min < max for n >= 3."""
    table = find_extrema(n, cap=cap)
    expected_min = helicene(n).orbit()
    expected_max = (linear(n),)
    passed = (
        set(c.w for c in table.min_codes) == set(c.w for c in expected_min)
        and set(c.w for c in table.max_codes) == set(c.w for c in expected_max)
        and (table.min_kf < table.max_kf or n <= 2))
    return ConjectureReport(n, table.min_codes, table.max_codes, table.min_kf,
                            table.max_kf, expected_min, expected_max, passed)
