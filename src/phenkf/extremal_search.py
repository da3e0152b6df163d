"""Exhaustive Kirchhoff-index search over phenylene chains, the kink-flip
rewiring, and the supporting strict-inequality checks.

All verdicts are exact rational comparisons.  The exhaustive operations
refuse to run past a configurable code-count cap instead of sampling: the
extremal claims are only meaningful when the enumeration is complete.
"""

import multiprocessing
from dataclasses import dataclass

from .chain_model import (
    ChainCode,
    LabeledChain,
    build_chain,
    build_terminal_chain,
    enumerate_words,
    helicene,
    linear,
    terminal_vertices,
)
from .exact_arith import Rational, format_rational
from .resistance_engine import (
    ReductionTrace,
    ResistanceNetwork,
    grounded_resistances,
    kirchhoff_index,
    resistance_sum,
    resistance_sums,
    simplify_chain_circuit,
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
# enumeration


def enumerate_codes(n: int, canonical_only=False):
    """All 3^(n-2) codes with n hexagons, lexicographic; n in {1, 2} yield
    the single empty code.  With canonical_only, one per symmetry class."""
    return enumerate_words(n, canonical_only=canonical_only)


@dataclass(frozen=True)
class KfReport:
    code: ChainCode
    canonical: ChainCode
    kf: Rational
    vertex_count: int
    edge_count: int
    per_vertex_sums: object = None  # optional dict vertex -> Rational

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
    """Exact Kirchhoff index of the chain built from `code`.

    With `with_sums`, per-vertex resistance sums are included.  They come
    from the same grounded factorization as the Kirchhoff index itself, so
    they are not an independent check of it.
    """
    chain = build_chain(code)
    net = chain.network
    kf = kirchhoff_index(net)
    sums = resistance_sums(net) if with_sums else None
    return KfReport(code, code.canonical(), kf, net.num_vertices, net.num_edges, sums)


def _kf_worker(args):
    n, w, with_sums = args
    return kf_of_code(ChainCode(n, w), with_sums=with_sums)


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
        f"n={n} needs {count} codes but the cap is {cap}; raise it (--cap or the "
        f"PHENKF_MAX_CODES environment variable) to search this size exhaustively")


def find_extrema(n: int, cap=DEFAULT_CAP, jobs=1, with_sums=False) -> ExtremaTable:
    """Exact min/max Kirchhoff classes over every code with n hexagons."""
    check_cap(n, cap)
    codes = list(enumerate_codes(n))
    if jobs > 1:
        tasks = [(n, c.w, with_sums) for c in codes]
        with multiprocessing.Pool(jobs) as pool:
            reports = pool.map(_kf_worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))
    else:
        reports = [kf_of_code(c, with_sums=with_sums) for c in codes]
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


def _single_edge(net: ResistanceNetwork, u, v):
    found = net.edges_between(u, v)
    if len(found) != 1:
        raise LabelingError(f"expected one edge between {u!r} and {v!r}, found {len(found)}")
    return found[0]


def kink_flip(chain: LabeledChain, i: int) -> ResistanceNetwork:
    """Rewire square i: delete edges a_i b_i and l_i k_i, add a_i k_i and b_i l_i.

    This swaps the kink direction of everything right of square i.  Applying
    it twice restores the original network.
    """
    if not 1 <= i <= len(chain.square_corners):
        raise LabelingError(f"square index {i} out of range 1..{len(chain.square_corners)}")
    a, b, k, l = chain.square_corners[i - 1]
    net = chain.network
    top = _single_edge(net, a, b)
    bottom = _single_edge(net, l, k)
    if top.r != 1 or bottom.r != 1:
        raise LabelingError("kink flip is defined for unit-weight square edges")
    drop = {top, bottom}
    edges = [e for e in net.edges if e not in drop]
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
    if not 1 <= i <= len(chain.square_corners):
        raise LabelingError(f"square index {i} out of range 1..{len(chain.square_corners)}")
    a, b, k, l = chain.square_corners[i - 1]
    net = chain.network
    top = _single_edge(net, a, b)
    bottom = _single_edge(net, l, k)
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

    def as_dict(self) -> dict:
        return {
            "code": _code_json(self.code),
            "square": self.square,
            "at_junction": self.at_junction,
            "kf_original": format_rational(self.kf_original),
            "kf_flipped": format_rational(self.kf_flipped),
            "delta_formula": format_rational(self.delta_formula),
            "flipped_code": self.flipped.word,
            "identity_ok": self.identity_ok,
            "reconstruction_ok": self.reconstruction_ok,
            "relabel_ok": self.relabel_ok,
            "decrease_ok": self.decrease_ok,
            "pass": self.passed,
        }


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
    relabel_ok = (kirchhoff_index(build_chain(new_code).network) == kf_flipped)
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

    Checks r(a_1, x) < r(a_1, y) and r(l_1, x) < r(l_1, y) by the Laplacian
    oracle, then runs the staged simplification and checks that every single
    step preserves r(a_1, x) and r(a_1, y) exactly, that the final star obeys
    0 < R_1 < 1, and (for a unit-weighted last hexagon) that the reduced
    two-path form reproduces the oracle values.
    """
    chain = build_terminal_chain(n, weights)
    net = chain.network
    ends = (chain.a1, chain.l1)
    from_x = grounded_resistances(net, chain.x, targets=ends)
    from_y = grounded_resistances(net, chain.y, targets=ends)
    r_a1_x, r_a1_y = from_x[chain.a1], from_y[chain.a1]
    r_l1_x, r_l1_y = from_x[chain.l1], from_y[chain.l1]
    inequalities_ok = r_a1_x < r_a1_y and r_l1_x < r_l1_y

    final, trace = simplify_chain_circuit(chain)
    steps_preserve_ok = True
    current = net
    terminals = (chain.x, chain.y)
    for step_net in _replay_networks(trace, net):
        current = step_net
        held = grounded_resistances(current, chain.a1, targets=terminals)
        if held[chain.x] != r_a1_x or held[chain.y] != r_a1_y:
            steps_preserve_ok = False
            break
    if steps_preserve_ok and current != final:
        steps_preserve_ok = False

    hub = f"z{2 * n - 1}"
    b_n, k_n = chain.square_corners[-1][1], chain.square_corners[-1][2]
    r1 = final.edges_between(hub, b_n)[0].r
    r2 = final.edges_between(hub, k_n)[0].r
    star_range_ok = 0 < r1 < 1

    closed_form_ok = None
    if _unit_cycle(net, list(chain.hexagons[-1])):
        # r(a_1, x) = pendant path + two parallel routes around the last
        # hexagon: R_1 + 1 over the top, R_2 + 4 under the bottom
        pendant = Rational(0)
        prev = chain.a1
        for t in range(1, 2 * n):
            pendant += final.edges_between(prev, f"z{t}")[0].r
            prev = f"z{t}"
        denom = r1 + r2 + 5
        closed_form_ok = (
            r_a1_x == pendant + (r1 + 1) * (r2 + 4) / denom
            and r_a1_y == pendant + (r1 + 2) * (r2 + 3) / denom)

    passed = (inequalities_ok and steps_preserve_ok and star_range_ok
              and closed_form_ok is not False)
    return Lemma5Report(n, r_a1_x, r_a1_y, r_l1_x, r_l1_y, r1, r2, len(trace),
                        inequalities_ok, steps_preserve_ok, star_range_ok,
                        closed_form_ok, passed)


def _replay_networks(trace, initial):
    """Networks after each step of a trace, verified like a full replay."""
    partial = ReductionTrace()
    net = initial
    for step in trace:
        partial.steps = [step]
        net = partial.replay(net)
        yield net


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
    shared edge (b_(n-1), k_(n-1)) must have weight 1.
    """
    if n < 2:
        raise ValueError("need n >= 2: the inequality involves two distinct hexagons")
    if code is None:
        if weights:
            raise ValueError("weights need an explicit code: vertex ids depend on it")
        codes = list(enumerate_codes(n))
    else:
        if code.n != n:
            raise ValueError(f"code has n={code.n}, expected {n}")
        codes = [code]
    instances = []
    for c in codes:
        chain = build_chain(c)
        net = chain.network.reweighted(weights) if weights else chain.network
        b_prev, k_prev = chain.square_corners[-1][1], chain.square_corners[-1][2]
        shared = net.edges_between(b_prev, k_prev)
        if len(shared) != 1 or shared[0].r != 1:
            raise ValueError(f"edge ({b_prev}, {k_prev}) must be the designated unit edge")
        x, y = terminal_vertices(chain)
        a1, l1 = chain.square_corners[0][0], chain.square_corners[0][3]
        checked = [u for u in chain.hexagons[0] if u not in (a1, l1)]
        from_x = grounded_resistances(net, x, targets=checked)
        from_y = grounded_resistances(net, y, targets=checked)
        rows = []
        ok = True
        for u in checked:
            rx, ry = from_x[u], from_y[u]
            rows.append((u, rx, ry))
            ok = ok and rx < ry
        instances.append(Lemma6Instance(c, tuple(rows), ok))
    return Lemma6Report(n, tuple(instances), all(i.passed for i in instances))


def random_terminal_weights(n: int, rng) -> dict:
    """Random positive rational weights for a terminal chain, leaving every
    edge of the last hexagon (the shared unit edge included) at 1."""
    plain = build_terminal_chain(n)
    spare = _cycle_pairs(plain.hexagons[-1])
    out = {}
    for e in plain.network.edges:
        if frozenset((e.u, e.v)) in spare:
            continue
        out[(e.u, e.v)] = Rational(rng.randint(1, 9), rng.randint(1, 9))
    return out


def random_chain_weights(code: ChainCode, rng) -> dict:
    """Random positive rational weights for a chain, last hexagon kept unit."""
    chain = build_chain(code)
    spare = _cycle_pairs(chain.hexagons[-1])
    out = {}
    for e in chain.network.edges:
        if frozenset((e.u, e.v)) in spare:
            continue
        out[(e.u, e.v)] = Rational(rng.randint(1, 9), rng.randint(1, 9))
    return out


def _cycle_pairs(cycle):
    cycle = list(cycle)
    return {frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])}


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
    sum_a = resistance_sum(net, a)
    sum_l = resistance_sum(net, l)
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


def verify_theorem1(n: int, cap=DEFAULT_CAP, jobs=1) -> Theorem1Report:
    """Every Kirchhoff-minimizing code must be all-kink."""
    table = find_extrema(n, cap=cap, jobs=jobs)
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


def verify_conjecture(n: int, cap=DEFAULT_CAP, jobs=1) -> ConjectureReport:
    """The minimum class must be exactly the all-left/all-right pair and the
    maximum class exactly the straight chain; min < max for n >= 3."""
    table = find_extrema(n, cap=cap, jobs=jobs)
    expected_min = helicene(n).orbit()
    expected_max = (linear(n),)
    passed = (
        set(c.w for c in table.min_codes) == set(c.w for c in expected_min)
        and set(c.w for c in table.max_codes) == set(c.w for c in expected_max)
        and (table.min_kf < table.max_kf or n <= 2))
    return ConjectureReport(n, table.min_codes, table.max_codes, table.min_kf,
                            table.max_kf, expected_min, expected_max, passed)
