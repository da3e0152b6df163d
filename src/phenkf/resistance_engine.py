"""Weighted resistance networks with exact reduction steps and exact solvers.

A network is an undirected multigraph whose edges carry positive rational
resistances.  Independent computation routes are kept deliberately
separate so they can cross-check each other:

* local circuit reductions (series, parallel, delta-wye, star-mesh) that
  transform the network while preserving effective resistances among the
  surviving vertices, with a replayable trace;
* one exact sparse factorization K = L D L^T of the grounded Laplacian, in
  reverse Cuthill-McKee order, from which the Kirchhoff index, grounded
  resistances, per-vertex resistance sums and the resistance matrix are
  all derived (solves, and selected inversion by the Takahashi recurrence);
* dense rational Gaussian elimination behind `effective_resistance`, the
  oracle the factorization is tested against.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .exact_arith import Rational, format_rational, parse_rational


class NetworkError(ValueError):
    """Base class for network construction and reduction errors."""


class InvalidNetworkError(NetworkError):
    """Malformed construction input: self-loop, nonpositive resistance, ..."""


class NotReducibleError(NetworkError):
    """A reduction step's precondition does not hold at the given site."""


class ConnectivityError(NetworkError):
    """An oracle was asked about vertices in different components."""


def vertex_key(v):
    """Total order over mixed int/str vertex ids (ints first, then strings)."""
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


class Edge(NamedTuple):
    u: object
    v: object
    r: Rational


def _make_edge(u, v, r) -> Edge:
    if u == v:
        raise InvalidNetworkError(f"self-loop at {u!r}")
    r = Rational(r)
    if r <= 0:
        raise InvalidNetworkError(f"resistance must be positive, got {r} on ({u!r}, {v!r})")
    if vertex_key(v) < vertex_key(u):
        u, v = v, u
    return Edge(u, v, r)


class ResistanceNetwork:
    """Immutable weighted multigraph.

    Vertices are ints or strings.  Edge input items are (u, v, r) triples or
    (u, v) pairs (unit resistance).  Vertices and edges are stored sorted, so
    two networks with equal vertex sets and equal edge multisets compare equal
    no matter the construction order.
    """

    __slots__ = ("vertices", "edges", "_adj", "_index")

    def __init__(self, edges, extra_vertices=()):
        seen = set()
        normalized = []
        for item in edges:
            if len(item) == 2:
                u, v = item
                r = Rational(1)
            else:
                u, v, r = item
            normalized.append(_make_edge(u, v, r))
        for e in normalized:
            seen.add(e.u)
            seen.add(e.v)
        seen.update(extra_vertices)
        self.vertices = tuple(sorted(seen, key=vertex_key))
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = tuple(sorted(normalized, key=lambda e: (vertex_key(e.u), vertex_key(e.v), e.r)))
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = adj

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_vertex(self, v) -> bool:
        return v in self._index

    def require_vertex(self, v):
        if v not in self._index:
            raise NetworkError(f"unknown vertex {v!r}")

    def incident(self, v) -> tuple:
        self.require_vertex(v)
        return tuple(self._adj[v])

    def degree(self, v) -> int:
        """Number of incident edge slots; parallel edges count separately."""
        return len(self.incident(v))

    def neighbors(self, v) -> tuple:
        self.require_vertex(v)
        out = {e.v if e.u == v else e.u for e in self._adj[v]}
        return tuple(sorted(out, key=vertex_key))

    def edges_between(self, u, v) -> tuple:
        self.require_vertex(u)
        self.require_vertex(v)
        return tuple(e for e in self._adj[u] if {e.u, e.v} == {u, v})

    def conductance_between(self, u, v) -> Rational:
        return sum((1 / e.r for e in self.edges_between(u, v)), Rational(0))

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        todo = [self.vertices[0]]
        seen = {self.vertices[0]}
        while todo:
            w = todo.pop()
            for e in self._adj[w]:
                other = e.v if e.u == w else e.u
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return len(seen) == self.num_vertices

    def fresh_vertex(self) -> int:
        ints = [v for v in self.vertices if isinstance(v, int)]
        return max(ints) + 1 if ints else 0

    def induced(self, vertices) -> "ResistanceNetwork":
        """Subnetwork on the given vertices and the edges inside them."""
        vs = set(vertices)
        unknown = vs - set(self.vertices)
        if unknown:
            raise NetworkError(f"unknown vertices {sorted(unknown, key=vertex_key)!r}")
        edges = [e for e in self.edges if e.u in vs and e.v in vs]
        return ResistanceNetwork(edges, vs)

    def reweighted(self, mapping) -> "ResistanceNetwork":
        """Copy with selected edges reweighted.

        `mapping` takes unordered vertex pairs (u, v) to new resistances.
        Pairs must address exactly one existing edge each.
        """
        wanted = {}
        for (u, v), r in dict(mapping).items():
            e = _make_edge(u, v, r)
            key = (e.u, e.v)
            if key in wanted:
                raise InvalidNetworkError(f"pair ({u!r}, {v!r}) given twice")
            wanted[key] = e.r
        edges = []
        seen = set()
        for e in self.edges:
            key = (e.u, e.v)
            if key in wanted:
                if key in seen:
                    raise NotReducibleError(f"parallel edges between {key[0]!r} and {key[1]!r}; reweight is ambiguous")
                seen.add(key)
                edges.append(Edge(e.u, e.v, wanted[key]))
            else:
                edges.append(e)
        missing = set(wanted) - seen
        if missing:
            raise NetworkError(f"no edge for pairs {sorted(missing, key=lambda p: (vertex_key(p[0]), vertex_key(p[1])))!r}")
        return ResistanceNetwork(edges, self.vertices)

    def __eq__(self, other):
        if not isinstance(other, ResistanceNetwork):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"ResistanceNetwork({self.num_vertices} vertices, {self.num_edges} edges)"


# ---------------------------------------------------------------------------
# reduction steps and traces


@dataclass(frozen=True)
class ReductionStep:
    """One applied reduction: how to redo it, and what it changed."""

    kind: str               # "series" | "parallel" | "delta-wye" | "star-mesh"
    site: tuple             # the op's vertex arguments
    removed_edges: tuple
    added_edges: tuple
    new_vertex: object = None

    def describe(self) -> str:
        where = ", ".join(repr(v) for v in self.site)
        out = f"{self.kind} at ({where})"
        if self.new_vertex is not None:
            out += f" -> new vertex {self.new_vertex!r}"
        return out

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "site": list(self.site),
            "removed": [[e.u, e.v, format_rational(e.r)] for e in self.removed_edges],
            "added": [[e.u, e.v, format_rational(e.r)] for e in self.added_edges],
        }
        if self.new_vertex is not None:
            out["new_vertex"] = self.new_vertex
        return out


@dataclass
class ReductionTrace:
    """Ordered record of reduction steps, replayable from the initial network."""

    steps: list = field(default_factory=list)

    def append(self, step: ReductionStep):
        self.steps.append(step)

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def replay(self, network: ResistanceNetwork) -> ResistanceNetwork:
        """Re-apply every step, checking each recorded edge change exactly."""
        for idx, step in enumerate(self.steps):
            before = network
            if step.kind == "series":
                network = series_reduce(network, *step.site)
            elif step.kind == "parallel":
                network = parallel_reduce(network, *step.site)
            elif step.kind == "delta-wye":
                network = delta_y(network, *step.site, new_vertex=step.new_vertex)
            elif step.kind == "star-mesh":
                network = star_mesh_eliminate(network, *step.site)
            else:
                raise NetworkError(f"unknown step kind {step.kind!r}")
            removed, added = _edge_delta(before, network)
            if removed != step.removed_edges or added != step.added_edges:
                raise NetworkError(f"replay mismatch at step {idx}: {step.describe()}")
        return network


def _edge_delta(before: ResistanceNetwork, after: ResistanceNetwork):
    """Multiset difference of edges: (removed, added), each sorted."""
    counts = defaultdict(int)
    for e in before.edges:
        counts[e] += 1
    for e in after.edges:
        counts[e] -= 1
    removed = []
    added = []
    for e in sorted(counts, key=lambda e: (vertex_key(e.u), vertex_key(e.v), e.r)):
        c = counts[e]
        if c > 0:
            removed.extend([e] * c)
        elif c < 0:
            added.extend([e] * (-c))
    return tuple(removed), tuple(added)


def _record(trace, kind, site, before, after, new_vertex=None):
    if trace is not None:
        removed, added = _edge_delta(before, after)
        trace.append(ReductionStep(kind, tuple(site), removed, added, new_vertex))


# ---------------------------------------------------------------------------
# reduction operations


def series_reduce(net: ResistanceNetwork, y, trace=None) -> ResistanceNetwork:
    """Replace x - y - z (y of degree 2, x != z) by one edge (x, z) with r1 + r2.

    The new edge is kept alongside any existing (x, z) edges; merge those with
    parallel_reduce explicitly.
    """
    inc = net.incident(y)
    if len(inc) != 2:
        raise NotReducibleError(f"vertex {y!r} has degree {len(inc)}, need exactly 2")
    e1, e2 = inc
    x = e1.v if e1.u == y else e1.u
    z = e2.v if e2.u == y else e2.u
    if x == z:
        raise NotReducibleError(f"vertex {y!r} has parallel edges to {x!r}; not a series site")
    edges = [e for e in net.edges if y not in (e.u, e.v)]
    edges.append(_make_edge(x, z, e1.r + e2.r))
    out = ResistanceNetwork(edges, [v for v in net.vertices if v != y])
    _record(trace, "series", (y,), net, out)
    return out


def parallel_reduce(net: ResistanceNetwork, x, y, trace=None) -> ResistanceNetwork:
    """Replace all k >= 2 edges between x and y by one with 1/r = sum(1/r_i)."""
    bundle = net.edges_between(x, y)
    if len(bundle) < 2:
        raise NotReducibleError(f"need >= 2 parallel edges between {x!r} and {y!r}, found {len(bundle)}")
    conductance = sum(1 / e.r for e in bundle)
    edges = [e for e in net.edges if {e.u, e.v} != {x, y}]
    edges.append(_make_edge(x, y, 1 / conductance))
    out = ResistanceNetwork(edges, net.vertices)
    _record(trace, "parallel", tuple(sorted((x, y), key=vertex_key)), net, out)
    return out


def delta_y(net: ResistanceNetwork, x, y, z, new_vertex=None, trace=None) -> ResistanceNetwork:
    """Replace triangle edges on {x, y, z} by a star through a new vertex.

    With R_a = r(y, z), R_b = r(x, z), R_c = r(x, y) and S = R_a + R_b + R_c,
    the star edges are (x, w, R_b*R_c/S), (y, w, R_a*R_c/S), (z, w, R_a*R_b/S).
    Each triangle side must be a single edge; merge parallels first.
    """
    corners = (x, y, z)
    if len(set(corners)) != 3:
        raise NotReducibleError(f"triangle corners must be distinct: {corners!r}")
    sides = {}
    for p, q in ((y, z), (x, z), (x, y)):
        bundle = net.edges_between(p, q)
        if len(bundle) != 1:
            raise NotReducibleError(
                f"need exactly one edge between {p!r} and {q!r}, found {len(bundle)}")
        sides[(p, q)] = bundle[0]
    if new_vertex is None:
        new_vertex = net.fresh_vertex()
    if net.has_vertex(new_vertex):
        raise NotReducibleError(f"new vertex {new_vertex!r} already present")
    r_a = sides[(y, z)].r
    r_b = sides[(x, z)].r
    r_c = sides[(x, y)].r
    total = r_a + r_b + r_c
    drop = set(sides.values())  # three distinct endpoint pairs, one edge each
    edges = [e for e in net.edges if e not in drop]
    edges.append(_make_edge(x, new_vertex, r_b * r_c / total))
    edges.append(_make_edge(y, new_vertex, r_a * r_c / total))
    edges.append(_make_edge(z, new_vertex, r_a * r_b / total))
    out = ResistanceNetwork(edges, (*net.vertices, new_vertex))
    _record(trace, "delta-wye", corners, net, out, new_vertex=new_vertex)
    return out


def star_mesh_eliminate(net: ResistanceNetwork, v, trace=None) -> ResistanceNetwork:
    """Remove v and connect its neighborhood as a mesh.

    With per-neighbor conductances c_i (parallel edges to the same neighbor
    summed) and C = sum(c_i), each neighbor pair (u_i, u_j) gains conductance
    c_i*c_j / C, merged into any existing (u_i, u_j) edges.  Degree 1 removes
    a pendant; degree 2 matches series plus a parallel merge; degree 3 matches
    wye-delta.
    """
    inc = net.incident(v)
    by_neighbor = defaultdict(lambda: Rational(0))
    for e in inc:
        other = e.v if e.u == v else e.u
        by_neighbor[other] += 1 / e.r
    neighbors = sorted(by_neighbor, key=vertex_key)
    total = sum(by_neighbor.values())
    new_conductance = defaultdict(lambda: Rational(0))
    for i, p in enumerate(neighbors):
        for q in neighbors[i + 1:]:
            new_conductance[(p, q)] = by_neighbor[p] * by_neighbor[q] / total
    edges = []
    for e in net.edges:
        if v in (e.u, e.v):
            continue
        key = (e.u, e.v)
        if key in new_conductance:
            new_conductance[key] += 1 / e.r
        else:
            edges.append(e)
    for (p, q), c in new_conductance.items():
        edges.append(_make_edge(p, q, 1 / c))
    out = ResistanceNetwork(edges, [w for w in net.vertices if w != v])
    _record(trace, "star-mesh", (v,), net, out)
    return out


def reduce_series_parallel(net: ResistanceNetwork, keep=(), trace=None) -> ResistanceNetwork:
    """Greedily apply parallel then series reductions until none applies.

    Vertices in `keep` are never series-eliminated.  Sites are chosen in
    vertex order, so the result and the trace are deterministic.
    """
    keep = set(keep)
    while True:
        bundles = sorted({(e.u, e.v) for e in net.edges if len(net.edges_between(e.u, e.v)) >= 2},
                         key=lambda p: (vertex_key(p[0]), vertex_key(p[1])))
        if bundles:
            net = parallel_reduce(net, *bundles[0], trace=trace)
            continue
        site = None
        for v in net.vertices:
            if v in keep or net.degree(v) != 2:
                continue
            inc = net.incident(v)
            ends = {e.v if e.u == v else e.u for e in inc}
            if len(ends) == 2:
                site = v
                break
        if site is None:
            return net
        net = series_reduce(net, site, trace=trace)


# ---------------------------------------------------------------------------
# exact linear algebra


def _conductance_graph(net: ResistanceNetwork) -> dict:
    """Vertex -> {neighbor: conductance}, parallel edges summed."""
    graph = {v: {} for v in net.vertices}
    for e in net.edges:
        c = graph[e.u].get(e.v, 0) + 1 / e.r
        graph[e.u][e.v] = graph[e.v][e.u] = c
    return graph


def _gauss_solve(rows, rhs_list):
    """Solve A x = b over the rationals for each b, with partial pivoting.

    The pivot is the largest-magnitude entry in the current column.  Raises
    ZeroDivisionError on a singular matrix.
    """
    n = len(rows)
    width = n + len(rhs_list)
    a = [[Rational(x) for x in row] + [Rational(b[i]) for b in rhs_list]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv_row = max(range(col, n), key=lambda i: abs(a[i][col]))
        if a[piv_row][col] == 0:
            raise ZeroDivisionError("singular matrix")
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
        piv = a[col][col]
        for i in range(col + 1, n):
            f = a[i][col]
            if f == 0:
                continue
            f /= piv
            row_i, row_c = a[i], a[col]
            for j in range(col, width):
                row_i[j] -= f * row_c[j]
    solutions = []
    for k in range(len(rhs_list)):
        x = [Rational(0)] * n
        for i in range(n - 1, -1, -1):
            acc = a[i][n + k]
            row_i = a[i]
            for j in range(i + 1, n):
                acc -= row_i[j] * x[j]
            x[i] = acc / row_i[i]
        solutions.append(x)
    return solutions


def _rcm_order(graph: dict) -> list:
    """Reverse Cuthill-McKee order of a connected graph's vertices.

    Breadth-first search visits each vertex's unvisited neighbors by
    increasing degree (ties by vertex_key).  It starts from a far vertex:
    the last one reached by a first search from the least vertex.  On a
    chain that is an end of the chain and the order runs along it, so the
    bandwidth stays a small constant.
    """
    def bfs(start):
        order = [start]
        seen = {start}
        for v in order:
            fresh = sorted((w for w in graph[v] if w not in seen),
                           key=lambda w: (len(graph[w]), vertex_key(w)))
            seen.update(fresh)
            order.extend(fresh)
        return order

    return bfs(bfs(min(graph, key=vertex_key))[-1])[::-1]


class _GroundedFactor:
    """Exact K = L D L^T of the grounded Laplacian K of a connected network.

    K is the conductance Laplacian with the ground vertex's row and column
    deleted.  The other vertices are eliminated in reverse Cuthill-McKee
    order over sparse rows; eliminating p is a star-mesh step on the Schur
    complement: each pair q, s of p's remaining neighbors gains conductance
    c_qp c_sp / D_p.  K is positive definite, so every pivot D_p must be
    positive; a pivot that is not raises ArithmeticError.

    `cols[p]` lists (q, l_qp) for the later neighbors q of p, with
    l_qp = c_qp / D_p = -L_qp.  Without a given ground the last vertex of
    the order, the far end of the breadth-first search, is grounded.
    """

    def __init__(self, net: ResistanceNetwork, ground=None):
        if ground is not None:
            net.require_vertex(ground)
        if not net.is_connected():
            raise ConnectivityError("network is not connected")
        graph = _conductance_graph(net)
        order = _rcm_order(graph)
        if ground is None:
            ground = order[-1]
        order.remove(ground)
        pos = {v: p for p, v in enumerate(order)}
        diag = [sum(graph[v].values()) for v in order]
        rows = [{pos[w]: c for w, c in graph[v].items() if w != ground} for v in order]
        self.pos = pos
        self.pivots = diag
        self.cols = []
        for p, row in enumerate(rows):
            d = diag[p]
            if d <= 0:
                raise ArithmeticError(f"non-positive pivot {d} at {order[p]!r}")
            col = [(q, c / d) for q, c in row.items()]
            for i, (q, l_q) in enumerate(col):
                row_q = rows[q]
                del row_q[p]
                diag[q] -= l_q * row[q]
                for s, _ in col[i + 1:]:
                    c = row_q.get(s, 0) + l_q * row[s]
                    row_q[s] = rows[s][q] = c
            self.cols.append(col)

    def solve(self, rhs) -> list:
        """x = K^-1 rhs, with vectors indexed by elimination position."""
        x = list(rhs)
        for p, col in enumerate(self.cols):
            if x[p]:
                for q, l_q in col:
                    x[q] += l_q * x[p]
        for p in range(len(x) - 1, -1, -1):
            x[p] = x[p] / self.pivots[p] + sum(l_q * x[q] for q, l_q in self.cols[p])
        return x

    def inverse(self, full=False) -> list:
        """Entries of Z = K^-1 by the Takahashi recurrence, last column first.

        Z_qp = sum over (s, l_sp) in cols[p] of Z_qs l_sp for q > p, and
        Z_pp = 1/D_p + sum of l_qp Z_qp.  The recurrence only reads Z on the
        filled pattern (the later neighbors of p form a clique once p is
        eliminated), so by default only those entries are computed, in
        O(V b^2) for bandwidth b; `full` computes all of Z, in O(V^2 b).
        Returns z with z[p][q] = Z_pq, symmetric, diagonal included.
        """
        m = len(self.cols)
        z = [{} for _ in range(m)]
        for p in range(m - 1, -1, -1):
            col = self.cols[p]
            z_p = z[p]
            for q in (range(p + 1, m) if full else (q for q, _ in col)):
                z_q = z[q]
                z_p[q] = z_q[p] = sum(z_q[s] * l_s for s, l_s in col)
            z_p[p] = 1 / self.pivots[p] + sum(l_q * z_p[q] for q, l_q in col)
        return z


def grounded_resistances(net: ResistanceNetwork, ground, targets=None) -> dict:
    """Effective resistances from `ground` to other vertices, in one factorization.

    With the grounded Laplacian K (ground row and column deleted),
    r(ground, v) = (K^-1)_vv.  With `targets=None`, returns r(ground, v) for
    every other vertex from the Takahashi diagonal of K^-1.  With an
    explicit iterable of `targets`, solves K phi = e_t for just those.
    """
    if net.num_vertices == 1:
        net.require_vertex(ground)
        if targets is not None and list(targets):
            raise NetworkError("no targets exist in a single-vertex network")
        return {}
    factor = _GroundedFactor(net, ground)
    pos = factor.pos
    if targets is None:
        z = factor.inverse()
        return {v: z[pos[v]][pos[v]] for v in net.vertices if v != ground}
    out = {}
    for t in targets:
        net.require_vertex(t)
        if t == ground:
            raise NetworkError("target coincides with the ground vertex")
        unit = [0] * len(pos)
        unit[pos[t]] = 1
        out[t] = factor.solve(unit)[pos[t]]
    return out


def resistance_sum(net: ResistanceNetwork, x) -> Rational:
    """Sum of effective resistances from x to every other vertex."""
    return sum(grounded_resistances(net, x).values(), Rational(0))


def resistance_sums(net: ResistanceNetwork) -> dict:
    """Per-vertex sums of effective resistances to every other vertex.

    With G = K^-1 grounded at g and extended by zeros at g,
    r(u, v) = G_uu + G_vv - 2 G_uv, so the sum at u is
    N G_uu + tr(G) - 2 (G 1)_u: one selected inversion and one solve.
    """
    n = net.num_vertices
    if n <= 1:
        return {v: Rational(0) for v in net.vertices}
    factor = _GroundedFactor(net)
    z = factor.inverse()
    row = factor.solve([1] * (n - 1))
    trace = sum(z[p][p] for p in range(n - 1))
    out = {}
    for v in net.vertices:
        p = factor.pos.get(v)
        out[v] = trace if p is None else n * z[p][p] + trace - 2 * row[p]
    return out


def kirchhoff_index(net: ResistanceNetwork) -> Rational:
    """Sum of effective resistances over unordered pairs of vertices.

    Grounding any vertex, Kf = N * tr(K^-1) - 1^T K^-1 1: the trace from the
    Takahashi diagonal, the quadratic form from one solve.
    """
    n = net.num_vertices
    if n == 0:
        raise NetworkError("empty network")
    if n == 1:
        return Rational(0)
    factor = _GroundedFactor(net)
    z = factor.inverse()
    trace = sum(z[p][p] for p in range(n - 1))
    return n * trace - sum(factor.solve([1] * (n - 1)))


def effective_resistance(net: ResistanceNetwork, u, v) -> Rational:
    """Effective resistance between u and v.

    Independent of the reduction engine and of the factorization behind the
    other solvers: build the dense conductance Laplacian over the rationals,
    ground v, solve K phi = e_u by Gaussian elimination with largest-magnitude
    pivoting, and read phi(u).
    """
    net.require_vertex(u)
    net.require_vertex(v)
    if u == v:
        return Rational(0)
    if not net.is_connected():
        raise ConnectivityError("network is not connected")
    graph = _conductance_graph(net)
    order = [w for w in net.vertices if w != v]
    index = {w: i for i, w in enumerate(order)}
    rows = []
    for w in order:
        row = [0] * len(order)
        row[index[w]] = sum(graph[w].values())
        for x, c in graph[w].items():
            if x != v:
                row[index[x]] = -c
        rows.append(row)
    rhs = [0] * len(order)
    rhs[index[u]] = 1
    return _gauss_solve(rows, [rhs])[0][index[u]]


@dataclass(frozen=True)
class ResistanceMatrix:
    """Symmetric matrix of pairwise effective resistances."""

    order: tuple
    values: tuple  # tuple of tuples of Rational, aligned with `order`
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.order)})

    def resistance(self, u, v) -> Rational:
        return self.values[self._index[u]][self._index[v]]

    def row_sum(self, u) -> Rational:
        return sum(self.values[self._index[u]], Rational(0))

    def total(self) -> Rational:
        """Sum over unordered pairs (the Kirchhoff index)."""
        return sum((self.row_sum(u) for u in self.order), Rational(0)) / 2

    def as_dict(self) -> dict:
        return {
            "order": list(self.order),
            "r": [[format_rational(x) for x in row] for row in self.values],
        }


def resistance_matrix(net: ResistanceNetwork) -> ResistanceMatrix:
    """All pairwise effective resistances from one factorization.

    The full Takahashi recurrence gives every entry of G = K^-1 (grounded,
    extended by zeros at the ground); then r(u, v) = G_uu + G_vv - 2 G_uv.
    """
    if not net.is_connected():
        raise ConnectivityError("network is not connected")
    n = net.num_vertices
    if n == 1:
        return ResistanceMatrix(net.vertices, ((Rational(0),),))
    factor = _GroundedFactor(net)
    z = factor.inverse(full=True)
    at = [factor.pos.get(v) for v in net.vertices]
    diag = [Rational(0) if p is None else z[p][p] for p in at]
    values = [[Rational(0)] * n for _ in range(n)]
    for i in range(n):
        z_i = z[at[i]] if at[i] is not None else None
        for j in range(i + 1, n):
            cross = 0 if z_i is None or at[j] is None else z_i[at[j]]
            values[i][j] = values[j][i] = diag[i] + diag[j] - 2 * cross
    return ResistanceMatrix(net.vertices, tuple(map(tuple, values)))


# ---------------------------------------------------------------------------
# staged simplification of terminal chains


def simplify_chain_circuit(chain):
    """Reduce everything left of a terminal chain's last hexagon to a star.

    Cells are processed left to right (square, hexagon, square, ...; the last
    hexagon is never touched).  For each cell: series-eliminate its degree-2
    vertices except the kept anchor and the pair shared with the next cell,
    then delta-wye the resulting triangle into a fresh hub z_t.  The hubs form
    a pendant path a_1 - z_1 - ... - z_{2n-1}; the last hub ends attached to
    the terminal hexagon's shared pair.

    Returns (network, trace).
    """
    n = chain.n
    a1 = chain.square_corners[0][0]
    cells = []
    pairs = []
    for i in range(n):
        a, b, k, l = chain.square_corners[i]
        cells.append((a, b, k, l))
        pairs.append((b, k))
        if i + 1 < n:
            hexagon = chain.hexagons[i]
            cells.append(hexagon)
            pairs.append((hexagon[1], hexagon[2]))
    net = chain.network
    trace = ReductionTrace()
    anchor = a1
    for t, (cell, (p, q)) in enumerate(zip(cells, pairs), start=1):
        keep = {a1, p, q}
        for v in sorted(cell, key=vertex_key):
            if v not in keep and net.has_vertex(v) and net.degree(v) == 2:
                net = series_reduce(net, v, trace=trace)
        hub = f"z{t}"
        net = delta_y(net, anchor, p, q, new_vertex=hub, trace=trace)
        anchor = hub
    return net, trace


# ---------------------------------------------------------------------------
# interchange formats


def parse_edge_list(text: str) -> ResistanceNetwork:
    """Parse "u v r" lines (r as p/q or integer; missing r means 1).

    Blank lines and '#' comments are skipped.  Numeric tokens become int
    vertex ids, anything else a string id.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise NetworkError(f"line {lineno}: expected 'u v r', got {raw!r}")
        u, v = parts[0], parts[1]
        u = int(u) if u.lstrip("+-").isdigit() else u
        v = int(v) if v.lstrip("+-").isdigit() else v
        r = parse_rational(parts[2]) if len(parts) == 3 else Rational(1)
        edges.append((u, v, r))
    return ResistanceNetwork(edges)


def format_edge_list(net: ResistanceNetwork) -> str:
    lines = [f"{e.u} {e.v} {format_rational(e.r)}" for e in net.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def network_to_dot(net: ResistanceNetwork, name="network", vertex_attrs=None) -> str:
    """Graphviz rendering with resistances as edge labels.

    `vertex_attrs` maps a vertex to extra DOT attributes ({"label": "a1"}).
    """
    vertex_attrs = vertex_attrs or {}
    out = [f"graph {name} {{", "  node [shape=circle];"]
    for v in net.vertices:
        attrs = vertex_attrs.get(v)
        if attrs:
            rendered = ", ".join(f'{key}="{val}"' for key, val in attrs.items())
            out.append(f'  "{v}" [{rendered}];')
        else:
            out.append(f'  "{v}";')
    for e in net.edges:
        out.append(f'  "{e.u}" -- "{e.v}" [label="{format_rational(e.r)}"];')
    out.append("}")
    return "\n".join(out) + "\n"
