"""Weighted resistance networks with exact reduction steps and exact solvers.

A network is an undirected multigraph whose edges carry positive rational
resistances.  Two kinds of computation are kept deliberately separate:

* local circuit reductions (series, parallel, delta-wye, star-mesh) that
  transform the network while preserving effective resistances among the
  surviving vertices, with a replayable trace.  A `ReductionTrace` is the
  network under reduction, and `ReductionTrace.apply` is the one routine
  that changes it.  Each op builds its step from the edges it looked up
  and applies it, so a step costs time in its own size.
  `ReductionTrace.replay` checks a trace from the recorded edges alone: it
  applies each step to a fresh trace of the initial network and certifies
  it on those edges (`step_preserves_resistances`), without running an op
  or solving the whole network;
* one exact sparse factorization K = L D L^T of the grounded Laplacian, in
  reverse Cuthill-McKee order, behind every resistance quantity here.
  Each is read off the inverse by the Takahashi recurrence: grounded
  resistances off its diagonal, the resistance matrix off all of it; the
  Kirchhoff index and per-vertex resistance sums add one solve against the
  all-ones vector, and resistances to two terminals one solve against a
  unit vector.  It alone checks its input for the empty network, a
  missing ground and disconnection.

The Kirchhoff index of a unit chain code (`kf_of_code`, `find_extrema`)
comes from the two-port transfer engine in `extremal_search`, whose
constants come from this factorization of four networks of at most 8
vertices.  Weighted, rewired and non-chain networks, per-vertex sums and
the resistance matrix are factored here directly.

`effective_resistance` solves the dense Laplacian by rational Gaussian
elimination instead.  It is the independent oracle the tests hold the
factorization to; no verdict depends on it.
"""

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .exact_arith import Rational, format_rational


class NetworkError(ValueError):
    """Base class for network construction and reduction errors."""


class InvalidNetworkError(NetworkError):
    """Malformed construction input: self-loop, nonpositive resistance, ..."""


class NotReducibleError(NetworkError):
    """A reduction step's precondition does not hold at the given site."""


class ConnectivityError(NetworkError):
    """A solver was given a network that is not connected."""


def vertex_key(v):
    """Total order over mixed int/str vertex ids (ints first, then strings)."""
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


class _EdgeFields(NamedTuple):
    u: object
    v: object
    r: Rational


class Edge(_EdgeFields):
    """An edge checked once, when made: no self-loop, r a positive Rational
    (default 1), ends in `vertex_key` order.  `_make`, and `_replace` through
    it, check too, so no Edge is ever checked again."""

    __slots__ = ()

    def __new__(cls, u, v, r=1):
        if u == v:
            raise InvalidNetworkError(f"self-loop at {u!r}")
        if type(r) is not Rational:
            r = Rational(r)
        if r.numerator <= 0:
            raise InvalidNetworkError(f"resistance must be positive, got {r} on ({u!r}, {v!r})")
        if vertex_key(v) < vertex_key(u):
            u, v = v, u
        return tuple.__new__(cls, (u, v, r))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _edge_order(e: Edge) -> tuple:
    return vertex_key(e.u), vertex_key(e.v), e.r


class _Incidence:
    """Readers of `_adj`, each vertex's incident edges: shared by a network
    and by a trace, the network under reduction."""

    __slots__ = ()

    def has_vertex(self, v) -> bool:
        return v in self._adj

    def require_vertex(self, v):
        if v not in self._adj:
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


class ResistanceNetwork(_Incidence):
    """Immutable weighted multigraph.

    Vertices are ints or strings.  Edge input items are `Edge`s, taken as
    they are, or (u, v, r) triples and (u, v) pairs (unit resistance), each
    made into an `Edge` and so checked.  Vertices and edges are stored
    sorted, so two networks with equal vertex sets and equal edge multisets
    compare equal no matter the construction order.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, edges, extra_vertices=()):
        self.edges = tuple(sorted((e if isinstance(e, Edge) else Edge(*e) for e in edges), key=_edge_order))
        ends = {w for e in self.edges for w in (e.u, e.v)}
        self.vertices = tuple(sorted(ends.union(extra_vertices), key=vertex_key))
        self._adj = {v: [] for v in self.vertices}
        for e in self.edges:
            self._adj[e.u].append(e)
            self._adj[e.v].append(e)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

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
            e = Edge(u, v, r)
            key = (e.u, e.v)
            if key in wanted:
                raise InvalidNetworkError(f"pair ({u!r}, {v!r}) given twice")
            wanted[key] = e
        edges = []
        seen = set()
        for e in self.edges:
            key = (e.u, e.v)
            if key in wanted:
                if key in seen:
                    raise NotReducibleError(f"parallel edges between {key[0]!r} and {key[1]!r}; reweight is ambiguous")
                seen.add(key)
                edges.append(wanted[key])
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
    """One reduction: the op and site that made it, the edges it removed and
    added, and the vertex it made, if any.  Applying it eliminates exactly
    the site vertices it leaves without edges."""

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


class ReductionTrace(_Incidence):
    """A network under reduction and the steps applied to it so far.

    Each vertex keeps its incident edges, read as a `ResistanceNetwork`'s
    are, so a step costs time in its own size.  Only `apply` changes the
    network; `network()` returns it as a `ResistanceNetwork`.
    `fresh_vertex`, the default name of a new vertex, is one past every int
    vertex the trace ever had.
    """

    def __init__(self, network: ResistanceNetwork):
        self._adj = {v: list(inc) for v, inc in network._adj.items()}
        self._seen = set(self._adj)
        self.fresh_vertex = max((v + 1 for v in self._adj if isinstance(v, int)), default=0)
        self.steps = []

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def network(self) -> ResistanceNetwork:
        return ResistanceNetwork((e for v, inc in self._adj.items() for e in inc if e.u == v), self._adj)

    def apply(self, step: ReductionStep) -> ReductionStep:
        """Remove the step's removed edges, add its added edges, drop the site
        vertices it leaves without edges, and record the step.

        Refused with NotReducibleError, before any change, if a removed edge
        is absent or if a new vertex (an end of an added edge that the
        network lacks) is named like a vertex the trace ever had: so a
        vertex kept from the start was kept at every step.
        """
        adj = self._adj
        for e, count in Counter(step.removed_edges).items():
            if adj.get(e.u, ()).count(e) < count:
                raise NotReducibleError(f"removed edge {e} is absent")
        new = {w for e in step.added_edges for w in e[:2] if w not in adj}
        if new & self._seen:
            raise NotReducibleError(f"new vertex {min(new & self._seen, key=vertex_key)!r} was used before")
        for e in step.removed_edges:
            adj[e.u].remove(e)
            adj[e.v].remove(e)
        for e in step.added_edges:
            adj.setdefault(e.u, []).append(e)
            adj.setdefault(e.v, []).append(e)
        for w in step.site:
            if adj.get(w) == []:
                del adj[w]
        self._seen |= new
        self.fresh_vertex = max([self.fresh_vertex, *(w + 1 for w in new if isinstance(w, int))])
        self.steps.append(step)
        return step

    def replay(self, network: ResistanceNetwork) -> ResistanceNetwork:
        """Apply each recorded step to a fresh trace of `network`, certify
        it, and return the network the last step leaves.

        `apply` refuses an absent removed edge and a reused vertex name; the
        step must then pass `step_preserves_resistances` on its vertices
        that the network has both before and after it.  No reduction op
        runs here: the ops and the choice of sites are trusted for nothing.
        Raises NetworkError naming the first step that fails.
        """
        checked = ReductionTrace(network)
        for idx, step in enumerate(self.steps):
            ends = {w for e in step.removed_edges + step.added_edges for w in e[:2]}
            before = {w for w in ends if checked.has_vertex(w)}
            try:
                checked.apply(step)
                if not step_preserves_resistances(step, {w for w in before if checked.has_vertex(w)}):
                    raise NotReducibleError("resistances among its survivors change")
            except NotReducibleError as err:
                raise NetworkError(f"replay refused step {idx}: {step.describe()}: {err}") from None
        return checked.network()


def step_preserves_resistances(step: ReductionStep, survivors) -> bool:
    """Local certificate that `step` keeps every effective resistance among
    the vertices the network has both before and after it.

    `survivors` are the step's vertices in both networks; the others are
    eliminated (in removed edges only) or new (in added edges only), as
    `replay` works them out.  Edges outside the step are common to both
    networks, so Kron-reducing the eliminated and the new vertices away
    leaves the common edges plus the Schur complement of the removed side or
    of the added side on the survivors.  Equal resistance matrices on the
    survivors mean equal Schur complements, so the two reduced networks
    coincide.  Each side is as small as the step (at most 4 vertices for
    series and delta-wye).  A side that leaves survivors disconnected fails;
    one survivor or none passes.
    """
    survivors = tuple(survivors)
    if len(survivors) < 2:
        return True
    try:
        sides = [resistance_matrix(ResistanceNetwork(edges, survivors))
                 for edges in (step.removed_edges, step.added_edges)]
    except ConnectivityError:
        return False
    return all(sides[0].resistance(u, v) == sides[1].resistance(u, v)
               for i, u in enumerate(survivors) for v in survivors[i + 1:])


# ---------------------------------------------------------------------------
# reduction operations


def _step(kind, site, removed, added, new_vertex=None) -> ReductionStep:
    """The step with each side in `_edge_order`, as a network stores edges."""
    return ReductionStep(kind, site, tuple(sorted(removed, key=_edge_order)),
                         tuple(sorted(added, key=_edge_order)), new_vertex)


def series_reduce(trace: ReductionTrace, y) -> ReductionStep:
    """Replace x - y - z (y of degree 2, x != z) by one edge (x, z) with r1 + r2.

    The new edge is kept alongside any existing (x, z) edges; merge those with
    parallel_reduce explicitly.
    """
    inc = trace.incident(y)
    if len(inc) != 2:
        raise NotReducibleError(f"vertex {y!r} has degree {len(inc)}, need exactly 2")
    e1, e2 = inc
    x = e1.v if e1.u == y else e1.u
    z = e2.v if e2.u == y else e2.u
    if x == z:
        raise NotReducibleError(f"vertex {y!r} has parallel edges to {x!r}; not a series site")
    return trace.apply(_step("series", (y,), inc, [Edge(x, z, e1.r + e2.r)]))


def parallel_reduce(trace: ReductionTrace, x, y) -> ReductionStep:
    """Replace all k >= 2 edges between x and y by one with 1/r = sum(1/r_i)."""
    bundle = trace.edges_between(x, y)
    if len(bundle) < 2:
        raise NotReducibleError(f"need >= 2 parallel edges between {x!r} and {y!r}, found {len(bundle)}")
    conductance = sum(1 / e.r for e in bundle)
    pair = bundle[0].u, bundle[0].v  # (x, y) in vertex order
    return trace.apply(_step("parallel", pair, bundle, [Edge(*pair, 1 / conductance)]))


def delta_y(trace: ReductionTrace, x, y, z, new_vertex=None) -> ReductionStep:
    """Replace triangle edges on {x, y, z} by a star through a new vertex.

    With R_a = r(y, z), R_b = r(x, z), R_c = r(x, y) and S = R_a + R_b + R_c,
    the star edges are (x, w, R_b*R_c/S), (y, w, R_a*R_c/S), (z, w, R_a*R_b/S).
    Each triangle side must be a single edge; merge parallels first.  The
    new vertex defaults to the trace's `fresh_vertex`.
    """
    corners = (x, y, z)
    if len(set(corners)) != 3:
        raise NotReducibleError(f"triangle corners must be distinct: {corners!r}")
    sides = []
    for p, q in ((y, z), (x, z), (x, y)):
        bundle = trace.edges_between(p, q)
        if len(bundle) != 1:
            raise NotReducibleError(
                f"need exactly one edge between {p!r} and {q!r}, found {len(bundle)}")
        sides += bundle
    if new_vertex is None:
        new_vertex = trace.fresh_vertex
    if trace.has_vertex(new_vertex):
        raise NotReducibleError(f"new vertex {new_vertex!r} already present")
    r_a, r_b, r_c = (e.r for e in sides)
    total = r_a + r_b + r_c
    star = [Edge(x, new_vertex, r_b * r_c / total), Edge(y, new_vertex, r_a * r_c / total),
            Edge(z, new_vertex, r_a * r_b / total)]
    return trace.apply(_step("delta-wye", corners, sides, star, new_vertex))


def star_mesh_eliminate(trace: ReductionTrace, v) -> ReductionStep:
    """Remove v and connect its neighborhood as a mesh.

    With per-neighbor conductances c_i (parallel edges to the same neighbor
    summed) and C = sum(c_i), each neighbor pair (u_i, u_j) gains conductance
    c_i*c_j / C, merged into any existing (u_i, u_j) edges.  Degree 1 removes
    a pendant; degree 2 matches series plus a parallel merge; degree 3 matches
    wye-delta.
    """
    removed = list(trace.incident(v))
    by_neighbor = defaultdict(lambda: Rational(0))
    for e in removed:
        other = e.v if e.u == v else e.u
        by_neighbor[other] += 1 / e.r
    neighbors = sorted(by_neighbor, key=vertex_key)
    total = sum(by_neighbor.values())
    mesh = []
    for i, p in enumerate(neighbors):
        for q in neighbors[i + 1:]:
            between = trace.edges_between(p, q)
            removed += between
            mesh.append(Edge(p, q, 1 / (by_neighbor[p] * by_neighbor[q] / total
                                        + sum((1 / e.r for e in between), Rational(0)))))
    return trace.apply(_step("star-mesh", (v,), removed, mesh))


def reduce_series_parallel(net: ResistanceNetwork, keep=()):
    """Greedily apply parallel then series reductions until none applies.

    Vertices in `keep` are never series-eliminated.  Each site is the least
    in vertex order.  First every parallel bundle is merged (a bundle's
    edges are neighbours in `net.edges`), which leaves the network simple.
    Then the vertices outside `keep` come off a heap, and each that has
    degree 2 when popped is a series site.  A series step keeps its ends'
    degrees unless they were already joined; the bundle it then makes is
    merged at once, and that merge lowers the two ends' degrees, the only
    degrees that ever change, so they go back on the heap.

    Returns (network, trace).
    """
    keep = set(keep)
    trace = ReductionTrace(net)
    edges = net.edges
    for pair in dict.fromkeys(e[:2] for e, f in zip(edges, edges[1:]) if e[:2] == f[:2]):
        parallel_reduce(trace, *pair)
    heap = [(vertex_key(v), v) for v in net.vertices if v not in keep]  # sorted: a heap
    while heap:
        y = heapq.heappop(heap)[1]
        if trace.has_vertex(y) and trace.degree(y) == 2:
            (joined,) = series_reduce(trace, y).added_edges
            if len(trace.edges_between(joined.u, joined.v)) > 1:
                parallel_reduce(trace, joined.u, joined.v)
                for w in {joined.u, joined.v} - keep:
                    heapq.heappush(heap, (vertex_key(w), w))
    return trace.network(), trace


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
    the order, the far end of the breadth-first search, is grounded.  A
    one-vertex network factors to nothing: K and its inverse are empty.
    """

    def __init__(self, net: ResistanceNetwork, ground=None):
        if not net.num_vertices:
            raise NetworkError("empty network")
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


def grounded_resistances(net: ResistanceNetwork, ground) -> dict:
    """r(ground, v) for every other vertex v, in vertex order.

    With the grounded Laplacian K (ground row and column deleted),
    r(ground, v) = (K^-1)_vv, read off the Takahashi diagonal of one
    factorization.
    """
    factor = _GroundedFactor(net, ground)
    pos = factor.pos
    z = factor.inverse()
    return {v: z[pos[v]][pos[v]] for v in net.vertices if v != ground}


def terminal_resistances(net: ResistanceNetwork, x, y) -> dict:
    """(r(v, x), r(v, y)) for every vertex v, in vertex order.

    One factorization grounded at x: r(v, x) = Z_vv off the Takahashi
    diagonal of Z = K^-1, and one solve against e_y gives the column Z_vy,
    so r(v, y) = Z_vv + Z_yy - 2 Z_vy (Z is zero in the row of x).
    """
    net.require_vertex(y)
    if y == x:
        raise NetworkError(f"terminals coincide at {x!r}")
    factor = _GroundedFactor(net, x)
    pos = factor.pos
    z = factor.inverse()
    e_y = [0] * len(pos)
    e_y[pos[y]] = 1
    col = factor.solve(e_y)
    z_yy = z[pos[y]][pos[y]]
    out = {}
    for v in net.vertices:
        p = pos.get(v)
        out[v] = (Rational(0), z_yy) if p is None else (z[p][p], z[p][p] + z_yy - 2 * col[p])
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
    factor = _GroundedFactor(net)
    z = factor.inverse()
    row = factor.solve([1] * (n - 1))
    trace = sum((z[p][p] for p in range(n - 1)), Rational(0))
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
    factor = _GroundedFactor(net)
    z = factor.inverse()
    trace = sum((z[p][p] for p in range(n - 1)), Rational(0))
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
    n = net.num_vertices
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
    n = len(chain.square_corners)
    a1 = chain.a1
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
    trace = ReductionTrace(chain.network)
    anchor = a1
    for t, (cell, (p, q)) in enumerate(zip(cells, pairs), start=1):
        keep = {a1, p, q}
        for v in sorted(cell, key=vertex_key):
            if v not in keep and trace.has_vertex(v) and trace.degree(v) == 2:
                series_reduce(trace, v)
        hub = f"z{t}"
        delta_y(trace, anchor, p, q, new_vertex=hub)
        anchor = hub
    return trace.network(), trace


# ---------------------------------------------------------------------------
# output formats


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
