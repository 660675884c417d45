"""Greedy randomized construction: cheapest insertion with roulette-wheel choice.

A solution grows one customer per round. Each round makes three chained
roulette decisions: an insertion position for every still-unvisited truck
node, a serving node for every unserved customer, and finally the customer
to commit. Cheaper options win proportionally to the inverse of their cost.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

from .model import (
    Instance,
    Solution,
    TimeMatrices,
    TwoEchoError,
    Variant,
    evaluate,
)

EPSILON = 1e-6  # hours; keeps zero-cost candidates off the division by zero
BLOCK = 512  # numbers per fetch of RandomBlocks; a block lives as long as its stream


class ConstructionFailed(TwoEchoError):
    """Single-trip capacity ran out before every customer found a serving node."""


class RandomBlocks:
    """A generator's ``random`` numbers as Python floats, fetched ``block`` at
    a time (0: exactly what each take needs). A PCG64 generator gives the same
    doubles for ``random(a)`` then ``random(b)`` as for ``random(a + b)``, so
    the numbers come in the generator's order, but it runs ahead by a block.
    """

    def __init__(self, rng, block: int = BLOCK):
        self._rng, self._block = rng, block
        self._buf: list[float] = []
        self._at = 0

    def take(self, n: int) -> list[float]:
        """The next ``n`` numbers."""
        at, buf = self._at, self._buf
        end = at + n
        if end > len(buf):
            buf = self._buf = buf[at:] + self._rng.random(max(self._block, end - len(buf))).tolist()
            at, end = 0, n
        self._at = end
        return buf[at:end]


class ConstructionStart:
    """The state before a construction's first commit, built once per
    :class:`~twoecho.model.TimeMatrices` and shared by the constructions on it.

    On the tour ``[0]`` each launch site has one insertion arc, so the first
    round's insertion choice is fixed (``2 t[j][0]`` of truck time), and so
    are the node weights, each customer's running sums over them and its
    count of serving nodes. A :class:`ConstructionState` copies the weight
    rows and site counts; it shares the running sums, which it replaces, and
    the one-arc lists until its first tour split gives every site new ones.
    """

    def __init__(self, mats: TimeMatrices):
        t, trip, w_sets = mats.t, mats.trip, mats.w_sets
        n, m = len(t), len(mats.v_serve)
        # per launch site: insertion cost and weight of its one tour arc
        self.arc_cost: dict[int, list[float]] = {}
        self.arc_w: dict[int, list[float]] = {}
        self.weights = [[0.0] * n for _ in range(m)]
        for j in range(n):
            if w_sets[j]:
                c = t[j][0] + t[j][0] - t[0][0]
                c = c if c > 0.0 else 0.0
                self.arc_cost[j] = [c]
                self.arc_w[j] = [1.0 / (c + EPSILON)]
                trips = trip[j]
                for k in w_sets[j]:
                    self.weights[k][j] = 1.0 / (trips[k] + c + EPSILON)
        self.cums = [list(accumulate(row)) for row in self.weights]
        self.sites = [len(sites) for sites in mats.v_serve]


class ConstructionState:
    """Partial solution while customers are being added.

    Every round redraws each roulette choice, but few weights change between
    rounds: a commit changes the committed node's wait, and only a tour
    extension changes the insertion arcs and so the costs of the unvisited
    nodes. The state keeps each weight and recomputes only those. A round
    without a tour extension rebuilds the running sums of the customers the
    committed node can serve; the round after an extension re-chooses every
    unvisited node's arc, reweighs those nodes and rebuilds every pending
    customer's sums.

    The state starts from a :class:`ConstructionStart` (one is built when
    none is given), so the first round draws its step-1 numbers but has
    nothing to choose or rebuild. Until the first tour split it shares the
    start's arc lists; unvisited nodes share one zero load row.

    Roulette sums run in index order (tour arc, node, pending customer), and
    each customer keeps a weight for every node, zero where the node cannot
    serve it, so a seed gives the same sums and picks whichever entries
    changed.

    Both variants put a customer on its node's least-loaded drone. A
    single-trip node takes at most u customers (``cap``), so its wait, the
    longest flight, is its largest load.
    """

    def __init__(
        self, inst: Instance, mats: TimeMatrices, variant: Variant, start: ConstructionStart | None = None
    ):
        if start is None:
            start = ConstructionStart(mats)
        self.inst = inst
        self.mats = mats
        n, m, u = inst.n, inst.m, inst.num_drones
        self.cap = u if variant is Variant.SINGLE else m
        self.tour = [0]
        self.unvisited = list(range(1, n))
        # customers per node; loads cannot count them, as a customer at the
        # node itself flies a 0.0 h trip
        self.count = [0] * n
        # a node gets its own row when visited; the depot serves no one
        self.loads = [[0.0] * u] * n
        self.assign: dict[int, int] = {}
        self.drone_of: dict[int, int] = {}
        self.pending = list(range(m))
        self.unserved = [True] * m
        # on the tour [0] every arc ends at position 1
        self.step_pos = [1] * n
        self.tour_dirty = True
        # per customer: the weight of every node and their running sums,
        # None once a weight changed; and how many nodes may still serve it,
        # counted down for pending customers only, so a zero means stuck
        self._weights = [row[:] for row in start.weights]
        self._cums: list[list[float] | None] = start.cums[:]
        self._sites = start.sites[:]
        # per unvisited launch site: insertion cost and weight of each tour arc
        self._arc_cost = start.arc_cost.copy()
        self._arc_w = start.arc_w.copy()

    def draw(self, rng) -> tuple[int, int]:
        """Make one round's roulette choices; return ``(customer, node)``.

        The numbers come from a :class:`RandomBlocks` or, exactly as many as
        the round uses, from a numpy generator, in this order: one per
        unvisited node if the tour changed since the last round (step 1),
        then one per pending customer (step 2) and one more (step 3). When a
        pending customer has no serving node left, step 1's numbers are
        drawn and :class:`ConstructionFailed` is raised.
        """
        rng = rng if isinstance(rng, RandomBlocks) else RandomBlocks(rng, 0)
        unvisited = self.unvisited if self.tour_dirty else []
        self.tour_dirty = False
        pending = self.pending
        if 0 in self._sites:
            rng.take(len(unvisited))
            stuck = [k for k in pending if not self._sites[k]]
            raise ConstructionFailed(f"no serving node left for customers {stuck}")
        draws = rng.take(len(unvisited) + len(pending) + 1)
        # on the tour [0] each node has one arc, which the start has chosen
        if unvisited and len(self.tour) > 1:
            self._choose_insertions(unvisited, draws)
        # the customer roulette weighs each customer by 1 / (cost + EPSILON)
        # of its chosen node: the very weight that chose the node; its
        # running total, summed from 0.0, is what accumulate would give
        cums, weights = self._cums, self._weights
        nodes, cum3, total = [], [], 0.0
        for k, r in zip(pending, draws[len(unvisited):]):
            cum = cums[k]
            if cum is None:
                cum = cums[k] = list(accumulate(weights[k]))
            i = bisect_left(cum, cum[-1] * (1.0 - r))
            nodes.append(i)
            total += weights[k][i]
            cum3.append(total)
        j = bisect_left(cum3, total * (1.0 - draws[-1]))
        return pending[j], nodes[j]

    def _choose_insertions(self, unvisited, draws) -> None:
        """Step 1: roulette-choose an insertion position for every unvisited
        node, then reweigh the node for every customer it can serve: the
        round trip plus the chosen insertion cost."""
        arc_cost, arc_w = self._arc_cost, self._arc_w
        trip, w_sets = self.mats.trip, self.mats.w_sets
        unserved, weights, eps = self.unserved, self._weights, EPSILON
        for j, r in zip(unvisited, draws):
            costs = arc_cost.get(j)
            if costs is None:
                continue
            cum = list(accumulate(arc_w[j]))
            a = bisect_left(cum, cum[-1] * (1.0 - r))
            ic = costs[a]
            self.step_pos[j] = a + 1
            trips = trip[j]
            for k in w_sets[j]:
                if unserved[k]:
                    weights[k][j] = 1.0 / (trips[k] + ic + eps)
        self._cums = [None] * self.inst.m

    def _reweigh(self, i) -> None:
        """Recompute visited node ``i``'s weight for every pending customer:
        the wait increase from adding the customer's trip on the least
        loaded drone, clamped at zero; zero once the node is full."""
        unserved, weights, cums = self.unserved, self._weights, self._cums
        if self.count[i] >= self.cap:
            for k in self.mats.w_sets[i]:
                if unserved[k]:
                    weights[k][i] = 0.0
                    cums[k] = None
                    self._sites[k] -= 1
            return
        loads = self.loads[i]
        base, wait = min(loads), max(loads)
        trips = self.mats.trip[i]
        for k in self.mats.w_sets[i]:
            if unserved[k]:
                c = base + trips[k] - wait
                weights[k][i] = 1.0 / ((c if c > 0.0 else 0.0) + EPSILON)
                cums[k] = None

    def _split_arc(self, pos: int, x: int) -> None:
        """Replace the tour arc into position ``pos`` by the two arcs through ``x``."""
        t = self.mats.t
        tour = self.tour
        p = tour[pos - 1]
        q = tour[pos] if pos < len(tour) else 0
        tp, tx = t[p][x], t[x][q]
        arc_cost, arc_w = self._arc_cost, self._arc_w
        del arc_cost[x], arc_w[x]
        first = len(tour) == 1  # new lists, as the start owns the one-arc lists
        for j, costs in arc_cost.items():
            tj = t[j]
            c1 = tj[p] + tj[x] - tp
            c1 = c1 if c1 > 0.0 else 0.0
            c2 = tj[x] + tj[q] - tx
            c2 = c2 if c2 > 0.0 else 0.0
            w1, w2 = 1.0 / (c1 + EPSILON), 1.0 / (c2 + EPSILON)
            if first:
                arc_cost[j], arc_w[j] = [c1, c2], [w1, w2]
            else:
                costs[pos - 1:pos] = c1, c2
                arc_w[j][pos - 1:pos] = w1, w2

    def commit(self, k: int, i: int) -> None:
        """Assign customer ``k`` to node ``i``, visiting ``i`` first if needed."""
        if i in self._arc_cost:  # i serves k, so it is a launch site: unvisited
            pos = self.step_pos[i]
            self._split_arc(pos, i)
            self.tour.insert(pos, i)
            self.unvisited.remove(i)
            self.tour_dirty = True
            self.loads[i] = [0.0] * self.inst.num_drones
        loads = self.loads[i]
        l = loads.index(min(loads))
        loads[l] += self.mats.trip[i][k]
        self.drone_of[k] = l
        self.count[i] += 1
        self.assign[k] = i
        self.unserved[k] = False
        self.pending.remove(k)
        self._reweigh(i)


def construct_solution(
    inst: Instance, mats: TimeMatrices, variant: Variant, rng, evaluated: bool = True,
    start: ConstructionStart | None = None,
) -> Solution:
    """Build a feasible solution, or raise :class:`ConstructionFailed`.

    Multi-trip construction cannot fail once every customer has a
    launch-capable node in range; single-trip construction fails when all
    reachable nodes are already serving a full load of drones.

    The solution comes back evaluated. With ``evaluated=False`` its
    ``waits``, ``arrivals`` and ``objective`` stay unset, for a caller that
    evaluates it later anyway, as the GRASP loop does after local search.

    ``start`` is the :class:`ConstructionStart` of ``mats``, and ``rng`` may
    be a :class:`RandomBlocks`, for a caller that constructs many times, as a
    GRASP stream does; without a start one is built for this call.
    """
    state = ConstructionState(inst, mats, variant, start)
    while state.pending:
        state.commit(*state.draw(rng))

    sol = Solution(
        variant=variant,
        tour=state.tour,
        assign=state.assign,
        drone_of=state.drone_of if variant is Variant.MULTI else None,
    )
    if evaluated:
        evaluate(sol, inst, mats)
    return sol
