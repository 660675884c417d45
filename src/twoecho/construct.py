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
    require_launch_sites,
)

EPSILON = 1e-6  # hours; keeps zero-cost candidates off the division by zero


class ConstructionFailed(TwoEchoError):
    """Single-trip capacity ran out before every customer found a serving node."""


class ConstructionState:
    """Partial solution while customers are being added.

    Every round redraws each roulette choice, but few weights change between
    rounds: a commit changes the committed node's wait, and only a tour
    extension changes the insertion arcs and so the costs of the unvisited
    nodes. The state keeps each weight and recomputes only those, so a round
    costs time in proportion to the pending customers plus the changed
    entries, at every instance size.

    Roulette sums run in index order (tour arc, node, pending customer), and
    each customer keeps a weight for every node, zero where the node cannot
    serve it, so a seed gives the same sums and picks whichever entries
    changed.

    Both variants put a customer on its node's least-loaded drone. A
    single-trip node takes at most u customers (``cap``), so its wait, the
    longest flight, is its largest load.
    """

    def __init__(self, inst: Instance, mats: TimeMatrices, variant: Variant):
        self.inst = inst
        self.mats = mats
        n, m, u = inst.n, inst.m, inst.num_drones
        self.cap = u if variant is Variant.SINGLE else m
        self.tour = [0]
        self.visited = [True] + [False] * (n - 1)
        # customers per node; loads cannot count them, as a customer at the
        # node itself flies a 0.0 h trip
        self.count = [0] * n
        self.loads = [[0.0] * u for _ in range(n)]
        self.assign: dict[int, int] = {}
        self.drone_of: dict[int, int] = {}
        self.pending = list(range(m))
        self.unserved = [True] * m
        self.step_pos = [0] * n
        self.tour_dirty = True
        # per customer: the weight of every node and their running sums,
        # None once a weight changed; and how many nodes may still serve it,
        # counted down for pending customers only, so a zero means stuck
        self._weights = [[0.0] * n for _ in range(m)]
        self._cums: list[list[float] | None] = [None] * m
        self._sites = [len(sites) for sites in mats.v_serve]
        # per unvisited launch site: insertion cost and weight of each tour arc
        t = mats.t
        self._arc_cost: dict[int, list[float]] = {}
        self._arc_w: dict[int, list[float]] = {}
        for j in range(1, n):
            if mats.w_sets[j]:
                c = t[j][0] + t[j][0] - t[0][0]
                c = c if c > 0.0 else 0.0
                self._arc_cost[j] = [c]
                self._arc_w[j] = [1.0 / (c + EPSILON)]

    def draw(self, rng) -> tuple[int, int]:
        """Make one round's roulette choices; return ``(customer, node)``.

        The random numbers are drawn in this order, all in one call: one per
        unvisited node if the tour changed since the last round (step 1),
        then one per pending customer (step 2) and one more (step 3). When a
        pending customer has no serving node left, step 1's numbers are
        drawn and :class:`ConstructionFailed` is raised.
        """
        unvisited = []
        if self.tour_dirty:
            self.tour_dirty = False
            unvisited = [j for j, seen in enumerate(self.visited) if not seen]
        pending = self.pending
        if 0 in self._sites:
            if unvisited:
                rng.random(len(unvisited))
            stuck = [k for k in pending if not self._sites[k]]
            raise ConstructionFailed(f"no serving node left for customers {stuck}")
        draws = rng.random(len(unvisited) + len(pending) + 1).tolist()
        if unvisited:
            self._choose_insertions(unvisited, draws)
        cums = self._cums
        for k in pending:
            if cums[k] is None:
                cums[k] = list(accumulate(self._weights[k]))
        nodes = [
            bisect_left(cums[k], cums[k][-1] * (1.0 - r))
            for k, r in zip(pending, draws[len(unvisited):])
        ]
        # the customer roulette weighs each customer by 1 / (cost + EPSILON)
        # of its chosen node: the very weight that chose the node
        cum3 = list(accumulate(self._weights[k][i] for k, i in zip(pending, nodes)))
        j = bisect_left(cum3, cum3[-1] * (1.0 - draws[-1]))
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
        del self._arc_cost[x], self._arc_w[x]
        arc_w = self._arc_w
        for j, costs in self._arc_cost.items():
            tj = t[j]
            c1 = tj[p] + tj[x] - tp
            c1 = c1 if c1 > 0.0 else 0.0
            c2 = tj[x] + tj[q] - tx
            c2 = c2 if c2 > 0.0 else 0.0
            costs[pos - 1:pos] = c1, c2
            arc_w[j][pos - 1:pos] = 1.0 / (c1 + EPSILON), 1.0 / (c2 + EPSILON)

    def commit(self, k: int, i: int) -> None:
        """Assign customer ``k`` to node ``i``, visiting ``i`` first if needed."""
        if not self.visited[i]:
            pos = self.step_pos[i]
            self._split_arc(pos, i)
            self.tour.insert(pos, i)
            self.visited[i] = True
            self.tour_dirty = True
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
    inst: Instance, mats: TimeMatrices, variant: Variant, rng, evaluated: bool = True
) -> Solution:
    """Build a feasible solution, or raise :class:`ConstructionFailed`.

    Multi-trip construction cannot fail once every customer has a
    launch-capable node in range; single-trip construction fails when all
    reachable nodes are already serving a full load of drones.

    The solution comes back evaluated. With ``evaluated=False`` its
    ``waits``, ``arrivals`` and ``objective`` stay unset, for a caller that
    evaluates it later anyway, as the GRASP loop does after local search.
    """
    require_launch_sites(mats.v_serve)
    state = ConstructionState(inst, mats, variant)
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
