"""First-improvement local search over truck tours and customer assignments.

Both variants share one stop model. Every visited node keeps its customers
on each of its u drones, each drone's load (the sum of its round trips),
and the largest (the stop's wait), second-largest and smallest loads. A
single-trip stop is a multi-trip stop that holds at most u customers: a
customer joining a stop goes onto its least-loaded drone, so below u
customers it lands on a drone with no other nonzero trip, and the wait, the
longest flight, is the largest load in the same floating-point value.

Each operator makes its first move that improves the objective by more
than ``IMPROVE_EPS`` and returns the change, costed from these per-node loads
and from edge times without re-evaluating the whole solution, or None. It
makes each customer move as the (customer, node, drone) triple it costed,
through ``DeltaCache._commit``; a re-assignment adds only the tour edit.
``DeltaCache.run`` accepts the moves, and leaves out the operators that need
more drones at one stop than the fleet has.

The scans that move customers between stops skip a target stop on its
slack, the room its idlest drone has below its wait, before costing the
move (see ``DeltaCache``); a skipped target never gains. ``local_search``
exports, and evaluates, only an optimum that beats the incumbent it is
given, read from the cache in ``evaluate``'s order of additions. Together
they cut a GRASP iteration by 7.6% on the truck-only comparison grid and
5.5% on the criterion-8 shape (``BENCH_27.json``).

Scan order inside every operator is fixed (tour position, then customer
index, then drone index), so the search is deterministic given its input.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_right, insort
from collections import defaultdict

from .model import Instance, Solution, TimeMatrices, Variant, evaluate

IMPROVE_EPS = 1e-9

# the slack of a stop that takes no more customers: no trip gets under it
FULL = float("-inf")

SINGLE_TRIP_OPERATORS = (
    "relocate_truck_node",
    "swap_truck_node",
    "two_opt",
    "swap_assignment1",
    "re_assignment1",
)

MULTI_TRIP_OPERATORS = (
    "relocate_truck_node",
    "swap_truck_node",
    "two_opt",
    "relocate_drone_assignment1",
    "swap_drone_assignment1",
    "relocate_drone_assignment2",
    "swap_drone_assignment2",
    "triangle_drone_assignment",
    "greedy_repack",
    "re_assignment1",
    "re_assignment2",
    "swap_assignment1",
    "zigzag_assignment",
)

# distinct drones at one stop without which an operator has no move
DRONES_NEEDED = {
    "relocate_drone_assignment1": 2, "swap_drone_assignment1": 2,
    "relocate_drone_assignment2": 2, "swap_drone_assignment2": 2,
    "triangle_drone_assignment": 3, "greedy_repack": 2, "zigzag_assignment": 2,
}


# Truck-tour moves, shared with the truck-only baseline. ``tour[0]`` is the
# depot and stays first. Each makes the first move that shortens the closed
# tour by more than ``eps``, in place, and returns its (negative) change or None.


def relocate_segment(tour, t, seg, eps) -> float | None:
    """Move a segment of ``seg`` consecutive nodes to another tour position."""
    n = len(tour)
    for a in range(1, n - seg + 1):
        chunk = tour[a:a + seg]
        first, t_last = chunk[0], t[chunk[-1]]
        rest = tour[:a] + tour[a + seg:]
        p, q = tour[a - 1], tour[(a + seg) % n]
        gain = t[p][q] - t[p][first] - t_last[q]
        r = len(rest)
        t_c = t[rest[0]]  # the row of rest[b - 1]
        for b in range(1, r + 1):
            d = rest[b] if b < r else rest[0]
            delta = gain + t_c[first] + t_last[d] - t_c[d]
            if delta < -eps:
                tour[:] = rest[:b] + chunk + rest[b:]
                return delta
            t_c = t[d]
    return None


def two_opt_move(tour, t, eps) -> float | None:
    """Remove two tour edges and reconnect with the segment between them reversed."""
    n = len(tour)
    for a in range(n - 1):
        A, A1 = tour[a], tour[a + 1]
        base = t[A][A1]
        for b in range(a + 2, n):
            B, B1 = tour[b], tour[(b + 1) % n]
            delta = t[A][B] + t[A1][B1] - base - t[B][B1]
            if delta < -eps:
                tour[a + 1:b + 1] = reversed(tour[a + 1:b + 1])
                return delta
    return None


def state_key(inst: Instance, variant: Variant, tour, assign, drone_of) -> bytes:
    """Pack a search state into bytes: the tour, then each customer's node
    (``assign``), then, in multi-trip only, each customer's drone
    (``drone_of``), both indexed by customer, two bytes an index up to 65,536
    nodes and drones. m is fixed within a run, so the length fixes the tour's.
    A single-trip drone carries at most one nonzero trip, so its label changes
    no load, wait or delta, only where a customer lands, and is left out.
    """
    customers = range(inst.m)
    packed = array("H" if max(inst.n, inst.num_drones) <= 1 << 16 else "L", tour)
    packed.extend(map(assign.__getitem__, customers))
    if variant is Variant.MULTI:
        packed.extend(map(drone_of.__getitem__, customers))
    return packed.tobytes()


def _stop_operator(at_stop):
    """Make a within-stop operator from ``at_stop(cache, i)``, which returns
    the first improving (delta, moves) at stop ``i``, or None. The operator
    makes the first such move over the stops in tour order, returning delta.

    ``at_stop`` reads only stop ``i``'s drones, loads and trips, which change
    only when ``DeltaCache._move`` bumps ``stamp[i]``. So a stop whose stamp
    still equals the one at which the operator last found nothing there
    (``clean[name][i]``) has no improving move, and is skipped. A stop at
    its floor (see ``DeltaCache._at_floor``) has none either, so it is
    marked clean without a scan.
    """
    name = at_stop.__name__

    @functools.wraps(at_stop)
    def operator(self) -> float | None:
        clean, stamp = self.clean[name], self.stamp
        for i in self.tour[1:]:
            if clean[i] == stamp[i]:
                continue
            if not self._at_floor(i):
                found = at_stop(self, i)
                if found is not None:
                    return self._commit(*found)
            clean[i] = stamp[i]
        return None

    return operator


class DeltaCache:
    """Mutable search state with the caches needed for constant-time deltas.

    Per customer, in lists indexed by customer: its node (``assign``) and
    its drone there (``drone_of``). Per node, in lists indexed by node: its
    customers (``cust_at``), the customers on each drone (``drones``), each
    drone's load (``loads``), the largest load (``wait``), the second-largest
    (``second``, counted with multiplicity, 0.0 with one drone) and the
    smallest (``min_load``). A node outside the tour holds empty lists and
    0.0, so a move onto it is costed like a move onto a visited node.
    A node holds at most ``cap`` customers: u in single-trip mode, every
    customer in multi-trip mode. Unvisited nodes get a lazily cached best
    insertion position that is invalidated by any tour change.

    ``_commit`` makes each customer move, a (customer, node, drone) triple;
    re-assignments add only the tour edit. ``stamp[i]`` counts the moves onto
    and off node ``i``; ``clean[name][i]`` is the stamp at which within-stop
    operator ``name`` last found no move at stop ``i`` (see ``_stop_operator``).

    ``slack[i]`` is ``wait[i] - min_load[i]``, what a trip put on node ``i``'s
    idlest drone may take before the wait grows; ``FULL`` at a stop that
    holds ``cap`` customers, and 0.0 off the tour. The cross-stop scans
    (``re_assignment1``, ``re_assignment2``, ``zigzag_assignment``) each find
    the change at the source first, ``-need``, and go on only when it gains
    more than ``IMPROVE_EPS``. They then skip a target ``j`` for customer
    ``k`` on one subtraction and one compare, the slack gate
    ``trip[j][k] - slack[j] >= need``: there ``j``'s wait grows by at least
    ``need`` (``need`` > 0, so the growth is not clamped at 0) and the tour
    does not shrink below the source's change, so the move's delta is at
    least 0, up to rounding. The exact test skips a delta at or above
    ``-IMPROVE_EPS``, so the gate skips no target the exact test takes while
    the rounding stays below ``IMPROVE_EPS``. Both sides are a few sums
    and differences, each rounded by at most 2**-53 of its size, of waits,
    trips and tour changes; with every such value below 1e4 h (instances
    here run a few hours) the two differ by less than 1e-10 h. So every
    decision, and every float, is the one without the gate. On the
    criterion-8 shape and the truck-only comparison grid the gates skip
    94% and 98% of ``re_assignment2``'s targets (``BENCH_27.json``).
    """

    def __init__(self, sol: Solution, inst: Instance, mats: TimeMatrices, on_move=None):
        self.inst = inst
        self.mats = mats
        self.variant = sol.variant
        self.u = u = inst.num_drones
        self.cap = u if sol.variant is Variant.SINGLE else inst.m
        self.on_move = on_move
        self.moves = 0
        self.t = mats.t
        self.trip = mats.trip
        self.reach = mats.reach

        n, customers = inst.n, range(inst.m)
        self.tour = list(sol.tour)
        self.assign = list(map(sol.assign.__getitem__, customers))
        self.cust_at: list[list[int]] = [[] for _ in range(n)]
        for k, i in enumerate(self.assign):
            self.cust_at[i].append(k)
        if sol.variant is Variant.SINGLE:
            # each customer of a stop flies its own drone, whatever labels sol holds
            self.drone_of = [0] * inst.m
            for custs in self.cust_at:
                for l, k in enumerate(custs):
                    self.drone_of[k] = l
        else:
            self.drone_of = list(map(sol.drone_of.__getitem__, customers))

        self.drones = [[[] for _ in range(u)] for _ in range(n)]
        self.loads = [[0.0] * u for _ in range(n)]
        self.wait = [0.0] * n
        self.second = [0.0] * n
        self.min_load = [0.0] * n
        self.slack = [0.0] * n
        drone_of, trip = self.drone_of, self.trip
        for i in self.tour:
            row, drones, loads = trip[i], self.drones[i], self.loads[i]
            for k in self.cust_at[i]:  # ascending, from 0.0: the order of every later load sum
                l = drone_of[k]
                drones[l].append(k)
                loads[l] += row[k]
            self._refresh_node(i)
        self.stamp = [0] * n
        self.clean = defaultdict(lambda: [-1] * n)
        self._position: dict[int, int] = {}
        self._ins_cache: dict[int, tuple[float, int]] = {}
        self._bump_tour()

    # --- bookkeeping ---------------------------------------------------------

    def _bump_tour(self):
        self._position = {node: idx for idx, node in enumerate(self.tour)}
        self._ins_cache.clear()

    def _refresh_node(self, i):
        """Re-rank node ``i``'s drone loads after some of them changed."""
        ranked = sorted(self.loads[i])
        self.wait[i] = wait = ranked[-1]
        self.second[i] = ranked[-2] if self.u > 1 else 0.0
        self.min_load[i] = least = ranked[0]
        self.slack[i] = wait - least if len(self.cust_at[i]) < self.cap else FULL

    def _at_floor(self, i) -> bool:
        """Whether stop ``i`` waits only for its longest trip. Every load is
        a sum from 0.0 of non-negative trips, so none is below a trip it
        holds, and the wait is never below the longest trip: it is at that
        floor exactly when it equals one of the stop's trips. There any
        split of the stop's customers over its drones leaves the wait where
        it is or longer, so no within-stop move shortens it (a delta's
        rounding is far below ``IMPROVE_EPS``)."""
        trip, wait = self.trip[i], self.wait[i]
        for k in self.cust_at[i]:  # a plain loop: `max` or `in map` cost 3-7x as much
            if trip[k] == wait:
                return True
        return False

    def _idlest(self, i) -> int:
        """The first of node ``i``'s least-loaded drones."""
        return self.loads[i].index(self.min_load[i])

    def best_insertion(self, j) -> tuple[float, int]:
        """Cheapest position to splice unvisited node ``j`` into the tour."""
        hit = self._ins_cache.get(j)
        if hit is not None:
            return hit
        t = self.t
        tour = self.tour
        best_cost, best_pos = float("inf"), 1
        for a in range(len(tour)):
            p = tour[a]
            q = tour[a + 1] if a + 1 < len(tour) else 0
            cost = t[p][j] + t[j][q] - t[p][q]
            if cost < best_cost - 1e-15:
                best_cost, best_pos = cost, a + 1
        best_cost = max(best_cost, 0.0)
        self._ins_cache[j] = best_cost, best_pos
        return best_cost, best_pos

    def _accept(self, name, delta):
        self.moves += 1
        if self.on_move is not None:
            self.on_move(name, delta)

    # --- shared node mutations -------------------------------------------------

    def _remove_node_tour_delta(self, i) -> float:
        pos = self._position[i]
        p = self.tour[pos - 1]
        q = self.tour[pos + 1] if pos + 1 < len(self.tour) else 0
        t = self.t
        return t[p][q] - t[p][i] - t[i][q]

    def _move(self, k, i, l):
        """Put customer ``k`` on drone ``l`` of node ``i`` and return its old
        node. Both drones' loads are re-summed in customer order and both
        nodes' stamps bumped; the nodes' ranks wait for ``_refresh_node``."""
        h, g, trip = self.assign[k], self.drone_of[k], self.trip
        mine = self.drones[h][g]
        mine.remove(k)
        self.loads[h][g] = sum(map(trip[h].__getitem__, mine), 0.0)
        if h != i:
            self.cust_at[h].remove(k)
            insort(self.cust_at[i], k)
            self.assign[k] = i
        self.drone_of[k] = l
        self.stamp[h] += 1
        self.stamp[i] += 1
        mine = self.drones[i][l]
        insort(mine, k)
        self.loads[i][l] = sum(map(trip[i].__getitem__, mine), 0.0)
        return h

    def _commit(self, delta, moves) -> float:
        """Make ``moves``, each (customer, node, drone), in order, re-rank
        every node they touch and return ``delta``."""
        touched = set()
        for k, i, l in moves:
            touched.add(self._move(k, i, l))
            touched.add(i)
        for i in touched:
            self._refresh_node(i)
        return delta

    def _leave_delta(self, i, k) -> float:
        """Wait change at node ``i`` when customer ``k`` leaves and the others stay.

        Every move that takes ``k`` away from ``i`` changes ``i``'s wait by at
        least this much, however it refills the node. When ``k`` flies from a
        busiest drone, the wait becomes the larger of the second-largest load
        and that drone's load without ``k``.
        """
        load = self.loads[i][self.drone_of[k]]
        wait = self.wait[i]
        if load < wait:
            return 0.0  # a busier drone keeps the wait
        rest = load - self.trip[i][k]
        second = self.second[i]
        return (second if second > rest else rest) - wait

    def _replace_delta(self, i, k_out, k_in):
        """Wait change at node ``i`` and the drone for ``k_in`` when ``k_in``
        replaces ``k_out`` there, on the least-loaded drone once ``k_out`` left."""
        loads = list(self.loads[i])
        loads[self.drone_of[k_out]] -= self.trip[i][k_out]
        l_in = loads.index(min(loads))
        loads[l_in] += self.trip[i][k_in]
        return max(loads) - self.wait[i], l_in

    # --- truck-tour operators ----------------------------------------------------

    def _tour_moved(self, delta) -> float | None:
        """Record a tour move that returned ``delta``, or nothing for None."""
        if delta is not None:
            self._bump_tour()
        return delta

    def relocate_truck_node(self) -> float | None:
        """Move one visited node to a different tour position."""
        return self._tour_moved(relocate_segment(self.tour, self.t, 1, IMPROVE_EPS))

    def swap_truck_node(self) -> float | None:
        """Exchange the tour positions of two visited nodes."""
        t = self.t
        tour = self.tour
        L = len(tour)
        for a in range(1, L - 1):
            x = tour[a]
            p = tour[a - 1]
            qa = tour[a + 1]
            for b in range(a + 1, L):
                y = tour[b]
                qb = tour[b + 1] if b + 1 < L else 0
                if b == a + 1:
                    delta = t[p][y] + t[x][qb] - t[p][x] - t[y][qb]
                else:
                    pb = tour[b - 1]
                    delta = (
                        t[p][y] + t[y][qa] - t[p][x] - t[x][qa]
                        + t[pb][x] + t[x][qb] - t[pb][y] - t[y][qb]
                    )
                if delta < -IMPROVE_EPS:
                    tour[a], tour[b] = y, x
                    return self._tour_moved(delta)
        return None

    def two_opt(self) -> float | None:
        """Remove two tour edges and reconnect with the segment reversed."""
        return self._tour_moved(two_opt_move(self.tour, self.t, IMPROVE_EPS))

    # --- customer re-assignment (both variants) -----------------------------------

    def swap_assignment1(self) -> float | None:
        """Exchange the serving nodes of two customers."""
        reach = self.reach
        m = self.inst.m
        assign = self.assign
        w_sets = self.mats.w_sets
        trip = self.trip
        wait = self.wait
        leave: list[float | None] = [None] * m
        for k1 in range(m):
            i1 = assign[k1]
            near = w_sets[i1]  # the customers i1 can serve, ascending
            for k2 in near[bisect_right(near, k1):]:
                i2 = assign[k2]
                if i1 == i2 or not reach[i2][k1]:
                    continue
                # each node's wait changes by at least its leave delta, and ends
                # at least as long as the incoming trip; exactly by the larger
                # of the two when no drone carries two nonzero trips, as in
                # single-trip mode
                if leave[k1] is None:
                    leave[k1] = self._leave_delta(i1, k1)
                if leave[k2] is None:
                    leave[k2] = self._leave_delta(i2, k2)
                low1, fill1 = leave[k1], trip[i1][k2] - wait[i1]
                if fill1 > low1:
                    low1 = fill1
                low2, fill2 = leave[k2], trip[i2][k1] - wait[i2]
                if fill2 > low2:
                    low2 = fill2
                if low1 + low2 >= -IMPROVE_EPS:
                    continue
                d1, l1 = self._replace_delta(i1, k1, k2)
                d2, l2 = self._replace_delta(i2, k2, k1)
                delta = d1 + d2
                if delta < -IMPROVE_EPS:
                    return self._commit(delta, ((k2, i1, l1), (k1, i2, l2)))
        return None

    def re_assignment1(self) -> float | None:
        """Move one customer to another node; insert or drop stops as needed."""
        trip = self.trip
        wait = self.wait
        min_load = self.min_load
        slack = self.slack
        cust_at = self.cust_at
        serve = self.mats.v_serve
        for k in range(self.inst.m):
            i = self.assign[k]
            drop = len(cust_at[i]) == 1
            if drop:
                rem = -wait[i]
                rem_tour = self._remove_node_tour_delta(i)
            else:
                rem = self._leave_delta(i, k)
                rem_tour = 0.0
            need = -(rem + rem_tour)
            if need <= IMPROVE_EPS:
                continue  # the target node's wait and the tour can only grow
            for j in serve[k]:
                if trip[j][k] - slack[j] >= need or j == i:
                    continue  # the slack gate (see the class docstring); full stops too
                grow = min_load[j] + trip[j][k] - wait[j]
                add = grow if grow > 0.0 else 0.0
                delta = rem + add + rem_tour
                if delta >= -IMPROVE_EPS:
                    continue  # the whole change onto a visited j; an insertion only adds
                if j not in self._position:
                    delta = rem + add + self._insertion_tour_delta(j, i, drop)
                    if delta >= -IMPROVE_EPS:
                        continue
                return self._apply_re_assignment(delta, i, j, ((k, j, self._idlest(j)),))
        return None

    def re_assignment2(self) -> float | None:
        """Move two customers of one node together to another node (multi-trip)."""
        trip, wait, reach, slack = self.trip, self.wait, self.reach, self.slack
        cust_at, serve = self.cust_at, self.mats.v_serve
        for i in self.tour[1:]:
            custs = cust_at[i]
            if len(custs) < 2:
                continue
            drop = len(custs) == 2
            loads_i, wait_i = self.loads[i], wait[i]
            for a in range(len(custs)):
                k1 = custs[a]
                for b in range(a + 1, len(custs)):
                    k2 = custs[b]
                    if drop:
                        rem = -wait_i
                        rem_tour = self._remove_node_tour_delta(i)
                    else:
                        l1, l2 = self.drone_of[k1], self.drone_of[k2]
                        if loads_i[l1] < wait_i and loads_i[l2] < wait_i:
                            continue  # a busiest drone keeps the wait, so rem >= 0
                        rem = self._node_delta(i, ((l1, -trip[i][k1]), (l2, -trip[i][k2])))
                        rem_tour = 0.0
                    need = -(rem + rem_tour)
                    if need <= IMPROVE_EPS:
                        continue  # the growth at the target node is never negative
                    for j in serve[k1]:
                        # the slack gate on each trip (see the class docstring)
                        tj1 = trip[j][k1]
                        if tj1 - slack[j] >= need or j == i or not reach[j][k2]:
                            continue
                        tj2 = trip[j][k2]
                        if tj2 - slack[j] >= need:
                            continue
                        loads = list(self.loads[j])
                        lj1 = loads.index(min(loads))
                        loads[lj1] += tj1
                        lj2 = loads.index(min(loads))
                        loads[lj2] += tj2
                        # never negative: the loads only grew from a copy whose maximum is wait[j]
                        grow = max(loads) - wait[j]
                        if j in self._position:
                            tour_delta = rem_tour
                        else:
                            tour_delta = self._insertion_tour_delta(j, i, drop)
                        delta = rem + grow + tour_delta
                        if delta < -IMPROVE_EPS:
                            return self._apply_re_assignment(delta, i, j, ((k1, j, lj1), (k2, j, lj2)))
        return None

    def _insertion_tour_delta(self, j, i, drop) -> float:
        """Travel change from splicing unvisited ``j`` in at its best insertion,
        and dropping ``i`` when ``drop``; never below the change from the drop
        alone, as insertion costs are clamped at zero."""
        ins, ins_pos = self.best_insertion(j)
        if not drop:
            return ins
        tour = self.tour
        pos = self._position[i]
        if ins_pos == pos or ins_pos == pos + 1:
            # next to i: j takes its place between its neighbours
            a = tour[pos - 1]
            b = tour[pos + 1] if pos + 1 < len(tour) else 0
            ins = self.t[a][j] + self.t[j][b] - self.t[a][b]
            ins = ins if ins > 0.0 else 0.0
        return ins + self._remove_node_tour_delta(i)

    def _apply_re_assignment(self, delta, i, j, moves) -> float:
        """Make ``moves``, each (customer of stop ``i``, ``j``, drone), through
        ``_commit``, splice ``j`` in at its best insertion if it is off the
        tour and drop ``i`` if it is left empty; return ``delta``."""
        self._commit(delta, moves)
        spliced = j not in self._position
        if spliced:
            self.tour.insert(self.best_insertion(j)[1], j)
        dropped = not self.cust_at[i]
        if dropped:
            self.tour.remove(i)
        if spliced or dropped:
            self._bump_tour()
        return delta

    # --- multi-trip drone operators -----------------------------------------------
    #
    # A stop's wait is the load of its busiest drone. A move that touches only
    # drones below that load leaves the wait as it is, so the scans skip
    # candidates whose drones all carry less than the wait.

    def _node_delta(self, i, changes) -> float:
        loads = list(self.loads[i])
        for l, dv in changes:
            loads[l] += dv
        return max(loads) - self.wait[i]

    @_stop_operator
    def relocate_drone_assignment1(self, i):
        """Hand one customer to a different drone at the same stop."""
        trip = self.trip[i]
        loads, wait = self.loads[i], self.wait[i]
        for k in self.cust_at[i]:
            l = self.drone_of[k]
            if loads[l] < wait:
                continue
            for l2 in range(self.u):
                if l2 == l:
                    continue
                delta = self._node_delta(i, ((l, -trip[k]), (l2, trip[k])))
                if delta < -IMPROVE_EPS:
                    return delta, ((k, i, l2),)
        return None

    @_stop_operator
    def swap_drone_assignment1(self, i):
        """Exchange the drones of two customers at the same stop."""
        trip = self.trip[i]
        loads, wait = self.loads[i], self.wait[i]
        custs = self.cust_at[i]
        for a in range(len(custs)):
            k1 = custs[a]
            l1 = self.drone_of[k1]
            low = loads[l1] < wait
            for b in range(a + 1, len(custs)):
                k2 = custs[b]
                l2 = self.drone_of[k2]
                if l1 == l2 or low and loads[l2] < wait:
                    continue
                dv = trip[k2] - trip[k1]
                delta = self._node_delta(i, ((l1, dv), (l2, -dv)))
                if delta < -IMPROVE_EPS:
                    return delta, ((k1, i, l2), (k2, i, l1))
        return None

    @_stop_operator
    def relocate_drone_assignment2(self, i):
        """Hand two customers of one drone to a different drone at the same stop."""
        trip = self.trip[i]
        loads, wait = self.loads[i], self.wait[i]
        for l in range(self.u):
            if loads[l] < wait:
                continue
            mine = self.drones[i][l]
            for a in range(len(mine)):
                for b in range(a + 1, len(mine)):
                    k1, k2 = mine[a], mine[b]
                    pair = trip[k1] + trip[k2]
                    for l2 in range(self.u):
                        if l2 == l:
                            continue
                        delta = self._node_delta(i, ((l, -pair), (l2, pair)))
                        if delta < -IMPROVE_EPS:
                            return delta, ((k1, i, l2), (k2, i, l2))
        return None

    @_stop_operator
    def swap_drone_assignment2(self, i):
        """Trade two same-drone customers against one customer of another drone."""
        trip = self.trip[i]
        loads, wait = self.loads[i], self.wait[i]
        drones = self.drones[i]
        for l in range(self.u):
            mine = drones[l]
            if len(mine) < 2:
                continue
            low = loads[l] < wait
            for a in range(len(mine)):
                for b in range(a + 1, len(mine)):
                    k1, k2 = mine[a], mine[b]
                    pair = trip[k1] + trip[k2]
                    for l2 in range(self.u):
                        if l2 == l or low and loads[l2] < wait:
                            continue
                        for k3 in drones[l2]:
                            dv = pair - trip[k3]
                            delta = self._node_delta(i, ((l, -dv), (l2, dv)))
                            if delta < -IMPROVE_EPS:
                                return delta, ((k1, i, l2), (k2, i, l2), (k3, i, l))
        return None

    @_stop_operator
    def triangle_drone_assignment(self, i):
        """Rotate three customers around three different drones at one stop."""
        trip = self.trip[i]
        loads, wait = self.loads[i], self.wait[i]
        drones = self.drones[i]
        busy = [l for l in range(self.u) if drones[l]]
        for a in range(len(busy)):
            for b in range(a + 1, len(busy)):
                for c in range(b + 1, len(busy)):
                    if max(loads[busy[a]], loads[busy[b]], loads[busy[c]]) < wait:
                        continue
                    for l1, l2, l3 in ((busy[a], busy[b], busy[c]), (busy[a], busy[c], busy[b])):
                        for k1 in drones[l1]:
                            for k2 in drones[l2]:
                                for k3 in drones[l3]:
                                    delta = self._node_delta(
                                        i,
                                        (
                                            (l1, trip[k2] - trip[k1]),
                                            (l2, trip[k3] - trip[k2]),
                                            (l3, trip[k1] - trip[k3]),
                                        ),
                                    )
                                    if delta < -IMPROVE_EPS:
                                        return delta, ((k2, i, l1), (k3, i, l2), (k1, i, l3))
        return None

    @_stop_operator
    def greedy_repack(self, i):
        """Re-pack one stop: shortest trips first, each onto the idlest drone."""
        trip = self.trip[i]
        order = sorted(self.cust_at[i], key=lambda k: (trip[k], k))
        loads = [0.0] * self.u
        moves = []
        for k in order:
            l = loads.index(min(loads))
            moves.append((k, i, l))
            loads[l] += trip[k]
        new_wait = max(loads)
        if new_wait < self.wait[i] - IMPROVE_EPS:
            return new_wait - self.wait[i], moves
        return None

    def zigzag_assignment(self) -> float | None:
        """Move a customer to another stop while a stop-mate takes over its drone."""
        trips, reach, slack = self.trip, self.reach, self.slack
        for i in self.tour[1:]:
            trip = trips[i]
            custs = self.cust_at[i]
            if len(custs) < 2:
                continue
            loads, wait = self.loads[i], self.wait[i]
            for k in custs:
                l = self.drone_of[k]
                for k2 in custs:
                    l2 = self.drone_of[k2]
                    if l2 == l:
                        continue  # k itself, or a mate on its drone
                    if loads[l] < wait and loads[l2] < wait:
                        continue  # a busiest drone keeps the wait, so di >= 0
                    di = self._node_delta(
                        i, ((l, trip[k2] - trip[k]), (l2, -trip[k2]))
                    )
                    if di >= -IMPROVE_EPS:
                        continue  # the target's wait never drops, so di must pay
                    need = -di
                    for i2 in self.tour[1:]:
                        tk = trips[i2][k]
                        if tk - slack[i2] >= need or i2 == i or not reach[i2][k]:
                            continue  # the slack gate (see the class docstring)
                        dj = self.min_load[i2] + tk - self.wait[i2]
                        if dj < 0.0:
                            dj = 0.0
                        delta = di + dj
                        if delta < -IMPROVE_EPS:
                            moves = ((k2, i, l), (k, i2, self._idlest(i2)))
                            return self._commit(delta, moves)
        return None

    # --- orchestration --------------------------------------------------------------

    def run(self, seen=None) -> bool:
        """Apply every operator in its fixed order until none improves.

        Operators that need more drones at one stop than the fleet has
        (``DRONES_NEEDED``) cannot move and are left out. Each other one is
        called until it returns None; each delta it returns is one move, which
        is accepted here. As only accepted moves change the state, an operator
        is skipped until a move has been accepted since it last found nothing.

        So a round's moves depend only on the state at its start. With
        ``seen`` (see ``local_search``), every round after the first looks its
        start state up there first, stops on a hit and returns False, and
        adds it otherwise. True means the search ended at a local optimum.
        """
        names = SINGLE_TRIP_OPERATORS if self.variant is Variant.SINGLE else MULTI_TRIP_OPERATORS
        operators = [(name, getattr(self, name)) for name in names
                     if DRONES_NEEDED.get(name, 1) <= self.u]
        settled = [-1] * len(operators)  # self.moves when each operator last found nothing
        while True:
            improved = False
            for idx, (name, op) in enumerate(operators):
                if settled[idx] == self.moves:
                    continue
                while (delta := op()) is not None:
                    self._accept(name, delta)
                    improved = True
                settled[idx] = self.moves
            if not improved:
                return True
            if seen is not None:
                key = state_key(self.inst, self.variant, self.tour, self.assign, self.drone_of)
                if key in seen:
                    return False
                seen.add(key)

    def objective(self) -> float:
        """The completion time of the current state, summed in ``evaluate``'s
        order, so that it equals the exported solution's ``objective``."""
        t, wait, tour = self.t, self.wait, self.tour
        clock = 0.0
        prev = tour[0]
        for i in tour[1:]:
            clock += wait[prev] + t[prev][i]
            prev = i
        return clock + wait[prev] + t[prev][0]

    def export_solution(self) -> Solution:
        sol = Solution(
            variant=self.variant,
            tour=list(self.tour),
            assign=dict(enumerate(self.assign)),
            drone_of=dict(enumerate(self.drone_of)) if self.variant is Variant.MULTI else None,
        )
        evaluate(sol, self.inst, self.mats)
        return sol


def local_search(
    sol: Solution, inst: Instance, mats: TimeMatrices, on_move=None, seen=None, best=None
) -> Solution | None:
    """Improve ``sol`` to a combined fixpoint of all operators for its variant.

    ``seen`` holds the states (``state_key``) that earlier searches of a run
    passed. A search that starts, or starts a round (see ``DeltaCache.run``),
    at one of them would end at that search's optimum, so it stops and
    returns None, before any cache is built for a visited start. Each state
    looked up and not found is added.

    ``best`` is the incumbent, an evaluated solution. An optimum whose
    objective is not strictly below ``best.objective`` is not exported or
    evaluated: ``best`` itself is returned.
    """
    if seen is not None:
        key = state_key(inst, sol.variant, sol.tour, sol.assign, sol.drone_of)
        if key in seen:
            return None
        seen.add(key)
    cache = DeltaCache(sol, inst, mats, on_move=on_move)
    if not cache.run(seen):
        return None
    if best is not None and not cache.objective() < best.objective:
        return best
    return cache.export_solution()
