"""First-improvement local search over truck tours and customer assignments.

Both variants share one stop model. Every visited node keeps its customers
on each of its u drones, each drone's load (the sum of its round trips),
and the largest (the stop's wait), second-largest and smallest loads. A
single-trip stop is a multi-trip stop that holds at most u customers: a
customer joining a stop goes onto its least-loaded drone, so below u
customers it lands on a drone with no other nonzero trip, and the wait, the
longest flight, is the largest load in the same floating-point value.

Operators compute their move's objective change from these per-node loads
and from edge times for tour changes, so a candidate is costed without
re-evaluating the whole solution. Any accepted move strictly improves the
objective by more than ``IMPROVE_EPS``.

Scan order inside every operator is fixed (tour position, then customer
index, then drone index), so the search is deterministic given its input.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from .model import Instance, Solution, TimeMatrices, Variant, evaluate

IMPROVE_EPS = 1e-9

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


class DeltaCache:
    """Mutable search state with the caches needed for constant-time deltas.

    Per node, in lists indexed by node: its customers (``cust_at``), the
    customers on each drone (``drones``), each drone's load (``loads``), the
    largest load (``wait``), the second-largest (``second``, counted with
    multiplicity, 0.0 with one drone) and the smallest (``min_load``). A node
    outside the tour holds empty lists and 0.0, so a move onto it is costed
    like a move onto a visited node.
    A node holds at most ``cap`` customers: u in single-trip mode, every
    customer in multi-trip mode. Unvisited nodes get a lazily cached best
    insertion position that is invalidated by any tour change.
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

        n = inst.n
        self.tour = list(sol.tour)
        self.assign = dict(sol.assign)
        self.cust_at: list[list[int]] = [[] for _ in range(n)]
        for k in sorted(self.assign):
            self.cust_at[self.assign[k]].append(k)
        if sol.drone_of is None:
            # a single-trip start: each customer of a stop flies its own drone
            self.drone_of = {k: l for custs in self.cust_at for l, k in enumerate(custs)}
        else:
            self.drone_of = dict(sol.drone_of)

        self.drones = [[[] for _ in range(u)] for _ in range(n)]
        self.loads = [[0.0] * u for _ in range(n)]
        self.wait = [0.0] * n
        self.second = [0.0] * n
        self.min_load = [0.0] * n
        drone_of, trip = self.drone_of, self.trip
        for i in self.tour:
            row, drones, loads = trip[i], self.drones[i], self.loads[i]
            for k in self.cust_at[i]:  # ascending, from 0.0: the order of every later load sum
                l = drone_of[k]
                drones[l].append(k)
                loads[l] += row[k]
            self._refresh_node(i)
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
        self.wait[i] = ranked[-1]
        self.second[i] = ranked[-2] if self.u > 1 else 0.0
        self.min_load[i] = ranked[0]

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
        node. Both drones' loads are re-summed in customer order; the nodes'
        ranks wait for ``_refresh_node``."""
        h, g, trip = self.assign[k], self.drone_of[k], self.trip
        mine = self.drones[h][g]
        mine.remove(k)
        self.loads[h][g] = sum(map(trip[h].__getitem__, mine), 0.0)
        if h != i:
            self.cust_at[h].remove(k)
            insort(self.cust_at[i], k)
            self.assign[k] = i
        self.drone_of[k] = l
        mine = self.drones[i][l]
        insort(mine, k)
        self.loads[i][l] = sum(map(trip[i].__getitem__, mine), 0.0)
        return h

    def _commit(self, name, delta, moves) -> bool:
        """Make ``moves``, each (customer, node, drone), in order, re-rank
        every node they touch and count the move."""
        touched = set()
        for k, i, l in moves:
            touched.add(self._move(k, i, l))
            touched.add(i)
        for i in touched:
            self._refresh_node(i)
        self._accept(name, delta)
        return True

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

    def _tour_moved(self, name, delta) -> bool:
        """Record a tour move that returned ``delta``, or nothing for None."""
        if delta is None:
            return False
        self._bump_tour()
        self._accept(name, delta)
        return True

    def relocate_truck_node(self) -> bool:
        """Move one visited node to a different tour position."""
        return self._tour_moved(
            "relocate_truck_node", relocate_segment(self.tour, self.t, 1, IMPROVE_EPS)
        )

    def swap_truck_node(self) -> bool:
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
                    return self._tour_moved("swap_truck_node", delta)
        return False

    def two_opt(self) -> bool:
        """Remove two tour edges and reconnect with the segment reversed."""
        return self._tour_moved("two_opt", two_opt_move(self.tour, self.t, IMPROVE_EPS))

    # --- customer re-assignment (both variants) -----------------------------------

    def swap_assignment1(self) -> bool:
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
                    return self._commit("swap_assignment1", delta, ((k2, i1, l1), (k1, i2, l2)))
        return False

    def _composite_tour_delta(self, insert_j, ins_pos, drop_i) -> float:
        """Travel change from splicing ``insert_j`` in at tour position
        ``ins_pos`` and dropping ``drop_i``, from the edges next to both.

        Never below the change from the drop alone, as insertion costs are
        clamped at zero.
        """
        tour = self.tour
        pos = self._position[drop_i]
        if ins_pos == pos or ins_pos == pos + 1:
            # next to drop_i: insert_j takes its place between its neighbours
            a = tour[pos - 1]
            b = tour[pos + 1] if pos + 1 < len(tour) else 0
        else:
            a = tour[ins_pos - 1]
            b = tour[ins_pos] if ins_pos < len(tour) else 0
        t = self.t
        ins = t[a][insert_j] + t[insert_j][b] - t[a][b]
        return (ins if ins > 0.0 else 0.0) + self._remove_node_tour_delta(drop_i)

    def re_assignment1(self) -> bool:
        """Move one customer to another node; insert or drop stops as needed."""
        cap = self.cap
        trip = self.trip
        wait = self.wait
        min_load = self.min_load
        cust_at = self.cust_at
        serve = self.mats.v_serve
        for k in range(self.inst.m):
            i = self.assign[k]
            drop = len(cust_at[i]) == 1
            if drop:
                rem = -wait[i]
                rem_tour = self._remove_node_tour_delta(i)
            else:
                rem_tour = 0.0
                rem = self._leave_delta(i, k)
                if rem >= -IMPROVE_EPS:
                    continue  # the target node's wait and the tour can only grow
            for j in serve[k]:
                if j == i or len(cust_at[j]) >= cap:
                    continue
                grow = min_load[j] + trip[j][k] - wait[j]
                add = grow if grow > 0.0 else 0.0
                delta = rem + add + rem_tour
                if delta >= -IMPROVE_EPS:
                    continue  # the whole change onto a visited j; an insertion only adds
                if j not in self._position:
                    delta = rem + add + self._insertion_tour_delta(j, i, drop)
                    if delta >= -IMPROVE_EPS:
                        continue
                return self._apply_re_assignment("re_assignment1", delta, i, j, (k,))
        return False

    def re_assignment2(self) -> bool:
        """Move two customers of one node together to another node (multi-trip)."""
        trip = self.trip
        wait = self.wait
        reach = self.reach
        cust_at = self.cust_at
        serve = self.mats.v_serve
        for i in self.tour[1:]:
            custs = cust_at[i]
            if len(custs) < 2:
                continue
            drop = len(custs) == 2
            for a in range(len(custs)):
                k1 = custs[a]
                for b in range(a + 1, len(custs)):
                    k2 = custs[b]
                    if drop:
                        rem = -wait[i]
                        rem_tour = self._remove_node_tour_delta(i)
                    else:
                        drone_of = self.drone_of
                        rem = self._node_delta(
                            i, ((drone_of[k1], -trip[i][k1]), (drone_of[k2], -trip[i][k2]))
                        )
                        rem_tour = 0.0
                    if rem + rem_tour >= -IMPROVE_EPS:
                        continue  # the growth at the target node is never negative
                    for j in serve[k1]:
                        if j == i or not reach[j][k2]:
                            continue
                        tj1 = trip[j][k1]
                        tj2 = trip[j][k2]
                        # growth is at least the bigger trip on the idlest drone
                        lb = self.min_load[j] + (tj1 if tj1 > tj2 else tj2) - wait[j]
                        if lb < 0.0:
                            lb = 0.0
                        # the tour change is never below rem_tour
                        if rem + lb + rem_tour >= -IMPROVE_EPS:
                            continue
                        loads = list(self.loads[j])
                        l = loads.index(min(loads))
                        loads[l] += tj1
                        l = loads.index(min(loads))
                        loads[l] += tj2
                        grow = max(loads) - wait[j]
                        add = grow if grow > 0.0 else 0.0
                        if j in self._position:
                            tour_delta = rem_tour
                        else:
                            tour_delta = self._insertion_tour_delta(j, i, drop)
                        delta = rem + add + tour_delta
                        if delta < -IMPROVE_EPS:
                            ks = (k1, k2)
                            return self._apply_re_assignment("re_assignment2", delta, i, j, ks)
        return False

    def _insertion_tour_delta(self, j, i, drop) -> float:
        """Travel change from splicing unvisited ``j`` into the tour, and
        dropping ``i`` when ``drop``."""
        ins_cost, ins_pos = self.best_insertion(j)
        return self._composite_tour_delta(j, ins_pos, i) if drop else ins_cost

    def _apply_re_assignment(self, name, delta, i, j, ks) -> bool:
        """Move customers ``ks`` from stop ``i`` to node ``j``, each onto its
        idlest drone, splicing ``j`` in at its best insertion and dropping
        ``i`` once it is empty; then count the move."""
        for k in ks:
            self._move(k, j, self._idlest(j))
            self._refresh_node(j)
        self._refresh_node(i)
        spliced = j not in self._position
        if spliced:
            self.tour.insert(self.best_insertion(j)[1], j)
        dropped = not self.cust_at[i]
        if dropped:
            self.tour.remove(i)
        if spliced or dropped:
            self._bump_tour()
        self._accept(name, delta)
        return True

    # --- multi-trip drone operators -----------------------------------------------
    #
    # A stop's wait is the load of its busiest drone. Taking customers off a
    # drone below that load cannot lower the wait, so the relocation scans
    # skip such drones.

    def _node_delta(self, i, changes) -> float:
        loads = list(self.loads[i])
        for l, dv in changes:
            loads[l] += dv
        return max(loads) - self.wait[i]

    def relocate_drone_assignment1(self) -> bool:
        """Hand one customer to a different drone at the same stop."""
        for i in self.tour[1:]:
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
                        return self._commit("relocate_drone_assignment1", delta, ((k, i, l2),))
        return False

    def swap_drone_assignment1(self) -> bool:
        """Exchange the drones of two customers at the same stop."""
        for i in self.tour[1:]:
            trip = self.trip[i]
            custs = self.cust_at[i]
            for a in range(len(custs)):
                k1 = custs[a]
                l1 = self.drone_of[k1]
                for b in range(a + 1, len(custs)):
                    k2 = custs[b]
                    l2 = self.drone_of[k2]
                    if l1 == l2:
                        continue
                    dv = trip[k2] - trip[k1]
                    delta = self._node_delta(i, ((l1, dv), (l2, -dv)))
                    if delta < -IMPROVE_EPS:
                        moves = ((k1, i, l2), (k2, i, l1))
                        return self._commit("swap_drone_assignment1", delta, moves)
        return False

    def relocate_drone_assignment2(self) -> bool:
        """Hand two customers of one drone to a different drone at the same stop."""
        for i in self.tour[1:]:
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
                                moves = ((k1, i, l2), (k2, i, l2))
                                return self._commit("relocate_drone_assignment2", delta, moves)
        return False

    def swap_drone_assignment2(self) -> bool:
        """Trade two same-drone customers against one customer of another drone."""
        for i in self.tour[1:]:
            trip = self.trip[i]
            for l in range(self.u):
                mine = self.drones[i][l]
                if len(mine) < 2:
                    continue
                for a in range(len(mine)):
                    for b in range(a + 1, len(mine)):
                        k1, k2 = mine[a], mine[b]
                        pair = trip[k1] + trip[k2]
                        for l2 in range(self.u):
                            if l2 == l:
                                continue
                            for k3 in self.drones[i][l2]:
                                dv = pair - trip[k3]
                                delta = self._node_delta(i, ((l, -dv), (l2, dv)))
                                if delta < -IMPROVE_EPS:
                                    moves = ((k1, i, l2), (k2, i, l2), (k3, i, l))
                                    return self._commit("swap_drone_assignment2", delta, moves)
        return False

    def triangle_drone_assignment(self) -> bool:
        """Rotate three customers around three different drones at one stop."""
        if self.u < 3:
            return False
        for i in self.tour[1:]:
            trip = self.trip[i]
            busy = [l for l in range(self.u) if self.drones[i][l]]
            if len(busy) < 3:
                continue
            for a in range(len(busy)):
                for b in range(a + 1, len(busy)):
                    for c in range(b + 1, len(busy)):
                        for l1, l2, l3 in ((busy[a], busy[b], busy[c]), (busy[a], busy[c], busy[b])):
                            for k1 in self.drones[i][l1]:
                                for k2 in self.drones[i][l2]:
                                    for k3 in self.drones[i][l3]:
                                        delta = self._node_delta(
                                            i,
                                            (
                                                (l1, trip[k2] - trip[k1]),
                                                (l2, trip[k3] - trip[k2]),
                                                (l3, trip[k1] - trip[k3]),
                                            ),
                                        )
                                        if delta < -IMPROVE_EPS:
                                            moves = ((k2, i, l1), (k3, i, l2), (k1, i, l3))
                                            name = "triangle_drone_assignment"
                                            return self._commit(name, delta, moves)
        return False

    def greedy_repack(self) -> bool:
        """Re-pack one stop: shortest trips first, each onto the idlest drone."""
        for i in self.tour[1:]:
            trip = self.trip[i]
            custs = self.cust_at[i]
            if len(custs) < 2:
                continue
            order = sorted(custs, key=lambda k: (trip[k], k))
            loads = [0.0] * self.u
            placement = {}
            for k in order:
                l = loads.index(min(loads))
                placement[k] = l
                loads[l] += trip[k]
            new_wait = max(loads)
            if new_wait < self.wait[i] - IMPROVE_EPS:
                moves = [(k, i, l) for k, l in placement.items()]
                return self._commit("greedy_repack", new_wait - self.wait[i], moves)
        return False

    def zigzag_assignment(self) -> bool:
        """Move a customer to another stop while a stop-mate takes over its drone."""
        reach = self.reach
        for i in self.tour[1:]:
            trip = self.trip[i]
            custs = self.cust_at[i]
            if len(custs) < 2:
                continue
            for k in custs:
                l = self.drone_of[k]
                for k2 in custs:
                    if k2 == k or self.drone_of[k2] == l:
                        continue
                    l2 = self.drone_of[k2]
                    di = self._node_delta(
                        i, ((l, trip[k2] - trip[k]), (l2, -trip[k2]))
                    )
                    if di >= -IMPROVE_EPS:
                        continue  # the target's wait never drops, so di must pay
                    for i2 in self.tour[1:]:
                        if i2 == i or not reach[i2][k]:
                            continue
                        dj = self.min_load[i2] + self.trip[i2][k] - self.wait[i2]
                        if dj < 0.0:
                            dj = 0.0
                        delta = di + dj
                        if delta < -IMPROVE_EPS:
                            moves = ((k2, i, l), (k, i2, self._idlest(i2)))
                            return self._commit("zigzag_assignment", delta, moves)
        return False

    # --- orchestration --------------------------------------------------------------

    def run(self) -> None:
        """Apply every operator in its fixed order until none improves.

        Each operator makes at most one improving move per call and returns
        whether it made one, so it is called until it finds nothing. The
        search state changes only through accepted moves, so an operator is
        not called again until some move has been accepted since its last
        call found nothing.
        """
        names = SINGLE_TRIP_OPERATORS if self.variant is Variant.SINGLE else MULTI_TRIP_OPERATORS
        operators = [getattr(self, name) for name in names]
        settled = [-1] * len(operators)  # self.moves when each operator last found nothing
        improved = True
        while improved:
            improved = False
            for idx, op in enumerate(operators):
                if settled[idx] == self.moves:
                    continue
                while op():
                    improved = True
                settled[idx] = self.moves

    def export_solution(self) -> Solution:
        sol = Solution(
            variant=self.variant,
            tour=list(self.tour),
            assign=dict(self.assign),
            drone_of=dict(self.drone_of) if self.variant is Variant.MULTI else None,
        )
        evaluate(sol, self.inst, self.mats)
        return sol


def local_search(sol: Solution, inst: Instance, mats: TimeMatrices, on_move=None) -> Solution:
    """Improve ``sol`` to a combined fixpoint of all operators for its variant."""
    cache = DeltaCache(sol, inst, mats, on_move=on_move)
    cache.run()
    return cache.export_solution()
