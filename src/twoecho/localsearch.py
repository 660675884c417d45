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


class DeltaCache:
    """Mutable search state with the caches needed for constant-time deltas.

    Per visited node: the customers on each drone (``drones``), each
    drone's load (``loads``), the largest load (``wait``), the
    second-largest (``second``, counted with multiplicity, 0.0 with one
    drone) and the smallest (``min_load``).
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

        self.tour = list(sol.tour)
        self.assign = dict(sol.assign)
        self.cust_at: dict[int, list[int]] = {i: [] for i in self.tour}
        for k in sorted(self.assign):
            self.cust_at[self.assign[k]].append(k)
        if sol.drone_of is None:
            # a single-trip start: each customer of a stop flies its own drone
            self.drone_of = {k: l for custs in self.cust_at.values() for l, k in enumerate(custs)}
        else:
            self.drone_of = dict(sol.drone_of)

        self.drones: dict[int, list[list[int]]] = {}
        self.loads: dict[int, list[float]] = {}
        self.wait: dict[int, float] = {}
        self.second: dict[int, float] = {}
        self.min_load: dict[int, float] = {}
        drone_of, trip = self.drone_of, self.trip
        for i, custs in self.cust_at.items():
            row = trip[i]
            drones = self.drones[i] = [[] for _ in range(u)]
            loads = self.loads[i] = [0.0] * u
            for k in custs:  # ascending, from 0.0: the order of every later load sum
                l = drone_of[k]
                drones[l].append(k)
                loads[l] += row[k]
            self._refresh_node(i)
        self.travel_time = self._legs_sum(self.tour)
        self._position: dict[int, int] = {}
        self._tour_version = 0
        self._ins_cache: dict[int, tuple[int, float, int]] = {}
        self._bump_tour()

    # --- bookkeeping ---------------------------------------------------------

    def _legs_sum(self, tour) -> float:
        t = self.t
        total = 0.0
        prev = tour[0]
        for i in tour[1:]:
            total += t[prev][i]
            prev = i
        return total + t[prev][0]

    def _bump_tour(self):
        self._tour_version += 1
        self._position = {node: idx for idx, node in enumerate(self.tour)}

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
        if hit is not None and hit[0] == self._tour_version:
            return hit[1], hit[2]
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
        self._ins_cache[j] = (self._tour_version, best_cost, best_pos)
        return best_cost, best_pos

    def _accept(self, name, delta):
        self.moves += 1
        if self.on_move is not None:
            self.on_move(name, delta)

    # --- shared node mutations -------------------------------------------------

    def _insert_node(self, j, pos):
        self.tour.insert(pos, j)
        self.cust_at[j] = []
        self.drones[j] = [[] for _ in range(self.u)]
        self.loads[j] = [0.0] * self.u
        self.wait[j] = self.second[j] = self.min_load[j] = 0.0
        self._bump_tour()

    def _drop_node(self, i):
        self.tour.remove(i)
        del self.cust_at[i], self.drones[i], self.loads[i], self.wait[i]
        del self.second[i], self.min_load[i]
        self._bump_tour()

    def _remove_node_tour_delta(self, i) -> float:
        pos = self._position[i]
        p = self.tour[pos - 1]
        q = self.tour[pos + 1] if pos + 1 < len(self.tour) else 0
        t = self.t
        return t[p][q] - t[p][i] - t[i][q]

    def _remove_customer(self, k):
        """Take ``k`` off its node and drone; the node's ranks wait for a refresh."""
        i = self.assign.pop(k)
        self.cust_at[i].remove(k)
        l = self.drone_of.pop(k)
        mine = self.drones[i][l]
        mine.remove(k)
        self.loads[i][l] = sum(map(self.trip[i].__getitem__, mine), 0.0)
        return i

    def _add_customer(self, k, i, l):
        """Put ``k`` on drone ``l`` of node ``i``; the node's ranks wait for a refresh."""
        self.assign[k] = i
        insort(self.cust_at[i], k)
        self.drone_of[k] = l
        mine = self.drones[i][l]
        insort(mine, k)
        self.loads[i][l] = sum(map(self.trip[i].__getitem__, mine), 0.0)

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

    def relocate_truck_node(self) -> bool:
        """Move one visited node to a different tour position."""
        t = self.t
        tour = self.tour
        L = len(tour)
        if L < 3:
            return False
        for a in range(1, L):
            x = tour[a]
            p = tour[a - 1]
            q = tour[a + 1] if a + 1 < L else 0
            gain = t[p][q] - t[p][x] - t[x][q]
            rest = tour[:a] + tour[a + 1:]
            for b in range(1, len(rest) + 1):
                c = rest[b - 1]
                nx = rest[b] if b < len(rest) else 0
                delta = gain + t[c][x] + t[x][nx] - t[c][nx]
                if delta < -IMPROVE_EPS:
                    self.tour = rest[:b] + [x] + rest[b:]
                    self.travel_time += delta
                    self._bump_tour()
                    self._accept("relocate_truck_node", delta)
                    return True
        return False

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
                    self.travel_time += delta
                    self._bump_tour()
                    self._accept("swap_truck_node", delta)
                    return True
        return False

    def two_opt(self) -> bool:
        """Remove two tour edges and reconnect with the segment reversed."""
        t = self.t
        tour = self.tour
        L = len(tour)
        for a in range(L - 1):
            A = tour[a]
            A1 = tour[a + 1]
            base = t[A][A1]
            for b in range(a + 2, L):
                B = tour[b]
                B1 = tour[b + 1] if b + 1 < L else 0
                delta = t[A][B] + t[A1][B1] - base - t[B][B1]
                if delta < -IMPROVE_EPS:
                    tour[a + 1:b + 1] = reversed(tour[a + 1:b + 1])
                    self.travel_time += delta
                    self._bump_tour()
                    self._accept("two_opt", delta)
                    return True
        return False

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
                    self._remove_customer(k1)
                    self._remove_customer(k2)
                    self._add_customer(k2, i1, l1)
                    self._add_customer(k1, i2, l2)
                    self._refresh_node(i1)
                    self._refresh_node(i2)
                    self._accept("swap_assignment1", delta)
                    return True
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
                if j == i:
                    continue
                here = cust_at.get(j)
                if here is not None:
                    if len(here) >= cap:
                        continue
                    grow = min_load[j] + trip[j][k] - wait[j]
                    add = grow if grow > 0.0 else 0.0
                    delta = rem + add + rem_tour
                    if delta < -IMPROVE_EPS:
                        self._apply_re_assignment(i, j, (k,), True, drop, rem_tour)
                        self._accept("re_assignment1", delta)
                        return True
                else:
                    if rem + trip[j][k] + rem_tour >= -IMPROVE_EPS:
                        continue  # the insertion adds to the tour change of the drop
                    ins_cost, ins_pos = self.best_insertion(j)
                    if drop:
                        tour_delta = self._composite_tour_delta(j, ins_pos, i)
                    else:
                        tour_delta = ins_cost
                    delta = rem + trip[j][k] + tour_delta
                    if delta < -IMPROVE_EPS:
                        self._apply_re_assignment(i, j, (k,), False, drop, tour_delta)
                        self._accept("re_assignment1", delta)
                        return True
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
                        visited = j in cust_at
                        if visited:
                            # growth is at least the bigger trip on the idlest drone
                            lb = self.min_load[j] + (tj1 if tj1 > tj2 else tj2) - wait[j]
                        else:
                            lb = tj1 if tj1 > tj2 else tj2
                        if lb < 0.0:
                            lb = 0.0
                        # the tour change is never below rem_tour
                        if rem + lb + rem_tour >= -IMPROVE_EPS:
                            continue
                        loads = list(self.loads[j]) if visited else [0.0] * self.u
                        before = wait[j] if visited else 0.0
                        l = loads.index(min(loads))
                        loads[l] += tj1
                        l = loads.index(min(loads))
                        loads[l] += tj2
                        grow = max(loads) - before
                        add = grow if grow > 0.0 else 0.0
                        if visited:
                            tour_delta = rem_tour
                        elif drop:
                            _, ins_pos = self.best_insertion(j)
                            tour_delta = self._composite_tour_delta(j, ins_pos, i)
                        else:
                            tour_delta = self.best_insertion(j)[0]
                        delta = rem + add + tour_delta
                        if delta < -IMPROVE_EPS:
                            self._apply_re_assignment(i, j, (k1, k2), visited, drop, tour_delta)
                            self._accept("re_assignment2", delta)
                            return True
        return False

    def _apply_re_assignment(self, i, j, ks, visited, drop, tour_delta):
        if not visited:
            _, pos = self.best_insertion(j)
            self._insert_node(j, pos)
        for k in ks:
            self._remove_customer(k)
            self._add_customer(k, j, self._idlest(j))
            self._refresh_node(j)
        if drop:
            self._drop_node(i)
        else:
            self._refresh_node(i)
        self.travel_time += tour_delta

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

    def _move_drones(self, i, moves):
        """Each move is (customer, new_drone) within node ``i``."""
        drones = self.drones[i]
        touched = set()
        for k, l in moves:
            old = self.drone_of[k]
            drones[old].remove(k)
            insort(drones[l], k)
            self.drone_of[k] = l
            touched.update((old, l))
        row, loads = self.trip[i], self.loads[i]
        for l in touched:
            loads[l] = sum(map(row.__getitem__, drones[l]), 0.0)
        self._refresh_node(i)

    def _apply_drone_moves(self, i, moves, name, delta):
        self._move_drones(i, moves)
        self._accept(name, delta)

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
                        self._apply_drone_moves(i, [(k, l2)], "relocate_drone_assignment1", delta)
                        return True
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
                        self._apply_drone_moves(i, [(k1, l2), (k2, l1)], "swap_drone_assignment1", delta)
                        return True
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
                                self._apply_drone_moves(
                                    i, [(k1, l2), (k2, l2)], "relocate_drone_assignment2", delta
                                )
                                return True
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
                                    self._apply_drone_moves(
                                        i,
                                        [(k1, l2), (k2, l2), (k3, l)],
                                        "swap_drone_assignment2",
                                        delta,
                                    )
                                    return True
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
                                            self._apply_drone_moves(
                                                i,
                                                [(k2, l1), (k3, l2), (k1, l3)],
                                                "triangle_drone_assignment",
                                                delta,
                                            )
                                            return True
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
                delta = new_wait - self.wait[i]
                self._apply_drone_moves(
                    i, [(k, l) for k, l in placement.items()], "greedy_repack", delta
                )
                return True
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
                            self._move_drones(i, [(k2, l)])
                            self._remove_customer(k)
                            self._add_customer(k, i2, self._idlest(i2))
                            self._refresh_node(i)
                            self._refresh_node(i2)
                            self._accept("zigzag_assignment", delta)
                            return True
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
