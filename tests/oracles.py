"""Independent oracles for the solver code.

Brute-force enumeration only, no shared solver code, plus three reference
implementations: the array-based construction that the incremental one in
``twoecho.construct`` must reproduce draw for draw, the cost of one
serving choice that its roulette weights must invert, and the tour pricing
whose tie-breaks ``twoecho.exact`` must keep. ``coherence_errors`` checks a
local-search cache, and the stops it skips, against a from-scratch
recomputation.
"""

import itertools

import numpy as np

_PACK_MEMO = {}


def brute_pack_makespan(trips, drones):
    """Min-max drone workload by enumerating every drone choice per trip."""
    trips = tuple(sorted(trips))
    if not trips:
        return 0.0
    key = (trips, drones)
    if key in _PACK_MEMO:
        return _PACK_MEMO[key]
    best = float("inf")
    for lanes in itertools.product(range(drones), repeat=len(trips)):
        loads = [0.0] * drones
        for t, l in zip(trips, lanes):
            loads[l] += t
        span = max(loads)
        if span < best:
            best = span
    _PACK_MEMO[key] = best
    return best


def brute_force_optimum(inst, mats, variant):
    """Global optimum by subsets x permutations x assignments x packings."""
    from twoecho import Variant

    n, m, u = inst.n, inst.m, inst.num_drones
    t, trip = mats.t, mats.trip
    serve = mats.v_serve
    multi = variant is Variant.MULTI
    best = float("inf")
    if m == 0:
        return 0.0
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n), size):
            sset = set(subset)
            cand = [[i for i in serve[k] if i in sset] for k in range(m)]
            if any(not c for c in cand):
                continue
            if not multi and m > u * size:
                continue
            tour_cost = min(
                sum(t[a][b] for a, b in zip((0,) + perm, perm + (0,)))
                for perm in itertools.permutations(subset)
            )
            for choice in itertools.product(*cand):
                if not sset.issubset(choice):
                    continue
                if not multi:
                    counts = {}
                    for i in choice:
                        counts[i] = counts.get(i, 0) + 1
                    if max(counts.values()) > u:
                        continue
                total_wait = 0.0
                for i in sset:
                    trips = [trip[i][k] for k in range(m) if choice[k] == i]
                    if multi:
                        total_wait += brute_pack_makespan(trips, u)
                    else:
                        total_wait += max(trips)
                obj = tour_cost + total_wait
                if obj < best:
                    best = obj
    return best


def brute_u_min(serve_sets):
    """Smallest worst-case node load over every complete assignment."""
    best = None
    for choice in itertools.product(*serve_sets):
        counts = {}
        for i in choice:
            counts[i] = counts.get(i, 0) + 1
        load = max(counts.values())
        if best is None or load < best:
            best = load
    return best


def brute_tsp_hours(points, speed):
    """Closed-tour minimum over all permutations, Manhattan metric."""
    n = len(points)
    if n == 1:
        return 0.0
    dist = [
        [(abs(a[0] - b[0]) + abs(a[1] - b[1])) / speed for b in points] for a in points
    ]
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        cost = sum(dist[a][b] for a, b in zip((0,) + perm, perm + (0,)))
        if cost < best:
            best = cost
    return best


# Reference tour pricing: the push-style Held-Karp with a parent table that
# ``twoecho.exact`` used before it read tours back from the cost table alone.
# Its tie-breaks are the ones the solver must keep.


def _held_karp_paths(t, n):
    """dp[mask][b] = min time for depot -> ... -> node (b+1) visiting exactly mask."""
    m = n - 1
    full = 1 << m
    inf = float("inf")
    dp = [[inf] * m for _ in range(full)]
    parent = [[-1] * m for _ in range(full)]
    for b in range(m):
        dp[1 << b][b] = t[0][b + 1]
    for mask in range(1, full):
        row = dp[mask]
        rest = (full - 1) & ~mask
        for b in range(m):
            if not (mask >> b) & 1:
                continue
            cur = row[b]
            if cur == inf:
                continue
            trow = t[b + 1]
            sub = rest
            while sub:
                nb_bit = sub & -sub
                sub ^= nb_bit
                nb = nb_bit.bit_length() - 1
                cand = cur + trow[nb + 1]
                nm = mask | nb_bit
                if cand < dp[nm][nb]:
                    dp[nm][nb] = cand
                    parent[nm][nb] = b
    return dp, parent


def _closed_tour(dp, parent, t, mask):
    """Best closed tour over subset ``mask`` of non-depot nodes; returns (cost, tour)."""
    best = float("inf")
    last = -1
    row = dp[mask]
    sub = mask
    while sub:
        bit = sub & -sub
        sub ^= bit
        b = bit.bit_length() - 1
        cand = row[b] + t[b + 1][0]
        if cand < best:
            best = cand
            last = b
    order = []
    cur, m = last, mask
    while cur != -1:
        order.append(cur + 1)
        nxt = parent[m][cur]
        m ^= 1 << cur
        cur = nxt
    order.reverse()
    return best, [0] + order


def reference_closed_tour(t, mask):
    """(cost, tour) of the reference pricing for subset ``mask`` of ``t``'s non-depot nodes."""
    dp, parent = _held_karp_paths(t, len(t))
    return _closed_tour(dp, parent, t, mask)


def lp_constraint_count(inst, mats, variant, literal_eq13=False):
    """Closed-form constraint tally for the exported completion-time models."""
    from twoecho import Variant

    n, m, u = inst.n, inst.m, inst.num_drones
    k_total = sum(len(mats.w_sets[i]) for i in range(1, n))
    nonempty = sum(1 for i in range(1, n) if mats.w_sets[i])
    count = 1  # depot departure
    count += 1 if n > 1 else 0  # no return to depot
    count += 2  # enter and leave the depot copy
    count += 2 * (n - 1)  # indegree and flow conservation
    count += n * n - n + 1  # arrival-time propagation
    count += n - 1  # unvisited nodes settle at arrival 0
    if variant is Variant.SINGLE:
        count += k_total  # launch only at visited nodes
        count += n - 1  # visited nodes must serve someone
        count += m  # each customer served once
        count += nonempty  # fleet size cap
        count += n if literal_eq13 else k_total  # waits
    else:
        count += u * k_total
        count += n - 1
        count += m
        count += u * nonempty
    return count


def lp_umin_constraint_count(inst, mats):
    n, m = inst.n, inst.m
    nonempty = sum(1 for i in range(1, n) if mats.w_sets[i])
    return m + nonempty


def count_lp_constraints(text):
    """Number of constraint rows in an LP file (lines with a name between
    'Subject To' and 'Bounds')."""
    lines = text.splitlines()
    start = lines.index("Subject To") + 1
    stop = lines.index("Bounds")
    return sum(1 for line in lines[start:stop] if ":" in line)


def reference_construct(inst, mats, variant, rng):
    """Randomized construction, recomputing every cost matrix each round.

    Returns the evaluated solution or raises ``ConstructionFailed`` after the
    same random draws as ``twoecho.construct_solution``. Each round makes
    three roulette choices, each by a cumulative sum over index order: an
    insertion arc per unvisited node (only after the tour changed), a
    serving node per pending customer, and the customer to commit.
    """
    from twoecho import ConstructionFailed, Variant, evaluate
    from twoecho.construct import EPSILON
    from twoecho.model import Solution

    n, m, u = inst.n, inst.m, inst.num_drones
    single = variant is Variant.SINGLE
    t, trip = np.asarray(mats.t), np.asarray(mats.trip)
    launch_ok = np.array(mats.reach, dtype=bool)
    launch_ok[0, :] = False
    tour = [0]
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    wait = np.zeros(n)
    count = np.zeros(n, dtype=int)
    loads = np.zeros((n, u))
    assign, drone_of = {}, {}
    unserved = np.ones(m, dtype=bool)
    step_pos = np.zeros(n, dtype=int)
    step_ic = np.zeros(n)
    tour_dirty = True
    while unserved.any():
        unvis = np.flatnonzero(~visited)
        if tour_dirty and unvis.size:
            arr = np.asarray(tour)
            nxt = np.append(arr[1:], 0)
            costs = np.maximum(
                t[unvis[:, None], arr[None, :]] + t[unvis[:, None], nxt[None, :]]
                - t[arr, nxt][None, :],
                0.0,
            )
            cum = np.cumsum(1.0 / (costs + EPSILON), axis=1)
            r = cum[:, -1] * (1.0 - rng.random(unvis.size))
            arc = (cum < r[:, None]).sum(axis=1)
            step_pos[unvis] = arc + 1
            step_ic[unvis] = costs[np.arange(unvis.size), arc]
        tour_dirty = False

        pending = np.flatnonzero(unserved)
        ft = 0.0 if single else loads.min(axis=1)[:, None]
        cost = np.maximum(ft + trip[:, pending] - wait[:, None], 0.0)
        cost += np.where(visited, 0.0, step_ic)[:, None]
        mask = launch_ok[:, pending].copy()
        if single:
            mask[visited & (count >= u), :] = False
        weights = np.where(mask, 1.0 / (cost + EPSILON), 0.0)
        cum = np.cumsum(weights, axis=0)
        total = cum[-1, :]
        if np.any(total <= 0.0):
            raise ConstructionFailed("no serving node left")
        r = total * (1.0 - rng.random(pending.size))
        nodes = (cum < r[None, :]).sum(axis=0)
        cum3 = np.cumsum(1.0 / (cost[nodes, np.arange(pending.size)] + EPSILON))
        j = int((cum3 < cum3[-1] * (1.0 - rng.random())).sum())
        k, i = int(pending[j]), int(nodes[j])

        if not visited[i]:
            tour.insert(int(step_pos[i]), i)
            visited[i] = True
            tour_dirty = True
        if single:
            count[i] += 1
            wait[i] = max(wait[i], trip[i, k])
        else:
            lane = int(np.argmin(loads[i]))
            loads[i, lane] += trip[i, k]
            wait[i] = max(wait[i], loads[i, lane])
            drone_of[k] = lane
        assign[k] = i
        unserved[k] = False

    sol = Solution(variant, tour, assign, drone_of if not single else None)
    evaluate(sol, inst, mats)
    return sol


def assignment_cost(k, i, state, variant):
    """Cost of serving customer ``k`` from node ``i`` in a
    ``twoecho.construct.ConstructionState`` built for ``variant``: the wait
    increase at ``i``, plus the node's chosen insertion cost when the truck
    does not stop there yet."""
    from twoecho import Variant

    trip = state.mats.trip[i][k]
    wait = max(state.loads[i])
    if variant is Variant.SINGLE:
        delta = max(trip - wait, 0.0)
    else:
        delta = max(min(state.loads[i]) + trip - wait, 0.0)
    if not state.visited[i]:
        delta += state._arc_cost[i][state.step_pos[i] - 1]
    return delta


def coherence_errors(cache):
    """Compare every cache of a ``DeltaCache`` against a from-scratch recomputation.

    The waits are also checked against :func:`twoecho.evaluate`, whose stop
    waits are the per-variant reference. Every node off the tour must hold
    exactly zero state, as moves onto it are costed from that state. A stop
    that a within-stop operator has marked clean at its current stamp must
    have no move of that operator in a fresh cache of the exported solution.
    """
    errors = []
    if cache._position != {node: idx for idx, node in enumerate(cache.tour)}:
        errors.append("position map stale")
    for i in cache.tour:
        custs = cache.cust_at[i]
        if len(custs) > cache.cap:
            errors.append(f"node {i} holds {len(custs)} customers, cap {cache.cap}")
        drones = cache.drones[i]
        on_drones = sorted(k for l, dr in enumerate(drones) for k in dr if cache.drone_of[k] == l)
        if on_drones != custs or any(dr != sorted(dr) for dr in drones):
            errors.append(f"drone lists stale at node {i}")
        loads = [sum(cache.trip[i][k] for k in dr) for dr in drones]
        if any(abs(a - b) > 1e-9 for a, b in zip(cache.loads[i], loads)):
            errors.append(f"load stale at node {i}")
        ranked = sorted(loads)
        exact = (ranked[-1], ranked[-2] if cache.u > 1 else 0.0, ranked[0])
        cached = (cache.wait[i], cache.second[i], cache.min_load[i])
        if any(abs(a - b) > 1e-9 for a, b in zip(cached, exact)):
            errors.append(f"wait, second or least load stale at node {i}")
    for i in sorted(set(range(cache.inst.n)) - set(cache.tour)):
        held = (cache.wait[i], cache.second[i], cache.min_load[i], *cache.loads[i])
        if cache.cust_at[i] or any(cache.drones[i]) or any(v != 0.0 for v in held):
            errors.append(f"node {i} is off the tour but holds state")
    if not errors:
        sol = cache.export_solution()
        errors += [f"wait at node {i} differs from evaluate" for i in cache.tour
                   if abs(cache.wait[i] - sol.waits[i]) > 1e-9]
        fresh = type(cache)(sol, cache.inst, cache.mats)
        for name, clean in cache.clean.items():
            at_stop = getattr(type(cache), name).at_stop
            errors += [f"{name} marked stop {i} clean but has a move there" for i in cache.tour[1:]
                       if clean[i] == cache.stamp[i] and at_stop(fresh, i) is not None]
    return errors
