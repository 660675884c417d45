"""Desk-scale exhaustive solver and MILP export in CPLEX LP format.

The exhaustive solver replaces an external MILP solver for small instances:
it enumerates visited-node subsets, prices each subset's best closed tour by
dynamic programming, and searches customer assignments depth-first with
capacity, coverage and bound pruning. Multi-trip stop waits come from exact
minimum-makespan trip packing. The LP writer emits the same models in text
form so any external MILP solver can cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Instance,
    InfeasibleInstanceError,
    Solution,
    TimeMatrices,
    TwoEchoError,
    Variant,
    build_time_matrices,
    evaluate,
    require_launch_sites,
)


class SizeLimitError(TwoEchoError):
    """Instance exceeds the caps that keep exhaustive search tractable."""


class MilpParseError(TwoEchoError):
    """A solver value file could not be turned into a solution."""


@dataclass(frozen=True)
class ExactLimits:
    max_truck_nodes: int = 8
    max_customers: int = 8
    max_drones: int = 4


@dataclass
class SearchProof:
    """Evidence of exhaustion: how much of the space was enumerated."""

    subsets: int
    assignments: int


@dataclass
class ExactResult:
    solution: Solution
    objective: float
    proof: SearchProof


# --- minimum-makespan trip packing --------------------------------------------

# Results kept for the most recent distinct packings. One instance at the
# default limits (8 nodes, 8 customers) asks for at most 7 * 2**8 of them;
# the bound keeps a long-lived process from growing without limit.
PACK_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=PACK_CACHE_SIZE)
def minmax_packing(trips: tuple[float, ...], drones: int) -> tuple[float, tuple[int, ...]]:
    """Exact min-max split of round trips over identical drones.

    ``trips`` must be sorted in descending order; returns the optimal
    makespan and one optimal drone index per trip. Branch and bound with
    identical-machine symmetry breaking (equal loads tried once per level).
    """
    if not trips:
        return 0.0, ()
    if len(trips) <= drones:
        # a drone per trip; the search below may stop at a shared drone
        # within its 1e-12 h tolerance of this optimum
        return trips[0], tuple(range(len(trips)))
    lower = max(trips[0], sum(trips) / drones)
    loads = [0.0] * drones
    assign = [0] * len(trips)
    best_span = float("inf")
    best_assign: tuple[int, ...] = ()
    done = False

    def rec(idx):
        nonlocal best_span, best_assign, done
        if done:
            return
        if idx == len(trips):
            span = max(loads)
            if span < best_span:
                best_span = span
                best_assign = tuple(assign)
                if best_span <= lower + 1e-12:
                    done = True
            return
        seen = set()
        trip = trips[idx]
        for l in range(drones):
            v = loads[l]
            if v in seen:
                continue
            seen.add(v)
            if v + trip >= best_span:
                continue
            loads[l] = v + trip
            assign[idx] = l
            rec(idx + 1)
            loads[l] = v
            if done:
                return

    rec(0)
    return best_span, best_assign


# --- tour pricing ---------------------------------------------------------------


def _popcount_layers(m):
    """Every mask of ``m`` bits grouped by popcount: ``layers[s]`` holds the
    masks with ``s`` bits, in ascending order."""
    count = np.zeros(1 << m, dtype=np.int8)
    for b in range(m):
        count[1 << b : 2 << b] = count[: 1 << b] + 1
    return [np.flatnonzero(count == s) for s in range(m + 1)]


def _held_karp(t, layers):
    """dp[mask, b] = min time for depot -> ... -> node (b+1) visiting exactly mask.

    Held & Karp (1962), one popcount layer at a time, for the masks in
    ``layers`` (see :func:`_popcount_layers`; pass a prefix to stop early).
    Each cell is the minimum of ``dp[mask ^ 1 << j, b] + t[b+1][j+1]`` over
    every b; cells with ``b`` outside ``mask`` stay infinite, so only bits of
    the mask can win and the minimum is over the same sums a scalar loop takes.
    """
    tt = np.asarray(t, dtype=float)
    m = len(tt) - 1
    dp = np.full((1 << m, m), np.inf)
    dp[1 << np.arange(m), np.arange(m)] = tt[0, 1:]
    into = np.ascontiguousarray(tt[1:, 1:].T)  # into[j, b]: b -> j
    for layer in layers[2:]:
        for j in range(m):
            sel = layer[(layer >> j) & 1 == 1]
            dp[sel, j] = (dp[sel ^ (1 << j)] + into[j]).min(axis=1)
    return dp


def _closing(dp, t, masks):
    """Cheapest return to the depot over each subset in ``masks``: (tour
    costs, last bits) as arrays. Ties go to the lowest bit."""
    back = np.array([row[0] for row in t[1:]], dtype=float)
    close = dp[masks] + back
    return close.min(axis=1), close.argmin(axis=1)


def _tour(dp, t, mask, last):
    """The closed tour over ``mask`` that ends at node (last+1), read back from ``dp``.

    Each step back takes the lowest bit whose cell plus the arc equals the
    current cell exactly: ``_held_karp`` took its minimum over the same sums.
    """
    order = [last + 1]
    row = dp[mask].tolist()
    while mask & (mask - 1):
        cost = row[last]
        mask ^= 1 << last
        row = dp[mask].tolist()
        col = last + 1
        last = next(
            b for b in range(len(row)) if (mask >> b) & 1 and row[b] + t[b + 1][col] == cost
        )
        order.append(last + 1)
    order.append(0)
    order.reverse()
    return order


# --- exhaustive search ------------------------------------------------------------


def solve_exact(
    inst: Instance,
    mats: TimeMatrices,
    variant: Variant,
    limits: ExactLimits | None = None,
) -> ExactResult:
    """Provably optimal solution by complete enumeration, for small instances."""
    limits = limits or ExactLimits()
    if (
        inst.n > limits.max_truck_nodes
        or inst.m > limits.max_customers
        or inst.num_drones > limits.max_drones
    ):
        raise SizeLimitError(
            f"instance beyond exhaustive-search caps: n={inst.n} (max {limits.max_truck_nodes}), "
            f"m={inst.m} (max {limits.max_customers}), u={inst.num_drones} (max {limits.max_drones})"
        )
    n, m, u = inst.n, inst.m, inst.num_drones
    multi = variant is Variant.MULTI
    cap = m if multi else u  # customers a stop may serve

    if m == 0:
        sol = Solution(variant, [0], {}, {} if multi else None)
        evaluate(sol, inst, mats)
        return ExactResult(sol, sol.objective, SearchProof(subsets=1, assignments=1))

    require_launch_sites(mats.v_serve)
    serve_bits = [sum(1 << (i - 1) for i in sites) for sites in mats.v_serve]

    trip = mats.trip
    # subsets of more than m stops are skipped below, so their layers stay unfilled
    layers = _popcount_layers(n - 1)[: m + 1]
    dp = _held_karp(mats.t, layers)
    full = 1 << (n - 1)
    close_cost = np.full(full, np.inf)
    close_last = np.zeros(full, dtype=np.intp)
    for layer in layers[1:]:
        close_cost[layer], close_last[layer] = _closing(dp, mats.t, layer)
    close_cost, close_last = close_cost.tolist(), close_last.tolist()
    best_obj = float("inf")
    best_payload = None
    subsets = 0
    leaves = 0
    # search state for every subset: per node its wait and trips, which dfs
    # puts back as it returns, and per customer the stop on the current path
    waits = [0.0] * n
    trips_at: list[list[float]] = [[] for _ in range(n)]
    assigned = [0] * m

    def dfs(pos, empties, total_wait):
        # reads the subset the loop below is at: mask, tour_cost, cands, order
        nonlocal best_obj, best_payload, leaves
        if tour_cost + total_wait >= best_obj:
            return
        if pos == m:
            leaves += 1
            best_obj = tour_cost + total_wait
            best_payload = (mask, list(assigned))
            return
        k = order[pos]
        remaining = m - pos
        for i in cands[k]:
            here = trips_at[i]
            cnt = len(here)
            if cnt >= cap:
                continue
            new_empties = empties - (1 if cnt == 0 else 0)
            if new_empties > remaining - 1:
                continue
            tk = trip[i][k]
            old_wait = waits[i]
            here.append(tk)
            if cnt < u:
                # a drone per flight: the stop waits for its longest flight
                new_wait = old_wait if old_wait >= tk else tk
            else:
                new_wait = minmax_packing(tuple(sorted(here, reverse=True)), u)[0]
            waits[i] = new_wait
            assigned[k] = i
            dfs(pos + 1, new_empties, total_wait + new_wait - old_wait)
            here.pop()
            waits[i] = old_wait

    for mask in range(1, full):
        size = mask.bit_count()
        if size > m or m > cap * size or not all(bits & mask for bits in serve_bits):
            continue
        subsets += 1
        tour_cost = close_cost[mask]
        if tour_cost >= best_obj:
            continue
        # each customer's stops in the subset, ascending; fewest choices first,
        # ties by customer as the sort is stable
        cands = [[i for i in sites if mask >> (i - 1) & 1] for sites in mats.v_serve]
        order = sorted(range(m), key=lambda k: len(cands[k]))
        dfs(0, size, 0.0)

    if best_payload is None:
        raise InfeasibleInstanceError("no feasible assignment exists at this fleet size")

    tour_mask, stops = best_payload
    tour = _tour(dp, mats.t, tour_mask, close_last[tour_mask])
    assignment = dict(enumerate(stops))
    drone_of = None
    if multi:
        drone_of = {}
        by_node: dict[int, list[int]] = {}
        for k, i in assignment.items():
            by_node.setdefault(i, []).append(k)
        for i, ks in by_node.items():
            ks.sort(key=lambda k: (-trip[i][k], k))
            packed = tuple(sorted((trip[i][k] for k in ks), reverse=True))
            _, lanes = minmax_packing(packed, u)
            for k, l in zip(ks, lanes):
                drone_of[k] = l
    sol = Solution(variant, tour, assignment, drone_of)
    evaluate(sol, inst, mats)
    return ExactResult(sol, sol.objective, SearchProof(subsets=subsets, assignments=leaves))


# --- LP-format export ---------------------------------------------------------------


def _t(x: float) -> str:
    return format(x, ".12g")


class _LpWriter:
    def __init__(self, title, objective):
        self.lines = [f"\\ {title}", "Minimize", f" obj: {objective}", "Subject To"]
        self.binaries: list[str] = []
        self.generals: list[str] = []

    def constraint(self, name, terms, op, rhs):
        if not terms:
            return
        parts = []
        for coeff, var in terms:
            if coeff == 1.0:
                parts.append(f"+ {var}")
            elif coeff == -1.0:
                parts.append(f"- {var}")
            elif coeff < 0:
                parts.append(f"- {_t(-coeff)} {var}")
            else:
                parts.append(f"+ {_t(coeff)} {var}")
        body = " ".join(parts)
        if body.startswith("+ "):
            body = body[2:]
        self.lines.append(f" {name}: {body} {op} {_t(rhs)}")

    def render(self, path=None):
        """The model text; also written to ``path`` when one is given."""
        out = list(self.lines)
        out.append("Bounds")
        if self.binaries:
            out.append("Binaries")
            out.extend(f" {v}" for v in self.binaries)
        if self.generals:
            out.append("Generals")
            out.extend(f" {v}" for v in self.generals)
        out.append("End")
        text = "\n".join(out) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        return text


def _assignment_rows(lp, mats, lanes):
    """Serve each customer from one stop on one lane, and declare the ``z`` binaries.

    ``z_{lane}{i}_{k}`` assigns customer k to stop i; the lane prefix is
    empty for single-trip and ``"{l}_"`` for drone l in multi-trip.
    """
    for k in range(len(mats.v_serve)):
        terms = [(1.0, f"z_{lane}{i}_{k}") for lane in lanes for i in mats.v_serve[k]]
        lp.constraint(f"assign_{k}", terms, "=", 1.0)
    w_sets = mats.w_sets
    lp.binaries.extend(
        f"z_{lane}{i}_{k}" for lane in lanes for i in range(1, len(w_sets)) for k in w_sets[i]
    )


def _fleet_rows(lp, w_sets, fleet_terms, rhs):
    """No stop flies more single-trip flights than there are drones: ``rhs``
    drones, or the fleet variable in ``fleet_terms`` with ``rhs`` 0."""
    for i in range(1, len(w_sets)):
        if w_sets[i]:
            terms = [(1.0, f"z_{i}_{k}") for k in w_sets[i]] + fleet_terms
            lp.constraint(f"fleet_{i}", terms, "<=", rhs)


def export_milp(
    inst: Instance,
    mats: TimeMatrices,
    variant: Variant,
    big_m: float,
    path=None,
    literal_eq13: bool = False,
) -> str:
    """Write the completion-time model in CPLEX LP format; returns the text.

    ``big_m`` must dominate every feasible completion time (a heuristic
    bound works). ``literal_eq13`` switches the single-trip wait constraints
    to the summed form for forensic comparison; the default constrains the
    wait per customer, matching the parallel-flight semantics.
    """
    if not 0 < big_m < math.inf:
        raise ValueError("big_m must be a positive, finite upper bound on the objective")
    require_launch_sites(mats.v_serve)
    n, u = inst.n, inst.num_drones
    multi = variant is Variant.MULTI
    lanes = [f"{l}_" for l in range(u)] if multi else [""]  # see _assignment_rows
    t = mats.t
    trip = mats.trip
    w_sets = mats.w_sets
    title = f"two-echelon truck-drone completion time, {variant.value}-trip: {inst.name}"
    lp = _LpWriter(title, f"a_{n}")

    nodes = list(range(n))
    arc_targets = [j for j in range(1, n)] + [n]
    lp.binaries.extend(f"x_{i}_{j}" for i in nodes + [n] for j in nodes + [n] if i != j)
    lp.binaries.extend(f"y_{i}" for i in nodes)

    # depot departure may go straight to the copy so an empty plan stays feasible
    lp.constraint("depart_depot", [(1.0, f"x_0_{j}") for j in arc_targets], "=", 1.0)
    lp.constraint("no_return_depot", [(1.0, f"x_{i}_0") for i in range(1, n)], "=", 0.0)
    lp.constraint("enter_copy", [(1.0, f"x_{i}_{n}") for i in nodes], "=", 1.0)
    lp.constraint("leave_copy", [(1.0, f"x_{n}_{i}") for i in nodes], "=", 0.0)
    for j in range(1, n):
        terms = [(1.0, f"x_{i}_{j}") for i in nodes if i != j]
        terms.append((-1.0, f"y_{j}"))
        lp.constraint(f"indeg_{j}", terms, "=", 0.0)
    for i in range(1, n):
        terms = [(1.0, f"x_{j}_{i}") for j in nodes if j != i]
        terms += [(-1.0, f"x_{i}_{j}") for j in arc_targets if j != i]
        lp.constraint(f"flow_{i}", terms, "=", 0.0)

    for lane in lanes:
        for i in range(1, n):
            for k in w_sets[i]:
                terms = [(1.0, f"z_{lane}{i}_{k}"), (-1.0, f"y_{i}")]
                lp.constraint(f"link_{lane}{i}_{k}", terms, "<=", 0.0)
    for i in range(1, n):
        terms = [(1.0, f"z_{lane}{i}_{k}") for lane in lanes for k in w_sets[i]]
        terms.append((-1.0, f"y_{i}"))
        lp.constraint(f"cover_{i}", terms, ">=", 0.0)
    _assignment_rows(lp, mats, lanes)
    if not multi:
        _fleet_rows(lp, w_sets, [], float(u))

    for i in nodes:
        for j in arc_targets:
            if j == i:
                continue
            tij = t[i][j] if j < n else t[i][0]
            lp.constraint(
                f"time_{i}_{j}",
                [
                    (1.0, f"a_{j}"),
                    (-1.0, f"a_{i}"),
                    (-1.0, f"s_{i}"),
                    (-(tij + big_m), f"x_{i}_{j}"),
                ],
                ">=",
                -big_m,
            )
    for i in range(1, n):
        lp.constraint(f"settle_{i}", [(1.0, f"a_{i}"), (-big_m, f"y_{i}")], "<=", 0.0)

    if not multi:
        if literal_eq13:
            for i in range(n):
                terms = [(1.0, f"s_{i}")]
                terms += [(-trip[i][k], f"z_{i}_{k}") for k in (w_sets[i] if i > 0 else ())]
                lp.constraint(f"wait_{i}", terms, ">=", 0.0)
        else:
            for i in range(1, n):
                for k in w_sets[i]:
                    lp.constraint(
                        f"wait_{i}_{k}",
                        [(1.0, f"s_{i}"), (-trip[i][k], f"z_{i}_{k}")],
                        ">=",
                        0.0,
                    )
    else:
        for i in range(1, n):
            if not w_sets[i]:
                continue
            for l in range(u):
                terms = [(1.0, f"s_{i}")]
                terms += [(-trip[i][k], f"z_{l}_{i}_{k}") for k in w_sets[i]]
                lp.constraint(f"wait_{i}_{l}", terms, ">=", 0.0)

    return lp.render(path)


def export_umin_milp(inst: Instance, mats: TimeMatrices, path=None) -> str:
    """Write the minimum-fleet-size model (integer fleet variable) in LP format."""
    lp = _LpWriter(f"minimum fleet size: {inst.name}", "u")
    _assignment_rows(lp, mats, [""])
    _fleet_rows(lp, mats.w_sets, [(-1.0, "u")], 0.0)
    lp.generals.append("u")
    return lp.render(path)


# --- solver value import -------------------------------------------------------------


# the variables a solver value file may set: (name prefix, number of indices)
_VALUE_NAMES = frozenset({("x", 2), ("y", 1), ("z", 2), ("z", 3), ("a", 1), ("s", 1), ("u", 0)})


def _parse_binary(name: str, value: float) -> int:
    if math.isfinite(value):
        rounded = round(value)
        if rounded in (0, 1) and abs(value - rounded) <= 1e-4:
            return rounded
    raise MilpParseError(f"variable {name} has non-binary value {value}")


def import_milp_solution(
    path,
    inst: Instance,
    mats: TimeMatrices | None = None,
    variant: Variant | None = None,
) -> Solution:
    """Rebuild a solution from a ``name value`` text file of solver variables.

    Lines may also use ``name = value``; ``#`` starts a comment. The arc
    variables must trace a single depot-to-copy path, and the resulting
    solution is validated before being returned.
    """
    if mats is None:
        mats = build_time_matrices(inst)
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.replace("=", " ").split()
            if len(tokens) != 2:
                raise MilpParseError(f"line {lineno}: expected 'name value', got {raw!r}")
            name, text = tokens
            try:
                values[name] = float(text)
            except ValueError as err:
                raise MilpParseError(f"line {lineno}: bad number {text!r} for {name}") from err

    succ: dict[int, int] = {}
    assign: dict[int, int] = {}
    drone_of: dict[int, int] = {}
    saw_multi = False
    saw_single = False
    for name, value in values.items():
        prefix, *fields = name.split("_")
        if (prefix, len(fields)) not in _VALUE_NAMES:
            raise MilpParseError(f"unrecognized variable name {name!r}")
        try:
            index = [int(f) for f in fields]
        except ValueError:
            raise MilpParseError(f"variable {name} has a non-integer index") from None
        if prefix == "z":
            saw_single |= len(index) == 2
            saw_multi |= len(index) == 3
        if prefix in ("a", "s", "u") or not _parse_binary(name, value):
            continue
        if prefix == "x":
            i, j = index
            if i in succ:
                raise MilpParseError(f"node {i} has two outgoing arcs set")
            succ[i] = j
        elif prefix == "z":
            *lane, i, k = index
            if k in assign:
                raise MilpParseError(f"customer {k} has two assignment variables set")
            assign[k] = i
            if lane:
                drone_of[k] = lane[0]

    if variant is None:
        variant = Variant.MULTI if saw_multi and not saw_single else Variant.SINGLE

    tour = [0]
    seen = {0}
    cur = 0
    while True:
        nxt = succ.get(cur)
        if nxt is None:
            raise MilpParseError(f"truck path stops at node {cur} before reaching the depot copy")
        if nxt == inst.n:
            break
        if nxt in seen:
            raise MilpParseError(f"truck arcs revisit node {nxt}")
        tour.append(nxt)
        seen.add(nxt)
        cur = nxt
    extra = [i for i in succ if i not in seen and i != inst.n]
    if extra:
        raise MilpParseError(f"arc variables contain a subtour through nodes {sorted(extra)}")

    sol = Solution(
        variant,
        tour,
        assign,
        drone_of if variant is Variant.MULTI else None,
    )
    evaluate(sol, inst, mats)  # raises InfeasibleSolutionError listing every violation
    return sol
