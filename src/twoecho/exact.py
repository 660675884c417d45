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
import itertools
from dataclasses import dataclass

from .model import (
    Instance,
    InfeasibleInstanceError,
    Solution,
    TimeMatrices,
    TwoEchoError,
    Variant,
    build_time_matrices,
    evaluate,
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
    complete: bool = True


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

    if m == 0:
        sol = Solution(variant, [0], {}, {} if multi else None)
        evaluate(sol, inst, mats)
        return ExactResult(sol, sol.objective, SearchProof(subsets=1, assignments=1))

    serve_bits = []
    for k, sites in enumerate(mats.v_serve):
        if not sites:
            raise InfeasibleInstanceError(
                f"customer {k} has no launch-capable truck node within drone range"
            )
        bits = 0
        for i in sites:
            bits |= 1 << (i - 1)
        serve_bits.append(bits)

    trip = mats.trip
    dp, parent = _held_karp_paths(mats.t, n)
    full = 1 << (n - 1)
    best_obj = float("inf")
    best_payload = None
    subsets = 0
    leaves = 0

    for mask in range(1, full):
        size = mask.bit_count()
        if size > m:
            continue
        if not multi and m > u * size:
            continue
        cand = [serve_bits[k] & mask for k in range(m)]
        if any(c == 0 for c in cand):
            continue
        subsets += 1
        tour_cost, tour = _closed_tour(dp, parent, mats.t, mask)
        if tour_cost >= best_obj:
            continue

        nodes = [b + 1 for b in range(n - 1) if (mask >> b) & 1]
        order = sorted(range(m), key=lambda k: (bin(cand[k]).count("1"), k))
        cand_nodes = [[b + 1 for b in range(n - 1) if (cand[k] >> b) & 1] for k in range(m)]
        counts = {i: 0 for i in nodes}
        waits = {i: 0.0 for i in nodes}
        trips_at: dict[int, list[float]] = {i: [] for i in nodes}
        assigned: dict[int, int] = {}
        empties = len(nodes)
        total_wait = 0.0

        def dfs(pos, empties, total_wait):
            nonlocal best_obj, best_payload, leaves
            if tour_cost + total_wait >= best_obj:
                return
            if pos == m:
                leaves += 1
                best_obj = tour_cost + total_wait
                best_payload = (tour, dict(assigned), {i: tuple(trips_at[i]) for i in nodes})
                return
            k = order[pos]
            remaining = m - pos
            for i in cand_nodes[k]:
                cnt = counts[i]
                if not multi and cnt >= u:
                    continue
                new_empties = empties - (1 if cnt == 0 else 0)
                if new_empties > remaining - 1:
                    continue
                tk = trip[i][k]
                old_wait = waits[i]
                if multi:
                    trips_at[i].append(tk)
                    packed = tuple(sorted(trips_at[i], reverse=True))
                    new_wait = minmax_packing(packed, u)[0]
                else:
                    new_wait = old_wait if old_wait >= tk else tk
                counts[i] = cnt + 1
                waits[i] = new_wait
                assigned[k] = i
                dfs(pos + 1, new_empties, total_wait + new_wait - old_wait)
                if multi:
                    trips_at[i].pop()
                counts[i] = cnt
                waits[i] = old_wait
                del assigned[k]

        dfs(0, empties, total_wait)

    if best_payload is None:
        raise InfeasibleInstanceError("no feasible assignment exists at this fleet size")

    tour, assignment, node_trips = best_payload
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
    sol = Solution(variant, list(tour), assignment, drone_of)
    evaluate(sol, inst, mats)
    return ExactResult(sol, sol.objective, SearchProof(subsets=subsets, assignments=leaves))


# --- LP-format export ---------------------------------------------------------------


def _t(x: float) -> str:
    return format(x, ".12g")


class _LpWriter:
    def __init__(self, title):
        self.lines = [f"\\ {title}", "Minimize"]
        self.binaries: list[str] = []
        self.generals: list[str] = []

    def objective(self, expr):
        self.lines.append(f" obj: {expr}")
        self.lines.append("Subject To")

    def constraint(self, name, terms, op, rhs):
        if not terms:
            return False
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
        return True

    def render(self):
        out = list(self.lines)
        out.append("Bounds")
        if self.binaries:
            out.append("Binaries")
            out.extend(f" {v}" for v in self.binaries)
        if self.generals:
            out.append("Generals")
            out.extend(f" {v}" for v in self.generals)
        out.append("End")
        return "\n".join(out) + "\n"


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
    if big_m <= 0:
        raise ValueError("big_m must be a positive upper bound on the objective")
    for k, sites in enumerate(mats.v_serve):
        if not sites:
            raise InfeasibleInstanceError(
                f"customer {k} has no launch-capable truck node within drone range"
            )
    n, m, u = inst.n, inst.m, inst.num_drones
    multi = variant is Variant.MULTI
    t = mats.t
    trip = mats.trip
    w_sets = mats.w_sets
    lp = _LpWriter(f"two-echelon truck-drone completion time, {variant.value}-trip: {inst.name}")
    lp.objective(f"a_{n}")

    nodes = list(range(n))
    arc_targets = [j for j in range(1, n)] + [n]

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

    if not multi:
        for i in range(1, n):
            for k in w_sets[i]:
                lp.constraint(f"link_{i}_{k}", [(1.0, f"z_{i}_{k}"), (-1.0, f"y_{i}")], "<=", 0.0)
        for i in range(1, n):
            terms = [(1.0, f"z_{i}_{k}") for k in w_sets[i]]
            terms.append((-1.0, f"y_{i}"))
            lp.constraint(f"cover_{i}", terms, ">=", 0.0)
        for k in range(m):
            lp.constraint(
                f"assign_{k}",
                [(1.0, f"z_{i}_{k}") for i in mats.v_serve[k]],
                "=",
                1.0,
            )
        for i in range(1, n):
            if w_sets[i]:
                lp.constraint(
                    f"fleet_{i}", [(1.0, f"z_{i}_{k}") for k in w_sets[i]], "<=", float(u)
                )
    else:
        for l in range(u):
            for i in range(1, n):
                for k in w_sets[i]:
                    lp.constraint(
                        f"link_{l}_{i}_{k}",
                        [(1.0, f"z_{l}_{i}_{k}"), (-1.0, f"y_{i}")],
                        "<=",
                        0.0,
                    )
        for i in range(1, n):
            terms = [(1.0, f"z_{l}_{i}_{k}") for l in range(u) for k in w_sets[i]]
            terms.append((-1.0, f"y_{i}"))
            lp.constraint(f"cover_{i}", terms, ">=", 0.0)
        for k in range(m):
            lp.constraint(
                f"assign_{k}",
                [(1.0, f"z_{l}_{i}_{k}") for l in range(u) for i in mats.v_serve[k]],
                "=",
                1.0,
            )

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

    for i in nodes + [n]:
        for j in nodes + [n]:
            if i != j:
                lp.binaries.append(f"x_{i}_{j}")
    lp.binaries.extend(f"y_{i}" for i in nodes)
    if not multi:
        lp.binaries.extend(f"z_{i}_{k}" for i in range(1, n) for k in w_sets[i])
    else:
        lp.binaries.extend(
            f"z_{l}_{i}_{k}" for l in range(u) for i in range(1, n) for k in w_sets[i]
        )

    text = lp.render()
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def export_umin_milp(inst: Instance, mats: TimeMatrices, path=None) -> str:
    """Write the minimum-fleet-size model (integer fleet variable) in LP format."""
    n, m = inst.n, inst.m
    w_sets = mats.w_sets
    lp = _LpWriter(f"minimum fleet size: {inst.name}")
    lp.objective("u")
    for k in range(m):
        lp.constraint(
            f"assign_{k}", [(1.0, f"z_{i}_{k}") for i in mats.v_serve[k]], "=", 1.0
        )
    for i in range(1, n):
        if not w_sets[i]:
            continue
        terms = [(1.0, f"z_{i}_{k}") for k in w_sets[i]]
        terms.append((-1.0, "u"))
        lp.constraint(f"fleet_{i}", terms, "<=", 0.0)
    lp.binaries.extend(f"z_{i}_{k}" for i in range(1, n) for k in w_sets[i])
    lp.generals.append("u")
    text = lp.render()
    if path is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


# --- solver value import -------------------------------------------------------------


def _parse_binary(name: str, value: float) -> int:
    rounded = round(value)
    if rounded not in (0, 1) or abs(value - rounded) > 1e-4:
        raise MilpParseError(f"variable {name} has non-binary value {value}")
    return int(rounded)


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
        fields = name.split("_")
        if fields[0] == "x" and len(fields) == 3:
            if _parse_binary(name, value):
                i, j = int(fields[1]), int(fields[2])
                if i in succ:
                    raise MilpParseError(f"node {i} has two outgoing arcs set")
                succ[i] = j
        elif fields[0] == "z" and len(fields) == 3:
            saw_single = True
            if _parse_binary(name, value):
                assign[int(fields[2])] = int(fields[1])
        elif fields[0] == "z" and len(fields) == 4:
            saw_multi = True
            if _parse_binary(name, value):
                l, i, k = int(fields[1]), int(fields[2]), int(fields[3])
                assign[k] = i
                drone_of[k] = l
        elif fields[0] == "y" and len(fields) == 2:
            _parse_binary(name, value)
        elif fields[0] in ("a", "s") and len(fields) == 2:
            pass
        elif name == "u":
            pass
        else:
            raise MilpParseError(f"unrecognized variable name {name!r}")

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
