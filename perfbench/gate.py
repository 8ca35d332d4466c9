"""Correctness gate for the records the benchmark's requests print.

Every check here is written without ``probud``: the instance file is
parsed by :func:`parse_raw`, costs are normalized here, budgets are
counted by a meet-in-the-middle sum count, loads are compared with the
Hall cut bound and violation witnesses are re-derived from the ballots.
On top of that, every verdict, budget, count and load must match the
golden file recorded at the parent commit (floats within ``TOL``).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field

TOL = 1e-9
#: Lists longer than this are stored in the golden file as length + digest.
GOLDEN_LIST_LIMIT = 32
_POLICY_KEYS = {
    "lex": lambda inst, c: c,
    "cheapest": lambda inst, c: (inst.cost[c], c),
    "most-approved": lambda inst, c: (-inst.approvers[c].bit_count(), c),
}


class GateError(Exception):
    """A record that fails a correctness check."""


@dataclass(frozen=True)
class RawInstance:
    item_ids: tuple[str, ...]
    cost: tuple[float, ...]  # normalized: the cheapest item costs 1
    limit: float
    voter_ids: tuple[str, ...]
    ballots: tuple[frozenset[int], ...]
    approvers: tuple[int, ...]  # per item, a bitmask over voters
    position: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", {item_id: c for c, item_id in enumerate(self.item_ids)})

    def index(self, item_id: str) -> int:
        try:
            return self.position[item_id]
        except KeyError:
            raise GateError(f"unknown item id {item_id!r}") from None

    def indices(self, ids) -> list[int]:
        out = [self.index(i) for i in ids]
        if any(a >= b for a, b in zip(out, out[1:])):
            raise GateError(f"item list {ids} is not strictly increasing")
        return out

    def weight(self, items) -> float:
        return sum(self.cost[c] for c in items)

    def fits(self, total: float, c: int) -> bool:
        return total + self.cost[c] <= self.limit + TOL


def parse_raw(text: str) -> RawInstance:
    """Parse the ``[meta]`` / ``[items]`` / ``[ballots]`` instance format."""
    section = None
    limit = None
    ids, raw = [], []
    voters, ballots = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]").strip().lower()
        elif section == "meta":
            key, _, value = line.partition("=")
            if key.strip() == "limit":
                limit = float(value)
        elif section == "items":
            item_id, _, cost = (p.strip() for p in line.split(","))
            ids.append(item_id)
            raw.append(float(cost))
        elif section == "ballots":
            parts = [p.strip() for p in line.split(",")]
            voters.append(parts[0])
            ballots.append(frozenset(ids.index(p) for p in parts[1:] if p))
    scale = min(raw)
    approvers = [0] * len(ids)
    for v, ballot in enumerate(ballots):
        for c in ballot:
            approvers[c] |= 1 << v
    return RawInstance(tuple(ids), tuple(c / scale for c in raw), limit / scale,
                       tuple(voters), tuple(ballots), tuple(approvers))


# -- independent references ------------------------------------------------


def _subset_sums(values) -> list[float]:
    sums = [0.0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def count_in_range(values, low: float, high: float) -> int:
    """Number of subsets of ``values`` whose sum s has low < s <= high."""
    half = len(values) // 2
    left = _subset_sums(values[:half])
    right = sorted(_subset_sums(values[half:]))
    return sum(bisect_right(right, high - s) - bisect_right(right, low - s) for s in left)


def count_budgets(inst: RawInstance, exhaustive: bool) -> int:
    """Number of feasible (optionally exhaustive) budgets.

    An exhaustive budget is split by its cheapest missing item ``c`` (in
    ``(cost, index)`` order): it holds every item before ``c`` and is
    exhaustive iff its total plus ``cost[c]`` exceeds the limit.
    """
    bound = inst.limit + TOL
    if not exhaustive:
        return count_in_range(list(inst.cost), float("-inf"), bound)
    order = sorted(range(len(inst.cost)), key=lambda c: (inst.cost[c], c))
    count, prefix = 0, 0.0
    for j, c in enumerate(order):
        rest = [inst.cost[x] for x in order[j + 1:]]
        count += count_in_range(rest, bound - prefix - inst.cost[c], bound - prefix)
        prefix += inst.cost[c]
        if prefix > bound:
            return count
    return count + 1  # every item fits


class CutBound:
    """Hall cut bound max over item sets S of cost(S) / |approvers of S|,
    for a growing selection plus one extra item."""

    def __init__(self, inst: RawInstance):
        self.inst = inst
        self.costs = [0.0]
        self.masks = [0]
        self.best = 0.0

    def with_item(self, c: int) -> float:
        cc, ac = self.inst.cost[c], self.inst.approvers[c]
        if not ac:
            raise GateError(f"item {self.inst.item_ids[c]} has no approver")
        best = self.best
        for w, a in zip(self.costs, self.masks):
            r = (w + cc) / (a | ac).bit_count()
            if r > best:
                best = r
        return best

    def add(self, c: int) -> None:
        self.best = self.with_item(c)
        cc, ac = self.inst.cost[c], self.inst.approvers[c]
        self.costs += [w + cc for w in self.costs]
        self.masks += [a | ac for a in self.masks]


def cut_bound(inst: RawInstance, items) -> float:
    bound = CutBound(inst)
    for c in items:
        bound.add(c)
    return bound.best


# -- per-command checks -----------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= TOL, f"{what}: {a!r} differs from {b!r}")


def _check_budget(inst: RawInstance, ids) -> list[int]:
    """Item indices of a feasible budget."""
    items = inst.indices(ids)
    total = inst.weight(items)
    _require(total <= inst.limit + TOL, f"budget {ids} costs {total} over the limit {inst.limit}")
    return items


def _check_solve(inst: RawInstance, argv, record: dict) -> None:
    rule = argv[argv.index("--rule") + 1]
    items = _check_budget(inst, record["budget"])
    chosen = set(items)
    total = inst.weight(items)
    _close(record["total_cost"], total, "total_cost")
    exhaustive = not any(c not in chosen and inst.fits(total, c) for c in range(len(inst.cost)))
    _require(record["feasible"] is True, "record says infeasible")
    _require(record["exhaustive"] == exhaustive, "exhaustive flag disagrees with the costs")
    if rule != "gpseq":
        _require(exhaustive, f"{rule} budget is not exhaustive")
        return
    filled = inst.indices(record["filled"])
    _require(all(not inst.approvers[c] for c in filled), "filled item has approvers")
    _require(bool(filled) <= ("--fill-unapproved" in argv), "fill without --fill-unapproved")
    approved = [c for c in items if c not in set(filled)]
    _require(not any(c not in chosen and inst.approvers[c] and inst.fits(total - inst.weight(filled), c)
                     for c in range(len(inst.cost))), "an approved item still fits")
    loads = record["max_loads"]
    _require(len(loads) == len(approved), "one max load per approved pick expected")
    _require(all(b >= a - TOL for a, b in zip(loads, loads[1:])), "max loads decrease")
    if loads:
        firsts = [inst.cost[c] / inst.approvers[c].bit_count()
                  for c in range(len(inst.cost)) if inst.approvers[c] and inst.fits(0.0, c)]
        _close(loads[0], min(firsts), "first step load")
        _close(loads[-1], cut_bound(inst, approved), "final step load vs cut bound")
    if record["steps"] is not None:
        tie = argv[argv.index("--tie") + 1] if "--tie" in argv else "lex"
        _check_steps(inst, record["steps"], loads, approved, tie)


def _check_steps(inst: RawInstance, steps, loads, approved, tie: str) -> None:
    _require(len(steps) == len(loads), "one trace step per pick expected")
    bound = CutBound(inst)
    prefix: list[int] = []
    total = 0.0
    for k, step in enumerate(steps):
        cand = {inst.index(c): value for c, value in step["loads"].items()}
        expected = {c for c in range(len(inst.cost))
                    if c not in prefix and inst.approvers[c] and inst.fits(total, c)}
        _require(set(cand) == expected, f"step {k + 1}: wrong candidate set")
        for c, value in cand.items():
            _close(value, bound.with_item(c), f"step {k + 1} load of {inst.item_ids[c]} vs cut bound")
        smallest = min(cand.values())
        ties = sorted(c for c, value in cand.items() if value <= smallest + TOL)
        _require(inst.indices(step["tie_set"]) == ties, f"step {k + 1}: wrong tie set")
        pick = min(ties, key=lambda c: _POLICY_KEYS[tie](inst, c))
        _require(inst.index(step["chosen"]) == pick, f"step {k + 1}: tie policy {tie} not followed")
        _close(loads[k], cand[pick], f"step {k + 1} max load")
        bound.add(pick)
        prefix.append(pick)
        total += inst.cost[pick]
    _require(sorted(prefix) == sorted(approved), "trace picks differ from the budget")


def _check_check(inst: RawInstance, argv, record: dict) -> None:
    axiom = argv[argv.index("--axiom") + 1]
    asked = [t for t in argv[argv.index("--budget") + 1].split(",") if t]
    _require(record["axiom"] == axiom, "wrong axiom in record")
    items = _check_budget(inst, record["budget"])
    _require(record["budget"] == sorted(asked, key=inst.index), "record budget differs from the request")
    witness_keys = [k for k in record if k.startswith("witness_")]
    if record["satisfied"]:
        _require(all(record[k] is None for k in witness_keys), "satisfied verdict with a witness")
        return
    _check_witness(inst, axiom, set(items), record)


def _check_witness(inst: RawInstance, axiom: str, budget: set[int], record: dict) -> None:
    """Re-derive a violation witness from the ballots."""
    family, variant = axiom.rsplit("-", 1)
    voters = [inst.voter_ids.index(v) for v in record["witness_voters"]]
    _require(bool(voters), "empty witness group")
    ballots = [inst.ballots[v] for v in voters]
    common = frozenset.intersection(*ballots)
    union = frozenset.union(*ballots)
    n = len(inst.ballots)
    denom = inst.limit if variant == "l" else inst.weight(budget)
    represented_items = union & budget
    represented = inst.weight(represented_items)
    level = record["witness_level"]
    required = record["witness_required_weight"]
    bundle = set(inst.indices(record["witness_bundle"]))
    _require(set(inst.indices(record["witness_common_items"])) == common, "wrong common items")
    _close(record["witness_represented_weight"], represented, "represented weight")
    _require(bundle <= common, "witness bundle outside the common items")
    _require(represented < required - TOL, "witness inequality does not hold")
    _require(len(voters) >= level * n / denom - TOL, "group too small for its level")
    if family in ("bjr", "strong-bjr"):
        _require(represented <= TOL and len(bundle) == 1, "BJR witness must be an unrepresented group")
        _require(family == "strong-bjr" or abs(inst.cost[min(bundle)] - 1.0) <= TOL,
                 "BJR witness item must cost 1")
        _require(len(voters) >= n / denom - TOL, "BJR group too small")
    elif family == "strong-bpjr":
        _require(level >= 1.0 - TOL and inst.weight(common) >= level - TOL, "bad strong-BPJR level")
        _close(required, level, "strong-BPJR required weight")
    elif family == "bpjr":
        _close(inst.weight(bundle), required, "BPJR bundle weight")
        _require(1.0 - TOL <= required <= min(len(voters) * denom / n, denom) + TOL,
                 "BPJR bundle outside the group's cap")
    else:
        _require(represented_items < bundle, "local-BPJR bundle must extend the representation")
        _close(inst.weight(bundle), level, "local-BPJR bundle weight")
        _close(required, level, "local-BPJR required weight")
        _require(level <= len(voters) * denom / n + TOL, "local-BPJR level above the group's cap")


def _subset_mins(values) -> list[float]:
    mins = [float("inf")]
    for v in values:
        mins += [min(s, v) for s in mins]
    return mins


def _check_budget_list(inst: RawInstance, lists, exhaustive: bool) -> None:
    """Every budget feasible (and exhaustive if asked), in strictly
    increasing order of index tuples.  Subset weights and cheapest missing
    items come from half-set tables, since lists reach 10^5 budgets."""
    cost, m = inst.cost, len(inst.cost)
    half = m // 2
    low = (1 << half) - 1
    low_w, high_w = _subset_sums(cost[:half]), _subset_sums(cost[half:])
    low_min, high_min = _subset_mins(cost[:half]), _subset_mins(cost[half:])
    everything = (1 << m) - 1
    bit = [1 << c for c in range(m)]
    bound = inst.limit + TOL
    previous = None
    for ids in lists:
        items = tuple(map(inst.position.__getitem__, ids))
        mask = sum(map(bit.__getitem__, items))
        if list(items) != sorted(items) or mask.bit_count() != len(items):
            raise GateError(f"budget {ids} is not sorted and duplicate-free")
        if previous is not None and items <= previous:
            raise GateError("budgets not in strictly increasing order")
        total = low_w[mask & low] + high_w[mask >> half]
        if total > bound:
            raise GateError(f"budget {ids} costs {total} over the limit {inst.limit}")
        if exhaustive:
            missing = everything ^ mask
            if total + min(low_min[missing & low], high_min[missing >> half]) <= bound:
                raise GateError(f"budget {ids} is not exhaustive")
        previous = items


def _check_enumerate(inst: RawInstance, argv, record: dict) -> None:
    exhaustive = "--exhaustive" in argv
    _require(record["exhaustive_only"] == exhaustive, "wrong exhaustive_only flag")
    _require(record["count"] == len(record["budgets"]), "count differs from the list")
    _require(record["count"] == count_budgets(inst, exhaustive), "wrong number of budgets")
    _check_budget_list(inst, record["budgets"], exhaustive)


def _check_certify(inst: RawInstance, argv, record: dict) -> None:
    exhaustive = "--exhaustive" in argv
    _require(record["total_feasible"] == count_budgets(inst, exhaustive), "wrong total_feasible")
    _require(record["exists"] == bool(record["satisfying_budgets"]), "exists flag disagrees")
    _check_budget_list(inst, record["satisfying_budgets"], exhaustive)


def _check_verify(inst: RawInstance, argv, record: dict) -> None:
    _require(record["budgets"] == count_budgets(inst, "--all-feasible" not in argv), "wrong budget count")
    _require(record["violations"] == [], "implication lattice violated")


_CHECKS = {
    "solve": _check_solve,
    "check": _check_check,
    "enumerate": _check_enumerate,
    "certify": _check_certify,
    "verify-implications": _check_verify,
}


# -- golden file --------------------------------------------------------------


def project(record: dict) -> dict:
    """The part of a record the golden file keeps: everything but the
    file path, with long lists replaced by their length and digest."""
    out = {}
    for key, value in record.items():
        if key == "file":
            continue
        if isinstance(value, list) and len(value) > GOLDEN_LIST_LIMIT:
            text = json.dumps(value, separators=(",", ":"))
            value = {"len": len(value), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        out[key] = value
    return out


def compare(expected, actual, where: str = "record") -> None:
    """Raise GateError unless ``actual`` equals ``expected``, floats within TOL."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        _require(expected is actual, f"{where}: {actual!r} != golden {expected!r}")
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        _require(abs(expected - actual) <= TOL, f"{where}: {actual!r} != golden {expected!r}")
    elif isinstance(expected, dict) and isinstance(actual, dict):
        _require(expected.keys() == actual.keys(), f"{where}: keys {sorted(actual)} != golden {sorted(expected)}")
        for key in expected:
            compare(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        _require(len(expected) == len(actual), f"{where}: length {len(actual)} != golden {len(expected)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare(e, a, f"{where}[{i}]")
    else:
        _require(expected == actual, f"{where}: {actual!r} != golden {expected!r}")


def expected_exit_code(command: str, record: dict) -> int:
    if command == "check":
        return 0 if record["satisfied"] else 1
    return 0


def check_output(inst: RawInstance, argv, exit_code: int, stdout: str, golden) -> dict:
    """Check one request's output; returns the parsed record.

    ``golden`` is the expected projection, or None when recording the
    golden file.  Raises :class:`GateError` on any miss.
    """
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise GateError(f"unparsable record: {exc}") from None
    _require(isinstance(record, dict), "record is not a JSON object")
    command = argv[0]
    _require(record.get("command") == command, f"record command {record.get('command')!r} != {command!r}")
    _require(exit_code == expected_exit_code(command, record),
             f"exit code {exit_code}, expected {expected_exit_code(command, record)}")
    try:
        _CHECKS[command](inst, argv, record)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise GateError(f"malformed record: {type(exc).__name__}: {exc}") from None
    if golden is not None:
        compare(golden, project(record))
    return record
