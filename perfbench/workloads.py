"""The two request mixes: instance shapes, request cells and the seeded
pass plan.

A *shape* fixes every ``GenSpec`` field except the seed.  Each shape has a
fixed pool of ``workload.variants`` instances (variant ``v`` uses
generator seed ``10000 * shape + 100 * v + attempt``), so every input a
run can see is covered by the golden file.  A *cell* is a shape plus the
requests made on one of its instances.  A *pass* runs every cell of the
workload once, in a seeded order; cell ``c`` uses variant ``(offset[c] +
pass) % variants`` where the offsets come from ``--seed`` (see
:func:`pass_order`).  The seed therefore chooses the order of the cells
and which pool instances each pass meets, not the instances themselves.
Every pass holds the same mix of shapes and commands, and a *cycle* of
``variants`` consecutive passes makes every cell on every pool instance
exactly once, so a run of whole cycles measures the same requests for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

TIES = ("lex", "cheapest", "most-approved")
ALL_AXIOM_IDS = tuple(
    f"{family}-{variant}"
    for family in ("strong-bjr", "bjr", "strong-bpjr", "bpjr", "local-bpjr")
    for variant in ("l", "w")
)
BPJR_AXIOM_IDS = tuple(a for a in ALL_AXIOM_IDS if "bpjr" in a)

#: Placeholder tokens in request argv, resolved when the request runs.
FILE = "{file}"
DRAWN_BUDGET = "{budget:drawn}"
CONSTRUCTED_BUDGET = "{budget:constructed}"
GREEDY_BUDGET = "{budget:greedy}"
#: Solve requests whose budget the later ``check`` requests of the cell
#: name, by label, with the placeholder that stands for that budget.
SOLVED_BUDGETS = {"solve bpjr-construct": CONSTRUCTED_BUDGET, "solve greedy-bjr": GREEDY_BUDGET}

_TOL = 1e-9


@dataclass(frozen=True)
class Request:
    """One ``probud`` command line; ``label`` names it within its cell."""

    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Shape:
    name: str
    gen: tuple[tuple[str, object], ...]
    distinct_ballots: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    #: Fixed percentile reported as ``latency_tail_ms``: the highest of the
    #: usual reporting grid (p50, p75, p90, p95, p99, p99.9) with at least
    #: ten requests beyond it in one cycle.  A percentile set between two
    #: grid points would land on the edge of the cluster of the few
    #: slowest requests, where a small shift in rank moves the value by a
    #: third.
    tail_percentile: float
    #: Pool instances per shape; also the number of passes in a cycle.
    variants: int
    shapes: tuple[Shape, ...]
    #: (shape index, request kind); see :func:`cell_requests`.
    cells: tuple[tuple[int, str], ...]


def _shape(name: str, distinct: bool = False, **gen) -> Shape:
    return Shape(name, tuple(sorted(gen.items())), distinct)


_SEQ_SHAPES = (
    _shape("m10-n40-unit-groups", num_items=10, num_voters=40, cost_model="unit",
           ballot_model="groups", group_count=3, group_overlap=0.2),
    _shape("m10-n60-heavy-impartial", num_items=10, num_voters=60, cost_model="heavy-tail",
           ballot_model="impartial"),
    _shape("m10-n80-unit-impartial", num_items=10, num_voters=80, cost_model="unit",
           ballot_model="impartial"),
    _shape("m10-n120-uniform-groups", num_items=10, num_voters=120, cost_model="uniform",
           ballot_model="groups", group_count=3, group_overlap=0.3),
    _shape("m11-n40-uniform-groups", num_items=11, num_voters=40, cost_model="uniform",
           ballot_model="groups", group_count=2, group_overlap=0.3),
    _shape("m12-n40-uniform-impartial", num_items=12, num_voters=40, cost_model="uniform",
           ballot_model="impartial"),
    _shape("m12-n50-heavy-groups", num_items=12, num_voters=50, cost_model="heavy-tail",
           ballot_model="groups", group_count=4, group_overlap=0.1),
    _shape("m13-n40-unit-impartial", num_items=13, num_voters=40, cost_model="unit",
           ballot_model="impartial"),
    _shape("m14-n40-heavy-impartial", num_items=14, num_voters=40, cost_model="heavy-tail",
           ballot_model="impartial"),
    _shape("m16-n40-heavy-groups", num_items=16, num_voters=40, cost_model="heavy-tail",
           ballot_model="groups", group_count=3, group_overlap=0.2),
)

_CERTIFY_SHAPES = (
    _shape("m8-n12-unit-b2", num_items=8, num_voters=12, cost_model="unit",
           ballot_model="groups", group_count=2, group_overlap=0.1),
    _shape("m8-n18-unit-b3", num_items=8, num_voters=18, cost_model="unit",
           ballot_model="groups", group_count=3, group_overlap=0.1),
    _shape("m10-n14-uniform-b3", num_items=10, num_voters=14, cost_model="uniform",
           ballot_model="groups", group_count=3, group_overlap=0.2, limit_fraction=0.4),
    _shape("m10-n12-unit-b4", num_items=10, num_voters=12, cost_model="unit",
           ballot_model="groups", group_count=4, group_overlap=0.3, limit_fraction=0.3),
    _shape("m12-n12-unit-b4", num_items=12, num_voters=12, cost_model="unit",
           ballot_model="groups", group_count=4, group_overlap=0.1, limit_fraction=0.25),
    _shape("m12-n12-heavy-b4", num_items=12, num_voters=12, cost_model="heavy-tail",
           ballot_model="groups", group_count=4, group_overlap=0.1, limit_fraction=0.3),
)

_EXACT_SHAPES = (
    _shape("m16-n18-uniform", True, num_items=16, num_voters=18, cost_model="uniform",
           ballot_model="impartial", approval_prob=0.25),
    _shape("m16-n22-heavy", True, num_items=16, num_voters=22, cost_model="heavy-tail",
           ballot_model="impartial", approval_prob=0.3),
    _shape("m17-n20-unit", True, num_items=17, num_voters=20, cost_model="unit",
           ballot_model="impartial", approval_prob=0.25),
    _shape("m18-n22-uniform", True, num_items=18, num_voters=22, cost_model="uniform",
           ballot_model="impartial", approval_prob=0.3),
)

_AXIOM_SHAPES = _CERTIFY_SHAPES + _EXACT_SHAPES

#: ``seq-load`` runs ``gpseq`` only.  ``axiom-mix`` holds the certify and
#: exact cells in one cycle: ``certify --exhaustive`` and
#: ``verify-implications`` on bloc ballots (the group sweep, repeated per
#: budget) next to single-budget checks, rule solves and enumeration on
#: distinct ballots (the witness path, the 2^m tables and JSON output).
#: They share a workload because two workloads can have runs about half
#: again as long as three in the benchmark's time budget.  The exact
#: cells' checks are more than half of the cycle, so its median request
#: lies inside the cluster of checks rather than on its edge.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("seq-load", 75.0, 5, _SEQ_SHAPES,
                 tuple((s, "gpseq") for s in range(len(_SEQ_SHAPES)))),
        Workload("axiom-mix", 95.0, 3, _AXIOM_SHAPES,
                 tuple((s, kind) for s in range(len(_CERTIFY_SHAPES))
                       for kind in [f"certify {a}" for a in BPJR_AXIOM_IDS] + ["verify"])
                 + tuple((s, "exact") for s in range(len(_CERTIFY_SHAPES), len(_AXIOM_SHAPES)))),
    )
}


def cell_requests(kind: str, shape_index: int, variant: int) -> tuple[Request, ...]:
    """The requests one cell makes on variant ``variant`` of its shape."""
    if kind == "gpseq":
        tie = TIES[(shape_index + variant) % len(TIES)]
        extra = {1: ("--trace",), 3: ("--fill-unapproved",)}.get(variant % 4, ())
        argv = ("solve", "--rule", "gpseq", "--tie", tie, *extra, "--json", FILE)
        return (Request(" ".join(argv[:-2]), argv),)
    if kind.startswith("certify "):
        axiom = kind.split()[1]
        return (Request(kind, ("certify", "--axiom", axiom, "--exhaustive", "--json", FILE)),)
    if kind == "verify":
        return (Request("verify-implications", ("verify-implications", "--json", FILE)),)
    if kind == "exact":
        out = [
            Request("solve bpjr-construct", ("solve", "--rule", "bpjr-construct", "--json", FILE)),
            Request("solve greedy-bjr", ("solve", "--rule", "greedy-bjr", "--json", FILE)),
        ]
        for source, token, axioms in (("constructed", CONSTRUCTED_BUDGET, ALL_AXIOM_IDS),
                                      ("greedy", GREEDY_BUDGET, ALL_AXIOM_IDS),
                                      ("drawn", DRAWN_BUDGET, BPJR_AXIOM_IDS)):
            out += [
                Request(f"check {a} {source}", ("check", "--axiom", a, "--budget", token, "--json", FILE))
                for a in axioms
            ]
        out += [
            Request("enumerate", ("enumerate", "--json", FILE)),
            Request("enumerate exhaustive", ("enumerate", "--exhaustive", "--json", FILE)),
        ]
        return tuple(out)
    raise ValueError(f"unknown request kind {kind!r}")


def pass_order(workload: Workload, seed: int, pass_no: int) -> list[tuple[int, int]]:
    """``(cell index, variant)`` pairs of one pass, in the order they run.

    The cells of one shape start at consecutive variants from a seeded
    base, so a pass spreads them over the pool instead of letting them
    pile onto the same few instances; this keeps the work per pass close
    to the same from seed to seed.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    base = [rng.randrange(workload.variants) for _ in workload.shapes]
    offset, seen = [], [0] * len(workload.shapes)
    for shape_index, _ in workload.cells:
        offset.append(base[shape_index] + seen[shape_index])
        seen[shape_index] += 1
    order = list(range(len(workload.cells)))
    random.Random(f"{workload.name}/{seed}/{pass_no}").shuffle(order)
    return [(c, (offset[c] + pass_no) % workload.variants) for c in order]


def instance_key(shape: Shape, variant: int) -> str:
    return f"{shape.name}/v{variant}"


def draw_budget(shape: Shape, variant: int, raw_costs, raw_limit: float) -> list[int]:
    """A seeded exhaustive budget: items in a shuffled order, each taken
    if it still fits.  Checked by the ``check ... drawn`` requests so that
    the checkers also meet budgets that no rule would pick."""
    scale = min(raw_costs)
    costs = [c / scale for c in raw_costs]
    limit = raw_limit / scale
    order = list(range(len(costs)))
    random.Random(f"drawn/{shape.name}/v{variant}").shuffle(order)
    chosen, total = [], 0.0
    for c in order:
        if total + costs[c] <= limit + _TOL:
            chosen.append(c)
            total += costs[c]
    return sorted(chosen)


@dataclass(frozen=True)
class PoolInstance:
    path: Path
    drawn_budget: str  # comma-separated item ids


def write_pool(workload: Workload, harness, out_dir: Path) -> dict[tuple[int, int], PoolInstance]:
    """Generate and write every instance of the workload's pool.

    ``harness`` is the ``probud.harness`` module, passed in so that this
    module does not import ``probud`` itself.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = {}
    for s, shape in enumerate(workload.shapes):
        for v in range(workload.variants):
            f = _generate(harness, shape, s, v)
            path = out_dir / f"{shape.name}-v{v}.pb"
            path.write_text(harness.serialize_instance_file(f), encoding="utf-8")
            drawn = draw_budget(shape, v, f.raw_costs, f.raw_limit)
            pool[(s, v)] = PoolInstance(path, ",".join(f.item_ids[c] for c in drawn))
    return pool


def _generate(harness, shape: Shape, shape_index: int, variant: int):
    for attempt in range(100):
        spec = harness.GenSpec(seed=10000 * shape_index + 100 * variant + attempt, **dict(shape.gen))
        f = harness.generate_file(spec, name=f"{shape.name}-v{variant}")
        if not shape.distinct_ballots or len(set(f.ballots)) == len(f.ballots):
            return f
    raise RuntimeError(f"no instance with distinct ballots for {shape.name} v{variant}")
