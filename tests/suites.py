"""Seeded random instance suites shared by the property and acceptance tests."""

from __future__ import annotations

import random

from probud.errors import InvalidSpec
from probud.harness import GenSpec, generate
from probud.model import ALL_AXIOMS, TOL, Budget, Instance, Profile

#: The six axioms checked by the exponential group sweep.
BPJR_AXIOMS = tuple(a for a in ALL_AXIOMS if a.family in ("strong-bpjr", "bpjr", "local-bpjr"))
#: The four axioms checked by the polynomial test.
BJR_AXIOMS = tuple(a for a in ALL_AXIOMS if a.family in ("bjr", "strong-bjr"))


def suite_instance(seed: int, max_voters: int = 10, max_items: int = 7):
    """Deterministic random instance with mixed cost/ballot models."""
    rng = random.Random(1_000_003 * seed + 17)
    m = rng.randint(2, max_items)
    n = rng.randint(1, max_voters)
    fraction = rng.uniform(0.25, 0.95)
    while True:
        spec = GenSpec(
            num_items=m,
            num_voters=n,
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_low=1.0,
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model=rng.choice(("impartial", "groups")),
            approval_prob=rng.uniform(0.15, 0.85),
            group_count=rng.randint(1, max(1, min(3, n))),
            group_overlap=rng.uniform(0.0, 0.35),
            limit_fraction=fraction,
            seed=seed,
        )
        try:
            return generate(spec)
        except InvalidSpec:
            fraction = min(2.0, fraction * 1.7)


def fitting_instance(limit_fraction: float, **fields):
    """``generate(GenSpec(...))``, raising ``limit_fraction`` until the
    limit admits at least one item."""
    while True:
        try:
            return generate(GenSpec(limit_fraction=limit_fraction, **fields))
        except InvalidSpec:
            limit_fraction = min(2.0, limit_fraction * 1.7)


def unit_instance(seed: int, max_voters: int = 10, max_items: int = 7):
    """Unit-cost instance with an integer limit (committee-voting shape)."""
    rng = random.Random(7_777_777 * seed + 3)
    m = rng.randint(2, max_items)
    n = rng.randint(1, max_voters)
    k = rng.randint(1, m)
    p = rng.uniform(0.2, 0.8)
    inst = Instance(tuple(f"c{j}" for j in range(m)), (1.0,) * m, float(k))
    ballots = [
        frozenset(c for c in range(m) if rng.random() < p) for _ in range(n)
    ]
    return inst, Profile(tuple(ballots)), k


def random_feasible_budget(inst: Instance, rng: random.Random) -> Budget:
    items = list(range(inst.num_items))
    rng.shuffle(items)
    total = 0.0
    chosen = set()
    for c in items:
        if rng.random() < 0.6 and total + inst.cost[c] <= inst.limit + TOL:
            chosen.add(c)
            total += inst.cost[c]
    return Budget.of(inst, chosen)
