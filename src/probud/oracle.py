"""Brute-force ground truth for desk-scale instances.

Enumerates every feasible budget by one pruned walk over the subsets
that fit (:func:`probud._bits.feasible_blocks`), certifies for which
budgets an axiom holds (in particular whether any satisfying budget
exists at all), and cross-checks the implication lattice between the ten
axioms.  The walk takes the subsets of its head items one at a time and
joins each with a block of tail subsets.  Split with no tail
(:func:`probud._bits.subsets_within`), it yields ``(mask, total,
exhaustive)`` for every feasible subset, and :func:`_feasible_subsets`
drops the non-exhaustive ones when asked.  :func:`certify_existence` and
:func:`replay_witnesses` hand its ``(mask, total)`` pairs straight to the
checkers' group table and build a ``Budget`` only for a satisfier or a
witness to recheck; :func:`enumerate_feasible` builds one per subset.
The CLI's ``enumerate`` reads the blocks themselves
(:func:`_feasible_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ._bits import bits, feasible_blocks, subsets_within
from .axioms import _GroupTable, _recheck_witness, _selection, implied_by
from .errors import InvalidBudget, TooLargeForExact
from .model import ALL_AXIOMS, AxiomId, Budget, Instance, Profile, _iterable, _require_instance, fit_bound

#: Hard cap on items for full budget enumeration.
MAX_ENUM_ITEMS = 20

#: Every implication edge of the axiom lattice as a pair of positions
#: ``(stronger, weaker)`` in ``ALL_AXIOMS``, in order of the stronger
#: axiom and then the weaker.
_IMPLICATION_PAIRS = tuple(
    (i, j)
    for i, stronger in enumerate(ALL_AXIOMS)
    for j, weaker in enumerate(ALL_AXIOMS)
    if weaker != stronger and implied_by(weaker, stronger)
)


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of sweeping an axiom checker over all (exhaustive) feasible
    budgets of one instance."""

    axiom: AxiomId
    exhaustive_only: bool
    exists: bool
    satisfying_budgets: tuple[Budget, ...]
    total_feasible: int


def enumerate_feasible(inst: Instance, exhaustive_only: bool = False) -> list[Budget]:
    """All feasible budgets, optionally restricted to exhaustive ones, in
    lexicographic order of their sorted index tuples; memory grows with
    their number, not with 2^m."""
    return [
        Budget(frozenset(bits(mask)), total)
        for mask, total, _ in _feasible_subsets(inst, exhaustive_only)
    ]


def _feasible_subsets(inst: Instance, exhaustive_only: bool = False) -> Iterator[tuple[int, float, bool]]:
    """The walk behind :func:`enumerate_feasible`, as ``(mask, total,
    exhaustive)`` triples (:func:`probud._bits.subsets_within`), for
    callers that need no :class:`Budget`; enforces ``MAX_ENUM_ITEMS`` at
    once.  With ``exhaustive_only`` it yields only the exhaustive ones:
    the one filter the library's exhaustive sweeps share."""
    _require_enumerable(inst)
    walk = subsets_within(inst.cost, fit_bound(inst.limit))
    return (entry for entry in walk if entry[2]) if exhaustive_only else walk


def _feasible_blocks(inst: Instance, exhaustive_only: bool = False):
    """The same walk as head subsets and blocks
    (:func:`probud._bits.feasible_blocks`), for the CLI's ``enumerate``:
    each block holds the tail subsets that are feasible, or with
    ``exhaustive_only`` exhaustive, joined with its head subset."""
    _require_enumerable(inst)
    return feasible_blocks(inst.cost, fit_bound(inst.limit), exhaustive_only)


def _require_enumerable(inst: Instance) -> None:
    _require_instance(inst)
    m = inst.num_items
    if m > MAX_ENUM_ITEMS:
        raise TooLargeForExact(
            f"budget enumeration supports at most {MAX_ENUM_ITEMS} items, got {m}"
        )


def certify_existence(
    inst: Instance,
    profile: Profile,
    axiom: AxiomId,
    exhaustive_only: bool = False,
) -> ExistenceReport:
    """Run the axiom's checker over every (exhaustive) feasible budget and
    report all satisfiers.

    One group table, fed the walk's ``(mask, total)`` pairs, computes
    only verdicts; a ``Budget`` is built only for a satisfier.
    """
    subsets = _feasible_subsets(inst, exhaustive_only)
    table = _GroupTable(inst, profile)
    satisfying, total_feasible = [], 0
    for total_feasible, (mask, total, _) in enumerate(subsets, 1):
        if table.holds((mask, total), axiom):
            satisfying.append(Budget(frozenset(bits(mask)), total))
    return ExistenceReport(
        axiom=axiom,
        exhaustive_only=exhaustive_only,
        exists=bool(satisfying),
        satisfying_budgets=tuple(satisfying),
        total_feasible=total_feasible,
    )


def verify_implications(
    inst: Instance,
    profile: Profile,
    budgets: list[Budget],
) -> list[tuple[Budget, AxiomId, AxiomId]]:
    """Check every implication edge of the axiom lattice on every budget.

    Returns the (budget, stronger, weaker) triples where the stronger
    axiom holds but the implied weaker one does not; expected empty.
    Each budget's verdicts are those of
    :func:`probud.axioms.evaluate_axioms`, over one group table shared by
    all the budgets; each budget is admitted once, and ``budgets`` that is
    not iterable raises ``InvalidBudget``.
    """
    table = _GroupTable(inst, profile)
    violations: list[tuple[Budget, AxiomId, AxiomId]] = []
    for budget in _iterable(budgets, InvalidBudget, "the budgets"):
        satisfied = table.verdicts(_selection(inst, budget))
        for stronger, weaker in _IMPLICATION_PAIRS:
            if satisfied[stronger] and not satisfied[weaker]:
                violations.append((budget, ALL_AXIOMS[stronger], ALL_AXIOMS[weaker]))
    return violations


def replay_witnesses(
    inst: Instance,
    profile: Profile,
    axiom: AxiomId,
    exhaustive_only: bool = False,
) -> bool:
    """Re-prove a non-existence certificate by re-verifying, from scratch,
    the violation witness of every enumerated budget.

    Returns True iff every budget's checker reports a violation and every
    reported witness re-validates against the definition.  The reports
    are those of :func:`probud.axioms.check_axiom`, over one group table
    shared by all the budgets and fed the walk's ``(mask, total)`` pairs;
    a ``Budget`` is built only for a witness to recheck.
    """
    table = _GroupTable(inst, profile)
    for mask, total, _ in _feasible_subsets(inst, exhaustive_only):
        report = table.report((mask, total), axiom)
        if report.satisfied or not _recheck_witness(inst, profile, Budget(frozenset(bits(mask)), total), report):
            return False
    return True


__all__ = [
    "ExistenceReport",
    "MAX_ENUM_ITEMS",
    "certify_existence",
    "enumerate_feasible",
    "replay_witnesses",
    "verify_implications",
]
