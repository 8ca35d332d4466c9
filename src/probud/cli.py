"""Command-line front end.

Subcommands: solve, check, enumerate, certify, verify-implications, gen.
Exit codes: 0 success/satisfied, 1 violation found (check), 2 usage or
input error (and any unexpected failure, reported as one ``error:`` line),
3 size-cap exceeded.  ``--json`` switches the output to a
single machine-readable record; the exact key sets are documented in the
README.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import axioms, harness, oracle, rules
from .errors import ProbudError, TooLargeForExact
from .model import ALL_AXIOMS, AxiomId, Budget, is_exhaustive, is_feasible

_AXIOM_CHOICES = tuple(str(axiom) for axiom in ALL_AXIOMS)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[args.handler](args)
    except TooLargeForExact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProbudError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: exit 1 must only mean "violation found"
        message = " ".join(str(exc).split())
        print(f"error: unexpected {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand names
    its handler, looked up in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="probud",
        description="Proportional budgeting rules and axiom checkers for approval-based participatory budgeting.",
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("solve", help="run a budgeting rule on an instance file")
    p.add_argument("--rule", required=True, choices=("gpseq", "greedy-bjr", "bpjr-construct"))
    p.add_argument("--tie", default="lex", choices=rules.TIE_POLICIES,
                   help="tie-breaking policy for gpseq (default: lex)")
    p.add_argument("--fill-unapproved", action="store_true",
                   help="gpseq only: append unapproved items, cheapest first, while they fit")
    p.add_argument("--trace", action="store_true", help="show per-step candidates and tie sets")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("file")
    p.set_defaults(handler="_cmd_solve")

    p = sub.add_parser("check", help="check one axiom for a given budget")
    p.add_argument("--axiom", required=True, choices=_AXIOM_CHOICES)
    p.add_argument("--budget", required=True,
                   help="comma-separated item ids (empty string for the empty budget)")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("file")
    p.set_defaults(handler="_cmd_check")

    p = sub.add_parser("enumerate", help="list all feasible budgets")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("file")
    p.set_defaults(handler="_cmd_enumerate")

    p = sub.add_parser("certify", help="sweep all feasible budgets for an axiom")
    p.add_argument("--axiom", required=True, choices=_AXIOM_CHOICES)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("file")
    p.set_defaults(handler="_cmd_certify")

    p = sub.add_parser("verify-implications",
                       help="check the axiom implication lattice over enumerated budgets")
    p.add_argument("--all-feasible", action="store_true",
                   help="use all feasible budgets instead of only exhaustive ones")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("file")
    p.set_defaults(handler="_cmd_verify")

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--spec", required=True, help="JSON generator spec file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(handler="_cmd_gen")

    return parser


def _load(path: str) -> harness.InstanceFile:
    return harness.parse_instance_file(Path(path).read_text(encoding="utf-8"))


def _fmt(x: float) -> str:
    return f"{x:g}"


def _budget_names(f: harness.InstanceFile, budget: Budget) -> list[str]:
    return [f.item_ids[i] for i in sorted(budget.selected)]


def _emit(record: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(record))
    else:
        for line in human_lines:
            print(line)


def _cmd_solve(args) -> int:
    f = _load(args.file)
    inst, profile = f.to_model()
    gpseq = args.rule == "gpseq"
    steps, filled = (), ()  # only gpseq takes steps and fills
    if gpseq:
        budget, trace = rules.gpseq(inst, profile, tie=args.tie, fill_unapproved=args.fill_unapproved)
        steps, filled = trace.steps, trace.filled
    elif args.rule == "greedy-bjr":
        budget = rules.greedy_bjr_l(inst, profile)
    else:
        budget = rules.bpjr_construct(inst, profile)

    record = {
        "command": "solve",
        "file": args.file,
        "rule": args.rule,
        "tie": args.tie if gpseq else None,
        "fill_unapproved": bool(args.fill_unapproved) if gpseq else None,
        "budget": _budget_names(f, budget),
        "total_cost": budget.total_cost,
        "feasible": is_feasible(inst, budget),
        "exhaustive": is_exhaustive(inst, budget),
        "max_loads": [step.loads[step.chosen] for step in steps] if gpseq else None,
        "filled": [f.item_ids[c] for c in filled],
        "steps": [
            {
                "chosen": f.item_ids[step.chosen],
                "loads": {f.item_ids[c]: step.loads[c] for c in sorted(step.loads)},
                "tie_set": [f.item_ids[c] for c in sorted(step.tie_set)],
            }
            for step in steps
        ] if gpseq and args.trace else None,
    }
    lines = [
        f"rule: {args.rule}" + (f" (tie: {args.tie})" if gpseq else ""),
        "budget: {" + ", ".join(record["budget"]) + "}",
        f"total cost: {_fmt(budget.total_cost)} (limit {_fmt(f.raw_limit)} raw, {_fmt(inst.limit)} normalized)",
        f"feasible: {record['feasible']}   exhaustive: {record['exhaustive']}",
    ]
    for k, step in enumerate(steps, 1):
        chosen, load = f.item_ids[step.chosen], _fmt(step.loads[step.chosen])
        if args.trace:
            cand = ", ".join(f"{f.item_ids[c]}={_fmt(step.loads[c])}" for c in sorted(step.loads))
            ties = ", ".join(f.item_ids[c] for c in sorted(step.tie_set))
            lines.append(f"step {k}: chose {chosen} (max load {load}; candidates {cand}; tie set {{{ties}}})")
        else:
            lines.append(f"step {k}: chose {chosen} (optimal max load {load})")
    if filled:
        lines.append("filled (unapproved): " + ", ".join(record["filled"]))
    _emit(record, args.as_json, lines)
    return 0


def _parse_budget_arg(f: harness.InstanceFile, text: str, inst) -> Budget:
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    indices = {f.item_index(t) for t in tokens if t}
    return Budget.of(inst, indices)


def _witness_fields(f: harness.InstanceFile, report: axioms.AxiomReport) -> dict:
    w = report.witness  # each field is None where no violation was found
    return {
        "witness_voters": w and [f.voter_ids[i] for i in sorted(w.voters)],
        "witness_level": w and w.level,
        "witness_common_items": w and [f.item_ids[i] for i in sorted(w.common_items)],
        "witness_bundle": w and [f.item_ids[i] for i in sorted(w.witness_bundle)],
        "witness_represented_weight": w and w.represented_weight,
        "witness_required_weight": w and w.required_weight,
    }


def _cmd_check(args) -> int:
    f = _load(args.file)
    inst, profile = f.to_model()
    budget = _parse_budget_arg(f, args.budget, inst)
    axiom = AxiomId.parse(args.axiom)
    report = axioms.check_axiom(inst, profile, budget, axiom)
    record = {
        "command": "check",
        "file": args.file,
        "axiom": str(axiom),
        "budget": _budget_names(f, budget),
        "satisfied": report.satisfied,
        "method": report.method,
        **_witness_fields(f, report),
    }
    lines = [
        f"axiom {axiom}: " + ("satisfied" if report.satisfied else "VIOLATED") + f" (method {report.method})",
        "budget: {" + ", ".join(record["budget"]) + "}" + f" cost {_fmt(budget.total_cost)}",
    ]
    if report.witness is not None:
        w = report.witness
        lines += [
            "  voters: {" + ", ".join(record["witness_voters"]) + "}",
            f"  level: {_fmt(w.level)}",
            "  common items: {" + ", ".join(record["witness_common_items"]) + "}",
            "  witness bundle: {" + ", ".join(record["witness_bundle"]) + "}",
            f"  represented weight: {_fmt(w.represented_weight)}   required weight: {_fmt(w.required_weight)}",
        ]
    _emit(record, args.as_json, lines)
    return 0 if report.satisfied else 1


def _cmd_enumerate(args) -> int:
    f = _load(args.file)
    inst, _ = f.to_model()
    if args.as_json:  # the record as json.dumps writes it, budgets spliced in
        quoted, sep, tail = [json.dumps(name) for name in f.item_ids], "], [", "]]}"
    else:
        quoted, sep, tail = f.item_ids, "}\n  {", "}"
    start, walk = oracle._feasible_blocks(inst, args.exhaustive)
    # The walk is a preorder over the head subsets, so a head subset's
    # parent (itself without its largest item) is the last one it yielded
    # one level up: chain[d] holds that text at depth d, and still holds a
    # head subset's own text when its block comes.  suffix[r] is the text
    # of the tail subset with relative mask r, built by doubling, and a
    # block's budgets are written as one text, joined around its prefix.
    texts, count, keep_all = [], 0, not args.exhaustive
    chain = [""] * (inst.num_items + 1)
    suffix = [""]
    for name in quoted[start:]:
        suffix += [f"{text}, {name}" if text else name for text in suffix]
    for step in walk:
        d = step[0].bit_count()
        if len(step) == 2:  # a head subset's block
            mask, kept = step
            if kept:
                prefix = f"{chain[d]}, " if d else ""
                texts.append(prefix + (sep + prefix).join(map(suffix.__getitem__, kept)))
                count += len(kept)
            continue
        mask, _, exhaustive = step
        if d:
            newest = quoted[mask.bit_length() - 1]
            chain[d] = f"{chain[d - 1]}, {newest}" if d > 1 else newest
        if exhaustive or keep_all:
            texts.append(chain[d])
            count += 1
    # The walk yields at least one budget (the empty budget is feasible, and
    # some feasible budget is exhaustive), so every output has a first and
    # a last budget to wrap.
    if args.as_json:
        header = json.dumps({
            "command": "enumerate",
            "file": args.file,
            "exhaustive_only": bool(args.exhaustive),
            "count": count,
        })
        head = f'{header[:-1]}, "budgets": [['
    else:
        head = f"{'exhaustive ' if args.exhaustive else ''}feasible budgets: {count}\n  {{"
    body = sep.join(texts)
    del texts  # free the budgets' texts before the output is written
    print(head, body, tail, sep="")
    return 0


def _cmd_certify(args) -> int:
    f = _load(args.file)
    inst, profile = f.to_model()
    axiom = AxiomId.parse(args.axiom)
    report = oracle.certify_existence(inst, profile, axiom, exhaustive_only=args.exhaustive)
    record = {
        "command": "certify",
        "file": args.file,
        "axiom": str(axiom),
        "exhaustive_only": bool(args.exhaustive),
        "exists": report.exists,
        "total_feasible": report.total_feasible,
        "satisfying_budgets": [_budget_names(f, b) for b in report.satisfying_budgets],
    }
    scope = "exhaustive feasible" if args.exhaustive else "feasible"
    lines = [
        f"axiom {axiom}: exists={report.exists} over {report.total_feasible} {scope} budgets",
        f"satisfying budgets: {len(report.satisfying_budgets)}",
    ]
    lines += ["  {" + ", ".join(names) + "}" for names in record["satisfying_budgets"][:20]]
    if len(record["satisfying_budgets"]) > 20:
        lines.append(f"  ... and {len(record['satisfying_budgets']) - 20} more")
    _emit(record, args.as_json, lines)
    return 0


def _cmd_verify(args) -> int:
    f = _load(args.file)
    inst, profile = f.to_model()
    budgets = oracle.enumerate_feasible(inst, exhaustive_only=not args.all_feasible)
    violations = oracle.verify_implications(inst, profile, budgets)
    record = {
        "command": "verify-implications",
        "file": args.file,
        "budgets": len(budgets),
        "violations": [
            {"budget": _budget_names(f, b), "stronger": str(a), "weaker": str(w)}
            for b, a, w in violations
        ],
    }
    lines = [f"budgets checked: {len(budgets)}", f"implication violations: {len(violations)}"]
    for entry in record["violations"]:
        lines.append(f"  {{{', '.join(entry['budget'])}}}: {entry['stronger']} held but {entry['weaker']} failed")
    _emit(record, args.as_json, lines)
    return 0


def _cmd_gen(args) -> int:
    spec = harness.GenSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    name = Path(args.output).stem
    f = harness.generate_file(spec, name=name)
    Path(args.output).write_text(harness.serialize_instance_file(f), encoding="utf-8")
    record = {
        "command": "gen",
        "spec": args.spec,
        "output": args.output,
        "name": f.name,
        "m": len(f.item_ids),
        "n": len(f.voter_ids),
        "raw_limit": f.raw_limit,
        "seed": spec.seed,
    }
    lines = [f"wrote {args.output}: m={record['m']} n={record['n']} raw limit {_fmt(f.raw_limit)} (seed {spec.seed})"]
    _emit(record, args.as_json, lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
