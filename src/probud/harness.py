"""Instance files and random instance generation.

The file format is line oriented with three sections::

    [meta]
    name = ex1
    m = 3
    n = 4
    limit = 3
    [items]
    c1, c1, 2          # id, display name, raw cost
    [ballots]
    1, c1              # voter id, approved item ids

Files store raw (pre-normalization) costs; ``to_model`` normalizes.
Blank lines and lines starting with ``#`` are ignored.  ``serialize``
emits the canonical form, and parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from .errors import DuplicateItem, InvalidSpec, ParseError
from .model import TOL, Instance, Profile, normalize

_SECTIONS = ("meta", "items", "ballots")
_META_KEYS = ("name", "m", "n", "limit")


@dataclass(frozen=True)
class InstanceFile:
    """Raw contents of an instance file, before normalization."""

    name: str
    item_ids: tuple[str, ...]
    item_names: tuple[str, ...]
    raw_costs: tuple[float, ...]
    raw_limit: float
    voter_ids: tuple[str, ...]
    ballots: tuple[frozenset[int], ...]

    def to_model(self) -> tuple[Instance, Profile]:
        inst = normalize(list(zip(self.item_names, self.raw_costs)), self.raw_limit)
        return inst, Profile(self.ballots)

    def item_index(self, token: str) -> int:
        """Resolve an item reference: id first, then display name, then a
        plain integer index."""
        if token in self.item_ids:
            return self.item_ids.index(token)
        if token in self.item_names:
            return self.item_names.index(token)
        try:
            index = int(token)
        except ValueError:
            raise ParseError(f"unknown item {token!r}") from None
        if not 0 <= index < len(self.item_ids):
            raise ParseError(f"item index {index} out of range")
        return index


def parse_instance_file(text: str) -> InstanceFile:
    """Parse the line-oriented instance format; errors carry line numbers."""
    section = None
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    item_ids: list[str] = []
    item_names: list[str] = []
    raw_costs: list[float] = []
    id_to_index: dict[str, int] = {}
    voter_ids: list[str] = []
    ballots: list[frozenset[int]] = []

    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)
        if section == "meta":
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected 'key = value'", lineno)
            key = key.strip().lower()
            if key not in _META_KEYS:
                raise ParseError(f"unknown meta key {key!r}", lineno)
            if key in meta:
                raise ParseError(f"duplicate meta key {key!r}", lineno)
            meta[key] = value.strip()
            meta_lines[key] = lineno
        elif section == "items":
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ParseError("expected 'id, name, cost'", lineno)
            item_id, item_name, cost_text = parts
            if not item_id:
                raise ParseError("missing item id", lineno)
            if item_id in id_to_index:
                raise DuplicateItem(f"item id {item_id!r} declared twice", lineno)
            try:
                cost = float(cost_text)
            except ValueError:
                raise ParseError(f"bad cost {cost_text!r}", lineno) from None
            id_to_index[item_id] = len(item_ids)
            item_ids.append(item_id)
            item_names.append(item_name or item_id)
            raw_costs.append(cost)
        else:
            parts = [p.strip() for p in line.split(",")]
            voter_id = parts[0]
            if not voter_id:
                raise ParseError("missing voter id", lineno)
            if voter_id in voter_ids:
                raise ParseError(f"duplicate voter id {voter_id!r}", lineno)
            approved = set()
            for token in parts[1:]:
                if not token:
                    continue
                if token not in id_to_index:
                    raise ParseError(f"unknown item id {token!r}", lineno)
                approved.add(id_to_index[token])
            voter_ids.append(voter_id)
            ballots.append(frozenset(approved))

    if "limit" not in meta:
        raise ParseError("missing 'limit' in [meta]")
    try:
        raw_limit = float(meta["limit"])
    except ValueError:
        raise ParseError(f"bad limit {meta['limit']!r}", meta_lines["limit"]) from None
    for key, expected in (("m", len(item_ids)), ("n", len(voter_ids))):
        if key in meta:
            try:
                declared = int(meta[key])
            except ValueError:
                raise ParseError(f"bad {key} {meta[key]!r}", meta_lines[key]) from None
            if declared != expected:
                raise ParseError(
                    f"meta declares {key}={declared} but file has {expected}", meta_lines[key]
                )
    if not item_ids:
        raise ParseError("no items declared")

    return InstanceFile(
        name=meta.get("name", ""),
        item_ids=tuple(item_ids),
        item_names=tuple(item_names),
        raw_costs=tuple(raw_costs),
        raw_limit=raw_limit,
        voter_ids=tuple(voter_ids),
        ballots=tuple(ballots),
    )


def serialize_instance_file(f: InstanceFile) -> str:
    """Canonical text form; parsing it back reproduces ``f`` exactly."""
    lines = ["[meta]"]
    if f.name:
        lines.append(f"name = {f.name}")
    lines.append(f"m = {len(f.item_ids)}")
    lines.append(f"n = {len(f.voter_ids)}")
    lines.append(f"limit = {_format_number(f.raw_limit)}")
    lines.append("[items]")
    for item_id, name, cost in zip(f.item_ids, f.item_names, f.raw_costs):
        lines.append(f"{item_id}, {name}, {_format_number(cost)}")
    lines.append("[ballots]")
    for voter_id, ballot in zip(f.voter_ids, f.ballots):
        tokens = [voter_id] + [f.item_ids[i] for i in sorted(ballot)]
        lines.append(", ".join(tokens))
    return "\n".join(lines) + "\n"


def _format_number(x: float) -> str:
    # only an exact integer loses its fraction, so parsing gives x back
    return str(int(x)) if float(x).is_integer() else repr(x)


def parse_instance(text: str) -> tuple[Instance, Profile]:
    """Parse a file into a normalized instance plus profile."""
    return parse_instance_file(text).to_model()


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the random instance generator.

    Cost models: ``unit`` (all ones), ``uniform`` (between ``cost_low``
    and ``cost_high``), ``heavy-tail`` (1 + Pareto).  Ballot models:
    ``impartial`` (each item approved independently with
    ``approval_prob``) or ``groups`` (``group_count`` voter blocs, each
    approving its own chunk of items entirely plus every other item with
    probability ``group_overlap``).  The raw limit is ``limit_fraction``
    times the total raw cost.  A field of the wrong type, a ``bool``
    included, raises ``InvalidSpec``.
    """

    num_items: int
    num_voters: int
    cost_model: str = "unit"
    cost_low: float = 1.0
    cost_high: float = 4.0
    ballot_model: str = "impartial"
    approval_prob: float = 0.4
    group_count: int = 3
    group_overlap: float = 0.0
    limit_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise InvalidSpec(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
                raise InvalidSpec(f"{f.name} must be a number, got {value!r}")
        if self.num_items < 1:
            raise InvalidSpec("need at least one item")
        if self.num_voters < 1:
            raise InvalidSpec("need at least one voter")
        if self.cost_model not in ("unit", "uniform", "heavy-tail"):
            raise InvalidSpec(f"unknown cost model {self.cost_model!r}")
        if self.ballot_model not in ("impartial", "groups"):
            raise InvalidSpec(f"unknown ballot model {self.ballot_model!r}")
        if not 0.0 < self.cost_low <= self.cost_high:
            raise InvalidSpec("need 0 < cost_low <= cost_high")
        if not 0.0 <= self.approval_prob <= 1.0:
            raise InvalidSpec("approval_prob must be in [0, 1]")
        if not 0.0 <= self.group_overlap <= 1.0:
            raise InvalidSpec("group_overlap must be in [0, 1]")
        if self.group_count < 1:
            raise InvalidSpec("group_count must be at least 1")
        if self.limit_fraction <= 0.0:
            raise InvalidSpec("limit_fraction must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        known = {f.name for f in fields(cls)}
        aliases = {"m": "num_items", "n": "num_voters"}
        kwargs = {}
        for key, value in data.items():
            name = aliases.get(key, key)
            if name not in known:
                raise InvalidSpec(f"unknown generator field {key!r}")
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "GenSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"bad generator spec: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidSpec("generator spec must be a JSON object")
        return cls.from_dict(data)


def generate_file(spec: GenSpec, name: str = "generated") -> InstanceFile:
    """Deterministically generate a raw instance file from ``spec``."""
    rng = random.Random(spec.seed)
    m, n = spec.num_items, spec.num_voters

    if spec.cost_model == "unit":
        costs = [1.0] * m
    elif spec.cost_model == "uniform":
        costs = [rng.uniform(spec.cost_low, spec.cost_high) for _ in range(m)]
    else:
        costs = [1.0 + rng.paretovariate(1.5) for _ in range(m)]

    if spec.ballot_model == "impartial":
        ballots = [
            frozenset(c for c in range(m) if rng.random() < spec.approval_prob)
            for _ in range(n)
        ]
    else:
        g = spec.group_count
        item_chunk = [min(g - 1, c * g // m) for c in range(m)]
        voter_bloc = [min(g - 1, i * g // n) for i in range(n)]
        ballots = []
        for i in range(n):
            approved = {c for c in range(m) if item_chunk[c] == voter_bloc[i]}
            approved |= {
                c
                for c in range(m)
                if item_chunk[c] != voter_bloc[i] and rng.random() < spec.group_overlap
            }
            ballots.append(frozenset(approved))

    raw_limit = spec.limit_fraction * sum(costs)
    if not math.isfinite(raw_limit):
        raise InvalidSpec("the raw limit or the raw cost total is not a finite number")
    if raw_limit < min(costs) - TOL:
        raise InvalidSpec(
            "limit_fraction leaves a limit below one normalized unit; nothing could ever fit"
        )
    return InstanceFile(
        name=name,
        item_ids=tuple(f"c{j + 1}" for j in range(m)),
        item_names=tuple(f"c{j + 1}" for j in range(m)),
        raw_costs=tuple(costs),
        raw_limit=raw_limit,
        voter_ids=tuple(str(i + 1) for i in range(n)),
        ballots=tuple(ballots),
    )


def generate(spec: GenSpec) -> tuple[Instance, Profile]:
    """Deterministically generate a normalized instance plus profile."""
    return generate_file(spec).to_model()
