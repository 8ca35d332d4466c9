"""Instance files and random instance generation.

The file format is line oriented with three sections, as in the bundled
``fixtures/ex1.pb``::

    [meta]
    name = ex1
    m = 3
    n = 4
    limit = 3
    [items]
    c1, c1, 2
    c2, c2, 2
    c3, c3, 1
    [ballots]
    1, c1
    2, c1
    3, c2
    4, c2

``[meta]`` holds the instance name, the raw limit and, optionally, the
item count ``m`` and voter count ``n``, which are checked when present.
Each ``[items]`` line is an item id, a display name and a raw cost; each
``[ballots]`` line is a voter id followed by the ids of the items that
voter approves (none for an empty ballot).

Files store raw (pre-normalization) costs; ``to_model`` normalizes.
Blank lines and lines starting with ``#`` are ignored; a ``#`` later in
a line is not a comment.  ``serialize`` emits the canonical form, and
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from .errors import DuplicateItem, InvalidSpec, ParseError
from .model import Instance, Profile, _beyond_float, fits, normalize

_SECTIONS = ("meta", "items", "ballots")
_META_KEYS = ("name", "m", "n", "limit")

#: Upper bounds on a generator spec's item and voter counts.  The
#: generator builds lists of these lengths and draws one number per
#: (voter, item) pair, so the caps keep a spec from asking for billions;
#: no exact routine of the package runs past 25 items or 22 voters.
MAX_GEN_ITEMS = 1000
MAX_GEN_VOTERS = 2000


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
    """Parse the line-oriented instance format; errors carry line numbers.
    ``text`` that is not a ``str`` raises ``ParseError``."""
    if not isinstance(text, str):
        raise ParseError(f"expected the file's text, got a {type(text).__name__}")
    section = None
    meta: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    id_to_index: dict[str, int] = {}
    item_names: list[str] = []
    raw_costs: list[float] = []
    ballots: dict[str, frozenset[int]] = {}  # voter id -> ballot, in file order

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
            meta[key] = value.strip(), lineno
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
                raw_costs.append(float(cost_text))
            except ValueError:
                raise ParseError(f"bad cost {cost_text!r}", lineno) from None
            id_to_index[item_id] = len(item_names)
            item_names.append(item_name or item_id)
        else:
            voter_id, *tokens = [p.strip() for p in line.split(",")]
            if not voter_id:
                raise ParseError("missing voter id", lineno)
            if voter_id in ballots:
                raise ParseError(f"duplicate voter id {voter_id!r}", lineno)
            try:  # the first unknown token is the one named
                ballots[voter_id] = frozenset([id_to_index[token] for token in tokens if token])
            except KeyError as exc:
                raise ParseError(f"unknown item id {exc.args[0]!r}", lineno) from None

    if "limit" not in meta:
        raise ParseError("missing 'limit' in [meta]")
    limit_text, limit_line = meta["limit"]
    try:
        raw_limit = float(limit_text)
    except ValueError:
        raise ParseError(f"bad limit {limit_text!r}", limit_line) from None
    for key, expected in (("m", len(item_names)), ("n", len(ballots))):
        if key in meta:
            value, line = meta[key]
            try:
                declared = int(value)
            except ValueError:
                raise ParseError(f"bad {key} {value!r}", line) from None
            if declared != expected:
                raise ParseError(f"meta declares {key}={declared} but file has {expected}", line)
    if not item_names:
        raise ParseError("no items declared")

    return InstanceFile(
        name=meta.get("name", ("",))[0],
        item_ids=tuple(id_to_index),
        item_names=tuple(item_names),
        raw_costs=tuple(raw_costs),
        raw_limit=raw_limit,
        voter_ids=tuple(ballots),
        ballots=tuple(ballots.values()),
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
    included, an ``int`` beyond float range in a float field, or more
    than ``MAX_GEN_ITEMS`` items or ``MAX_GEN_VOTERS`` voters raises
    ``InvalidSpec``.
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
            if f.type == "float" and _beyond_float(value):
                raise InvalidSpec(f"{f.name} is an integer too large for a finite float")
        if self.num_items < 1:
            raise InvalidSpec("need at least one item")
        if self.num_voters < 1:
            raise InvalidSpec("need at least one voter")
        # the value is not printed: str refuses an int of over 4300 digits
        if self.num_items > MAX_GEN_ITEMS:
            raise InvalidSpec(f"num_items must be at most {MAX_GEN_ITEMS}")
        if self.num_voters > MAX_GEN_VOTERS:
            raise InvalidSpec(f"num_voters must be at most {MAX_GEN_VOTERS}")
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
        if not isinstance(data, dict):
            raise InvalidSpec("generator spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        aliases = {"m": "num_items", "n": "num_voters"}
        given: dict[str, str] = {}
        for key in data:
            name = aliases.get(key, key)
            if name not in known:
                raise InvalidSpec(f"unknown generator field {key!r}")
            if name in given:
                raise InvalidSpec(f"generator field {name!r} is given twice, as {given[name]!r} and {key!r}")
            given[name] = key
        return cls(**{name: data[key] for name, key in given.items()})

    @classmethod
    def from_json(cls, text: str) -> "GenSpec":
        """Read a spec from JSON text; a key that an object repeats is
        refused, where ``json.loads`` would keep its last value."""
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise InvalidSpec(f"bad generator spec: {exc}") from None
        return cls.from_dict(data)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise InvalidSpec(f"generator field {key!r} is given twice")
    return dict(pairs)


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
        # an item outside the voter's chunk draws once, in item order
        ballots = [
            frozenset(
                c for c in range(m) if item_chunk[c] == voter_bloc[i] or rng.random() < spec.group_overlap
            )
            for i in range(n)
        ]

    raw_limit = spec.limit_fraction * reduce(add, costs, 0.0)
    if not math.isfinite(raw_limit):
        raise InvalidSpec("the raw limit or the raw cost total is not a finite number")
    if not fits(1.0, raw_limit / min(costs)):  # the cheapest item against the normalized limit
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
