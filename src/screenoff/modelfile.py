"""Reading and writing models as JSON files.

One format serves both measure kinds through a ``measure.type`` tag.  A file
carries the site table, the order relation, the measure data, and optionally
named events (expression strings) and named regions (site-id lists).  All
numbers are rational strings — parsing is exact, and a parsed model is fully
validated before it is returned.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .events import history_digits, history_index, n_histories
from .exprs import parse_event
from .order import CausalSite
from .report import VIOLATED
from .stochastic import StochasticModel

if TYPE_CHECKING:
    from .quantal import QuantalModel

FORMAT_VERSION = 1

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ModelFileError(ValueError):
    """Raised for malformed, ill-typed, or invalid model files."""


def _err(source: str, detail: str) -> ModelFileError:
    return ModelFileError(f"model file error: {source}: {detail}")


@dataclass(frozen=True)
class LoadedModel:
    """A parsed model file: the validated model plus its named extras."""

    model: StochasticModel | QuantalModel
    named_events: dict[str, str] = field(default_factory=dict)
    named_regions: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def event(self, name: str) -> int:
        """Resolve a named event to its mask."""
        return parse_event(self.model.site, self.named_events[name])


# -- parsing ----------------------------------------------------------------


def _rational(value: Any, source: str, where: str) -> Fraction:
    if isinstance(value, bool):
        raise _err(source, f"{where}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL_RE.fullmatch(value):
        raise _err(
            source, f"{where}: {value!r} is not a rational ('p/q' or integer)"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise _err(source, f"{where}: zero denominator in {value!r}") from None
    except ValueError:  # int() refuses more than 4,300 digits
        raise _err(source, f"{where}: a number of more than {sys.get_int_max_str_digits()} digits") from None


def _site_table(data: Any, source: str) -> CausalSite:
    sites = data.get("sites")
    if not isinstance(sites, list) or not sites:
        raise _err(source, "'sites' must be a non-empty list")
    pairs = []
    for i, entry in enumerate(sites):
        if not isinstance(entry, dict) or "id" not in entry or "alphabet" not in entry:
            raise _err(source, f"sites[{i}]: expected an object with 'id' and 'alphabet'")
        sid, k = entry["id"], entry["alphabet"]
        if not isinstance(sid, str) or not sid:
            raise _err(source, f"sites[{i}].id: expected a non-empty string")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _err(source, f"sites[{i}].alphabet: expected a positive integer")
        pairs.append((sid, k))
    order = data.get("order", [])
    if not isinstance(order, list):
        raise _err(source, "'order' must be a list of [below, above] pairs")
    relations = []
    ids = {sid for sid, _ in pairs}
    for i, rel in enumerate(order):
        if not isinstance(rel, list) or len(rel) != 2:
            raise _err(source, f"order[{i}]: expected a [below, above] pair")
        for sid in rel:
            if sid not in ids:
                raise _err(source, f"order[{i}]: unknown site id {sid!r}")
        relations.append((rel[0], rel[1]))
    try:
        return CausalSite(pairs, relations)
    except ValueError as e:
        raise _err(source, str(e)) from e


def _history_key(site: CausalSite, key: str, source: str) -> int:
    n = len(site.elements)
    if "." in key:
        parts = key.split(".")
    else:
        if any(k > 10 for k in site.alphabets):
            raise _err(
                source,
                f"weights key {key!r}: alphabets above 10 need '.'-separated digits",
            )
        parts = list(key)
    if len(parts) != n:
        raise _err(
            source, f"weights key {key!r}: expected {n} digits, got {len(parts)}"
        )
    digits = []
    for pos, part in enumerate(parts):
        if not re.fullmatch("[0-9]+", part):
            raise _err(source, f"weights key {key!r}: bad digit {part!r}")
        d = int(part)
        if d >= site.alphabets[pos]:
            raise _err(
                source,
                f"weights key {key!r}: digit {d} out of range for site "
                f"{site.elements[pos]!r} (alphabet {site.alphabets[pos]})",
            )
        digits.append(d)
    return history_index(site, digits)


def _stochastic_measure(
    site: CausalSite, measure: Mapping[str, Any], source: str
) -> StochasticModel:
    weights_map = measure.get("weights")
    if not isinstance(weights_map, dict):
        raise _err(source, "measure.weights must be an object keyed by history")
    weights = [Fraction(0)] * n_histories(site)
    keys: dict[int, str] = {}
    for key, value in weights_map.items():
        h = _history_key(site, key, source)
        if (given := keys.setdefault(h, key)) != key:
            raise _err(source, f"weights keys {given!r} and {key!r} name the same history")
        weights[h] = _rational(value, source, f"measure.weights[{key!r}]")
    try:
        return StochasticModel(site, weights)
    except ValueError as e:
        raise _err(source, str(e)) from e


def _quantal_measure(
    site: CausalSite, measure: Mapping[str, Any], source: str
) -> QuantalModel:
    from .quantal import ComplexFraction, QuantalModel, validate_quantal  # only quantal files load it

    matrix = measure.get("matrix")
    n = n_histories(site)
    if not isinstance(matrix, list) or len(matrix) != n:
        raise _err(source, f"measure.matrix must be a dense {n}x{n} array")
    entries = []
    for h, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise _err(source, f"measure.matrix[{h}]: expected {n} entries")
        out_row = []
        for g, cell in enumerate(row):
            if not isinstance(cell, dict):
                raise _err(
                    source, f"measure.matrix[{h}][{g}]: expected an object with 're'/'im'"
                )
            re_part = _rational(cell.get("re", 0), source, f"measure.matrix[{h}][{g}].re")
            im_part = _rational(cell.get("im", 0), source, f"measure.matrix[{h}][{g}].im")
            out_row.append(ComplexFraction(re_part, im_part))
        entries.append(out_row)
    try:
        q = QuantalModel(site, entries)
        report = validate_quantal(q)
    except ValueError as e:
        raise _err(source, str(e)) from e
    if report.verdict == VIOLATED:
        cx = report.counterexample
        raise _err(source, f"{cx.value('axiom')}: {cx.note}")
    return q


def _object(pairs: list, source: str) -> dict:
    """A JSON object from its (key, value) pairs; a key given twice is refused, not overwritten."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise _err(source, f"key {key!r} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def parse_model_text(text: str, source: str = "<string>") -> LoadedModel:
    """Parse and validate a model from JSON text."""
    try:
        data = json.loads(text, object_pairs_hook=lambda pairs: _object(pairs, source))
    except json.JSONDecodeError as e:
        raise _err(
            source, f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except RecursionError:
        raise _err(source, "invalid JSON: nested too deeply") from None
    except ModelFileError:
        raise
    except ValueError:  # int() refuses a JSON integer of more than 4,300 digits
        raise _err(source, f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise _err(source, "top level must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise _err(
            source,
            f"unsupported format_version {version!r} (this reader handles {FORMAT_VERSION})",
        )
    site = _site_table(data, source)
    measure = data.get("measure")
    if not isinstance(measure, dict) or "type" not in measure:
        raise _err(source, "'measure' must be an object with a 'type' tag")
    kind = measure["type"]
    if kind == "stochastic":
        model: StochasticModel | QuantalModel = _stochastic_measure(site, measure, source)
    elif kind == "quantal":
        model = _quantal_measure(site, measure, source)
    else:
        raise _err(source, f"measure.type must be 'stochastic' or 'quantal', not {kind!r}")

    named_events: dict[str, str] = {}
    for name, expr in (data.get("named_events") or {}).items():
        if not _NAME_RE.fullmatch(name):
            raise _err(source, f"named_events: {name!r} is not an identifier")
        if not isinstance(expr, str):
            raise _err(source, f"named_events[{name!r}]: expected an expression string")
        try:
            parse_event(site, expr)
        except ValueError as e:
            raise _err(source, f"named_events[{name!r}]: {e}") from e
        named_events[name] = expr

    named_regions: dict[str, tuple[str, ...]] = {}
    for name, ids in (data.get("named_regions") or {}).items():
        if not _NAME_RE.fullmatch(name):
            raise _err(source, f"named_regions: {name!r} is not an identifier")
        if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
            raise _err(source, f"named_regions[{name!r}]: expected a list of site ids")
        try:
            site.region(ids)
        except (KeyError, ValueError) as e:
            raise _err(source, f"named_regions[{name!r}]: {e}") from e
        named_regions[name] = tuple(ids)

    return LoadedModel(model, named_events, named_regions)


def load_model(path: str) -> LoadedModel:
    """Read, parse, and validate the model file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ModelFileError(f"model file error: {path}: {e.strerror or e}") from e
    return parse_model_text(text, source=path)


def parse_model(path: str) -> StochasticModel | QuantalModel:
    """Load a model file and return just the validated model."""
    return load_model(path).model


# -- rendering --------------------------------------------------------------


def _render_key(site: CausalSite, h: int) -> str:
    digits = history_digits(site, h)
    sep = "." if any(k > 10 for k in site.alphabets) else ""
    return sep.join(str(d) for d in digits)


def render_model(
    model: StochasticModel | QuantalModel,
    named_events: Mapping[str, str] | None = None,
    named_regions: Mapping[str, Sequence[str]] | None = None,
) -> dict:
    """Build the file dictionary for a model (inverse of parsing)."""
    site = model.site
    data: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "sites": [
            {"id": sid, "alphabet": k}
            for sid, k in zip(site.elements, site.alphabets)
        ],
        "order": sorted([a, b] for a, b in site.relation_pairs()),
    }
    if isinstance(model, StochasticModel):
        data["measure"] = {
            "type": "stochastic",
            "weights": {
                _render_key(site, h): str(w)
                for h, w in enumerate(model.weights)
                if w
            },
        }
    else:
        data["measure"] = {
            "type": "quantal",
            "matrix": [
                [{"re": str(c.re), "im": str(c.im)} for c in row]
                for row in model.entries
            ],
        }
    if named_events:
        data["named_events"] = dict(named_events)
    if named_regions:
        data["named_regions"] = {k: list(v) for k, v in named_regions.items()}
    return data


def render_model_json(
    model: StochasticModel | QuantalModel,
    named_events: Mapping[str, str] | None = None,
    named_regions: Mapping[str, Sequence[str]] | None = None,
) -> str:
    """Render a model as deterministic, human-diffable JSON text."""
    return json.dumps(
        render_model(model, named_events, named_regions),
        indent=2,
        sort_keys=True,
    ) + "\n"
