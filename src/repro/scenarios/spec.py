"""Declarative scenario specifications.

A scenario is *data*: a named set of piecewise channel-field curves
(signal, loss, bandwidth, media-access latency), checkpoint labels, a
cross-laptop count and a duration.  :class:`ScenarioSpec` captures that
data; :class:`SpecScenario` evaluates it through the exact same
``jittered``/``spike`` draws the original hand-written scenario classes
used, so a spec-based scenario replays byte-identically.

Specs round-trip losslessly through plain dicts
(:func:`spec_to_dict` / :func:`spec_from_dict`) and therefore through
TOML or JSON files (:func:`load_spec`), which is what lets a scenario
be authored with no Python at all — see ``docs/SCENARIOS.md`` and
``examples/custom_scenario.toml``.

Evaluation model
----------------

Each channel field is a list of :class:`FieldPiece` segments ordered by
``end`` fraction; the piece covering the current position ``u`` supplies

* a ``base`` value, optionally ramped linearly (``base + slope * frac``
  where ``frac = (u - start) / span``),
* Gaussian jitter (``rel`` sigma, clamped to ``[lo, hi]``),
* an optional occasional ``dip`` (replace the value with a uniform
  draw) and an optional additive ``spike``.

Fields are drawn in ``draw_order`` so the per-trial RNG stream is
consumed in a well-defined sequence — the property that makes replay
bit-reproducible and lets the golden-master corpus pin behaviour.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..net.wavelan import ChannelConditions
from .base import Checkpoint, Scenario, jittered, spike

FIELD_NAMES = ("signal", "loss", "bandwidth", "access")
DEFAULT_DRAW_ORDER = FIELD_NAMES

# Per-piece draw distributions.  "gauss" is the original jittered()
# path and stays byte-identical; "lognormal" and "uniform" let the
# ERRANT-style statistical families express heavier-tailed draws.
PIECE_DISTS = ("gauss", "lognormal", "uniform")

# Format 2 added piece distributions and the family/generator keys.
# Format-1 documents (no new keys) still load; format-2 documents are
# rejected by format-1 readers — loudly, by version number.
SPEC_FORMAT_VERSION = 2
SUPPORTED_SPEC_FORMATS = (1, 2)


class SpecError(ValueError):
    """A scenario spec is malformed."""


# ======================================================================
# The spec data model
# ======================================================================
@dataclass(frozen=True)
class FieldPiece:
    """One segment of a channel field's piecewise curve.

    The piece applies while ``u < end`` (``u <= end`` when
    ``inclusive``); its start is the previous piece's ``end`` (0.0 for
    the first).  ``span`` overrides the ramp denominator ``end - start``
    — needed when a hand-written formula used a literal span whose
    floating-point value differs from the subtraction.
    """

    end: float = 1.0
    base: float = 0.0
    slope: float = 0.0           # value change per unit of local ramp
    span: Optional[float] = None  # ramp denominator; default end - start
    rel: float = 0.15            # Gaussian jitter sigma, relative
    lo: float = 0.0              # clamp floor
    hi: Optional[float] = None   # clamp ceiling
    inclusive: bool = False      # u == end belongs to this piece
    spike_prob: float = 0.0      # additive spike probability
    spike_magnitude: float = 0.0
    dip_prob: float = 0.0        # replace-with-uniform probability
    dip_lo: float = 0.0
    dip_hi: float = 0.0
    dist: str = "gauss"          # draw distribution (PIECE_DISTS)


@dataclass(frozen=True)
class LossModel:
    """How the scalar loss draw maps onto per-direction probabilities."""

    up_scale: float = 1.0
    up_cap: Optional[float] = None
    down_scale: float = 1.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as pure data: channel curves plus traversal metadata."""

    name: str
    duration: float = 240.0
    checkpoints: Tuple[Checkpoint, ...] = ()
    cross_laptops: int = 0
    has_motion: bool = True
    draw_order: Tuple[str, ...] = DEFAULT_DRAW_ORDER
    fields: Mapping[str, Tuple[FieldPiece, ...]] = field(default_factory=dict)
    loss_model: LossModel = LossModel()
    description: str = ""
    # Profile family the fields were compiled from (MobilityFamily,
    # RanFamily or LeoFamily — see repro.scenarios.families); None for
    # hand-written piecewise specs.  Families serialize in place of the
    # derived fields and recompile deterministically on load.
    family: Optional[Any] = None
    # Provenance stamp set by repro.scenarios.generate; lets fuzz
    # artifacts be distinguished from hand-authored spec files.
    generator: str = ""

    def __post_init__(self):
        object.__setattr__(self, "fields", dict(self.fields))

    # -- validation ----------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Raise :class:`SpecError` on an ill-formed spec; return self."""
        if not self.name or not isinstance(self.name, str):
            raise SpecError("scenario spec needs a non-empty name")
        if self.name != self.name.lower():
            raise SpecError(f"scenario name {self.name!r} must be lowercase")
        if self.duration <= 0:
            raise SpecError(f"duration must be positive, got {self.duration}")
        if self.cross_laptops < 0:
            raise SpecError("cross_laptops cannot be negative")
        if sorted(self.draw_order) != sorted(FIELD_NAMES):
            raise SpecError(
                f"draw_order must be a permutation of {FIELD_NAMES}, "
                f"got {self.draw_order}")
        for fname in FIELD_NAMES:
            pieces = self.fields.get(fname)
            if not pieces:
                raise SpecError(f"field {fname!r} needs at least one piece")
            prev_end = 0.0
            for i, piece in enumerate(pieces):
                if piece.end <= prev_end and i < len(pieces) - 1:
                    raise SpecError(
                        f"{fname} piece {i}: end {piece.end} must exceed "
                        f"the previous piece's end {prev_end}")
                if piece.span is not None and piece.span <= 0:
                    raise SpecError(f"{fname} piece {i}: span must be "
                                    f"positive")
                if not (0.0 <= piece.spike_prob <= 1.0
                        and 0.0 <= piece.dip_prob <= 1.0):
                    raise SpecError(f"{fname} piece {i}: probabilities "
                                    f"must lie in [0, 1]")
                if piece.dist not in PIECE_DISTS:
                    raise SpecError(
                        f"{fname} piece {i}: unknown dist "
                        f"{piece.dist!r}; choose from {PIECE_DISTS}")
                if piece.dist == "lognormal" and piece.base < 0:
                    raise SpecError(
                        f"{fname} piece {i}: lognormal pieces need a "
                        f"non-negative base, got {piece.base}")
                prev_end = piece.end
        last = 0.0
        for cp in self.checkpoints:
            if not 0.0 <= cp.fraction <= 1.0:
                raise SpecError(f"checkpoint {cp.label!r}: fraction "
                                f"{cp.fraction} outside [0, 1]")
            if cp.fraction < last:
                raise SpecError("checkpoint fractions must be "
                                "nondecreasing")
            last = cp.fraction
        if self.family is not None:
            validate = getattr(self.family, "validate", None)
            if not callable(validate):
                raise SpecError(
                    f"family must be a profile family object, got "
                    f"{type(self.family).__name__}")
            validate()
        if not isinstance(self.generator, str):
            raise SpecError("generator must be a string")
        return self


# ======================================================================
# Evaluation
# ======================================================================
def _select_piece(pieces: Tuple[FieldPiece, ...],
                  u: float) -> Tuple[FieldPiece, float]:
    """(piece, piece start) for position ``u``."""
    start = 0.0
    for piece in pieces:
        if u < piece.end or (piece.inclusive and u == piece.end):
            return piece, start
        start = piece.end
    # Past the last end: the final piece extends to the right.
    last_start = pieces[-2].end if len(pieces) > 1 else 0.0
    return pieces[-1], last_start


def _clamped(value: float, lo: float, hi: Optional[float]) -> float:
    if hi is not None:
        value = min(hi, value)
    return max(lo, value)


def evaluate_field(pieces: Tuple[FieldPiece, ...], u: float,
                   rng: random.Random) -> float:
    """One stochastic draw of a piecewise field at position ``u``.

    Draw order within a piece is fixed — the distribution draw, then
    the optional dip check, then the optional spike — so a spec
    consumes the trial RNG stream identically on every evaluation.
    ``dist="gauss"`` (the default) is byte-identical to the original
    hand-written scenarios' ``jittered`` path; ``lognormal`` draws
    ``base * exp(N(0, rel))`` (median ``base``, heavy right tail) and
    ``uniform`` draws from ``base ± |base| * rel``, both clamped to
    ``[lo, hi]``.
    """
    piece, start = _select_piece(pieces, u)
    base = piece.base
    if piece.slope != 0.0:
        span = piece.span if piece.span is not None else piece.end - start
        frac = (u - start) / span
        base = base + piece.slope * frac
    if piece.dist == "lognormal":
        # A ramp may drive the effective base to zero; the draw still
        # consumes RNG so the stream stays aligned across pieces.
        draw = rng.lognormvariate(0.0, piece.rel)
        value = _clamped(base * draw if base > 0.0 else 0.0,
                         piece.lo, piece.hi)
    elif piece.dist == "uniform":
        half = abs(base) * piece.rel
        value = _clamped(rng.uniform(base - half, base + half),
                         piece.lo, piece.hi)
    else:
        value = jittered(rng, base, rel=piece.rel, lo=piece.lo,
                         hi=piece.hi)
    if piece.dip_prob > 0.0 and rng.random() < piece.dip_prob:
        value = rng.uniform(piece.dip_lo, piece.dip_hi)
    if piece.spike_magnitude != 0.0:
        value += spike(rng, piece.spike_prob, piece.spike_magnitude)
    return value


class SpecScenario(Scenario):
    """A :class:`Scenario` whose behaviour comes entirely from a spec.

    Subclasses bind a class-level ``spec`` (the builtin scenarios);
    instances may also be built directly from a loaded spec, which is
    how TOML/JSON scenarios run with no Python class at all.
    """

    spec: ScenarioSpec

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        spec = cls.__dict__.get("spec")
        if spec is not None:
            spec.validate()
            cls.name = spec.name
            cls.duration = spec.duration
            cls.checkpoints = tuple(spec.checkpoints)
            cls.cross_laptops = spec.cross_laptops
            cls.has_motion = spec.has_motion

    def __init__(self, spec: Optional[ScenarioSpec] = None):
        if spec is not None:
            spec.validate()
            self.spec = spec
            self.name = spec.name
            self.duration = spec.duration
            self.checkpoints = tuple(spec.checkpoints)
            self.cross_laptops = spec.cross_laptops
            self.has_motion = spec.has_motion
        elif getattr(type(self), "spec", None) is None:
            raise SpecError(f"{type(self).__name__} has no spec bound")

    def base_conditions(self, u: float,
                        rng: random.Random) -> ChannelConditions:
        spec = self.spec
        values: Dict[str, float] = {}
        for fname in spec.draw_order:
            values[fname] = evaluate_field(spec.fields[fname], u, rng)
        loss = values["loss"]
        model = spec.loss_model
        loss_up = loss * model.up_scale
        if model.up_cap is not None:
            loss_up = min(model.up_cap, loss_up)
        return ChannelConditions(
            signal_level=values["signal"],
            loss_prob_up=loss_up,
            loss_prob_down=loss * model.down_scale,
            bandwidth_factor=values["bandwidth"],
            access_latency_mean=values["access"],
        )

    def cache_token(self):
        """The spec's token as a :class:`~repro.pipeline.Canonical`,
        built once per scenario object and spec: a sweep fingerprints
        each scenario for every trial it runs, and a spec is frozen."""
        memo = self.__dict__.get("_token_memo")
        if memo is None or memo[0] is not self.spec:
            from ..pipeline.fingerprint import Canonical

            memo = self._token_memo = (self.spec, Canonical(
                {"type": "SpecScenario", "format": SPEC_FORMAT_VERSION,
                 "spec": spec_to_dict(self.spec)}))
        return memo[1]

    def __getstate__(self):
        # Workers get the spec, not its rendered token.
        state = self.__dict__.copy()
        state.pop("_token_memo", None)
        return state


# ======================================================================
# Dict / file round-tripping
# ======================================================================
_PIECE_KEYS = tuple(f.name for f in dataclass_fields(FieldPiece))
_LOSS_KEYS = tuple(f.name for f in dataclass_fields(LossModel))
_TOP_KEYS = ("name", "duration", "checkpoints", "cross_laptops",
             "has_motion", "draw_order", "fields", "loss_model",
             "description", "format", "family", "generator")


def _piece_to_dict(piece: FieldPiece) -> Dict[str, Any]:
    return {key: getattr(piece, key) for key in _PIECE_KEYS}


def _piece_from_dict(data: Mapping[str, Any], where: str) -> FieldPiece:
    unknown = set(data) - set(_PIECE_KEYS) - {"to"}
    if unknown:
        raise SpecError(f"{where}: unknown piece keys {sorted(unknown)}")
    kwargs = {key: data[key] for key in _PIECE_KEYS if key in data}
    if "to" in data:
        # Sugar: an absolute ramp target instead of a slope.
        if "slope" in data:
            raise SpecError(f"{where}: give either 'slope' or 'to', "
                            f"not both")
        kwargs["slope"] = float(data["to"]) - float(data.get("base", 0.0))
    try:
        return FieldPiece(**kwargs)
    except TypeError as exc:  # pragma: no cover - defensive
        raise SpecError(f"{where}: {exc}") from exc


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """A plain-data (JSON/TOML-ready) rendering of the spec.

    Lossless: ``spec_from_dict(spec_to_dict(s)) == s`` for any valid
    spec, which the Hypothesis suite asserts.  A family-backed spec
    serializes its family table in place of the derived ``fields`` —
    the compiler is a pure function, so loading recompiles the exact
    same pieces.
    """
    doc = {
        "format": SPEC_FORMAT_VERSION,
        "name": spec.name,
        "duration": spec.duration,
        "cross_laptops": spec.cross_laptops,
        "has_motion": spec.has_motion,
        "description": spec.description,
        "generator": spec.generator,
        "draw_order": list(spec.draw_order),
        "checkpoints": [{"label": cp.label, "fraction": cp.fraction}
                        for cp in spec.checkpoints],
        "loss_model": {key: getattr(spec.loss_model, key)
                       for key in _LOSS_KEYS},
    }
    if spec.family is not None:
        doc["family"] = spec.family.as_dict()
    else:
        doc["fields"] = {fname: [_piece_to_dict(p) for p in pieces]
                         for fname, pieces in spec.fields.items()}
    return doc


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Parse and validate a spec from plain data (TOML/JSON shaped)."""
    if not isinstance(data, Mapping):
        raise SpecError(f"spec document must be a table/object, "
                        f"got {type(data).__name__}")
    unknown = set(data) - set(_TOP_KEYS)
    if unknown:
        raise SpecError(f"unknown spec keys {sorted(unknown)}")
    fmt = data.get("format", SPEC_FORMAT_VERSION)
    if fmt not in SUPPORTED_SPEC_FORMATS:
        raise SpecError(f"unsupported spec format {fmt!r} "
                        f"(this build reads formats "
                        f"{SUPPORTED_SPEC_FORMATS})")
    if "name" not in data:
        raise SpecError("spec needs a 'name'")
    family = None
    if "family" in data:
        if "fields" in data:
            raise SpecError("give either 'family' or 'fields', not both "
                            "(family specs derive their fields)")
        from .families import family_from_dict

        family = family_from_dict(data["family"], "family")
        pieces = family.compile_fields()
    else:
        if "fields" not in data or not isinstance(data["fields"], Mapping):
            raise SpecError("spec needs a 'fields' table with "
                            f"{', '.join(FIELD_NAMES)} (or a 'family')")
        unknown_fields = set(data["fields"]) - set(FIELD_NAMES)
        if unknown_fields:
            raise SpecError(
                f"unknown channel fields {sorted(unknown_fields)}; "
                f"expected {FIELD_NAMES}")
        pieces = {}
        for fname, raw_pieces in data["fields"].items():
            if not isinstance(raw_pieces, (list, tuple)):
                raise SpecError(f"field {fname!r} must be a list of "
                                f"pieces")
            pieces[fname] = tuple(
                _piece_from_dict(raw, f"field {fname!r} piece {i}")
                for i, raw in enumerate(raw_pieces))
    checkpoints = []
    for i, raw in enumerate(data.get("checkpoints", ())):
        extra = set(raw) - {"label", "fraction"}
        if extra:
            raise SpecError(f"checkpoint {i}: unknown keys {sorted(extra)}")
        try:
            checkpoints.append(Checkpoint(label=str(raw["label"]),
                                          fraction=float(raw["fraction"])))
        except KeyError as exc:
            raise SpecError(f"checkpoint {i}: missing {exc}") from exc
    loss_raw = data.get("loss_model", {})
    extra = set(loss_raw) - set(_LOSS_KEYS)
    if extra:
        raise SpecError(f"loss_model: unknown keys {sorted(extra)}")
    spec = ScenarioSpec(
        name=data["name"],
        duration=float(data.get("duration", 240.0)),
        checkpoints=tuple(checkpoints),
        cross_laptops=int(data.get("cross_laptops", 0)),
        has_motion=bool(data.get("has_motion", True)),
        draw_order=tuple(data.get("draw_order", DEFAULT_DRAW_ORDER)),
        fields=pieces,
        loss_model=LossModel(**loss_raw),
        description=str(data.get("description", "")),
        family=family,
        # No str() coercion: validate() rejects non-string stamps loudly.
        generator=data.get("generator", ""),
    )
    return spec.validate()


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a TOML or JSON file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise SpecError(f"{path}: scenario specs must be .toml or .json")
    try:
        return spec_from_dict(data)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc


_TOML_SHORT_ESCAPES = {
    "\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r",
    '"': '\\"', "\\": "\\\\",
}


def _toml_string(value: str) -> str:
    """A TOML basic string.  Unlike ``json.dumps``, astral characters
    stay literal: TOML forbids the surrogate-pair ``\\uXXXX`` escapes
    JSON would emit for them."""
    out = ['"']
    for ch in value:
        esc = _TOML_SHORT_ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _toml_value(value: Any) -> str:
    """Render one spec value as TOML (the restricted types specs use)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a dot or exponent; repr(1.0) == '1.0' but
        # repr of integral numpy-free floats can be bare on some paths.
        return text if ("." in text or "e" in text or "E" in text) \
            else text + ".0"
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, Mapping):
        # TOML has no null: omit None-valued keys (loaders treat a
        # missing key as the same default).
        inner = ", ".join(f"{k} = {_toml_value(v)}"
                          for k, v in value.items() if v is not None)
        return "{" + inner + "}"
    raise SpecError(f"cannot render {type(value).__name__} as TOML")


def spec_to_toml(spec: ScenarioSpec) -> str:
    """The spec as a TOML document ``load_spec`` parses back losslessly.

    Scalars become top-level keys; checkpoints/pieces become arrays of
    inline tables; the family table (when present) becomes a
    ``[family]`` section.
    """
    doc = spec_to_dict(spec)
    lines = []
    for key in ("format", "name", "duration", "cross_laptops",
                "has_motion", "description", "generator", "draw_order"):
        lines.append(f"{key} = {_toml_value(doc[key])}")
    if doc["checkpoints"]:
        lines.append(f"checkpoints = {_toml_value(doc['checkpoints'])}")
    lines.append("")
    lines.append("[loss_model]")
    for key, value in doc["loss_model"].items():
        if value is not None:
            lines.append(f"{key} = {_toml_value(value)}")
    if "family" in doc:
        lines.append("")
        lines.append("[family]")
        for key, value in doc["family"].items():
            lines.append(f"{key} = {_toml_value(value)}")
    else:
        lines.append("")
        lines.append("[fields]")
        for fname, pieces in doc["fields"].items():
            rendered = ",\n    ".join(_toml_value(p) for p in pieces)
            lines.append(f"{fname} = [\n    {rendered},\n]")
    lines.append("")
    return "\n".join(lines)


def save_spec(spec: ScenarioSpec, path: Union[str, Path]) -> None:
    """Write the spec to disk — TOML for ``.toml`` paths, else JSON."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        path.write_text(spec_to_toml(spec), encoding="utf-8")
    else:
        path.write_text(json.dumps(spec_to_dict(spec), indent=1),
                        encoding="utf-8")


def load_scenario(path: Union[str, Path]) -> SpecScenario:
    """A runnable scenario straight from a TOML/JSON spec file."""
    return SpecScenario(load_spec(path))
