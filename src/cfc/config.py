"""The run config. The dataclass tree below is its schema: a field of
RunConfig is a top-level key, one typed as a dataclass is a block (omitted
means {}), a field with a default is an optional key, one without is
required, and the annotation gives the JSON type. _NOT_KEYS lists the fields
no key sets. Unknown keys are rejected; range checks live in __post_init__.

Every config dataclass lives here, the block of each numeric module too
(CoarseConfig, PropagationConfig, MixupConfig, TrainConfig, GatewayConfig);
each module imports its block back. So validating a config imports no
numpy.
"""

from __future__ import annotations

import functools
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .jsonl import read_json

# offset of each random stream from the config seed, so no two collide
SEED_OFFSETS = {"coarse": 0, "mixup": 1, "prelim": 2, "fine": 3, "baseline": 4}


class ConfigError(ValueError):
    """Bad config, bad dataset, or a stage invoked out of order."""


@dataclass(frozen=True)
class DatasetConfig:
    nodes: str
    edges: str
    features: str


@dataclass(frozen=True)
class SplitConfig:
    id_classes: tuple[str, ...]
    ood_classes: tuple[str, ...]
    train_frac: float = 0.5
    val_frac: float = 0.4

    def __post_init__(self):
        if len(self.id_classes) < 2:
            raise ValueError("split.id_classes needs at least two classes")
        if not self.ood_classes:
            raise ValueError("split.ood_classes must not be empty")
        if any(len(set(names)) < len(names) for names in (self.id_classes, self.ood_classes)):
            raise ValueError("duplicate class names in split config")
        if set(self.id_classes) & set(self.ood_classes):
            raise ValueError("id_classes and ood_classes overlap")
        if not (0.0 < self.train_frac < 1.0) or not (0.0 < self.val_frac < 1.0):
            raise ValueError("split fractions must lie in (0, 1)")


DEFAULT_TEXT_BUDGET = 4000
TRUNCATION_MARKER = "..."

# each prompt template is the file <name>.txt in TEMPLATE_DIR, the packaged
# one, or coarse.template_dir when set; the screening ones are named by mode
TEMPLATE_NAMES = ("easy_reject", "hard_reject", "major_category",
                  "candidate_ood", "ood_classification")
TEMPLATE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "templates")

BASE_URL_ENV = "CFC_LLM_BASE_URL"


@dataclass(frozen=True)
class CoarseConfig:
    mode: str = "easy_reject"             # or "hard_reject"
    confidence_threshold: float = 0.7
    candidate_count: int = 10
    max_parse_retries: int = 2
    node_budget: int | None = None        # None queries every requested node
    text_budget: int = DEFAULT_TEXT_BUDGET
    template_dir: str | None = None
    seed: int = 0                         # drives node_budget subsampling only
    id_labels: tuple[str, ...] = ()       # known label space shown to the LLM

    def __post_init__(self):
        if self.mode not in ("easy_reject", "hard_reject"):
            raise ValueError(f"unknown coarse mode {self.mode!r}")
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be >= 1")
        if self.max_parse_retries < 0:
            raise ValueError("max_parse_retries must be >= 0")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be >= 1 when set")
        if self.text_budget <= len(TRUNCATION_MARKER):
            raise ValueError("text_budget too small")


@dataclass(frozen=True)
class PropagationConfig:
    steps: int = 10

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass(frozen=True)
class MixupConfig:
    alpha: float = 0.5
    boundary_count: int = 10
    synth_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.boundary_count < 1:
            raise ValueError("boundary_count must be >= 1")
        if self.synth_count < 1:
            raise ValueError("synth_count must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    hidden_dim: int = 64
    early_stop_patience: int = 30
    seed: int = 0
    head: str = "softmax"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.head not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown head {self.head!r}")


@dataclass(frozen=True)
class GatewayConfig:
    mode: str = "mock"                    # "mock" or "live"
    base_url: str = ""
    model_name: str = "mock-model"
    temperature: float = 0.0
    max_retries: int = 3
    request_timeout: float = 30.0
    max_concurrent: int = 4
    mock_fixture_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("mock", "live"):
            raise ValueError(f"mode must be 'mock' or 'live', got {self.mode!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.request_timeout > 0:
            raise ValueError("request_timeout must be > 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


@dataclass(frozen=True)
class MergeConfig:
    sim_threshold: float = 0.5
    min_count: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.sim_threshold <= 1.0):
            raise ValueError("merge.sim_threshold must lie in [0, 1]")
        if self.min_count is not None and self.min_count < 1:
            raise ValueError("merge.min_count must be >= 1 when set")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """A validated run: one dataclass per block, paths absolute; resolved is
    the plain dict of every key, which input hashes and resolved.json use."""

    seed: int
    artifacts_dir: str = "artifacts"
    dataset: DatasetConfig
    split: SplitConfig
    coarse: CoarseConfig
    propagation: PropagationConfig
    mixup: MixupConfig
    train: TrainConfig
    merge: MergeConfig
    gateway: GatewayConfig
    resolved: dict

    def artifact(self, name: str) -> str:
        return os.path.join(self.artifacts_dir, name)


# fields no key sets: the derived seeds and ID labels, the per-model GCN head
_NOT_KEYS = {RunConfig: ("resolved",), CoarseConfig: ("seed", "id_labels"),
             MixupConfig: ("seed",), TrainConfig: ("seed", "head")}


# annotation -> (what the error says was expected, test); the values come
# from JSON, so types are exact: a bool is not an integer
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    # NaN fails the comparison, and so does an integer too large for a float
    float: ("a finite number", lambda v: type(v) in (int, float)
            and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: type(v) is str),
    tuple[str, ...]: ("a list of strings", lambda v: type(v) is list
                      and all(type(s) is str for s in v)),
    int | None: ("an integer or null", lambda v: v is None or type(v) is int),
    str | None: ("a string or null", lambda v: v is None or type(v) is str),
}


@functools.cache
def _spec(cls) -> dict:
    """key -> (annotation, default) of cls, annotations resolved once."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in fields(cls)
            if f.name not in _NOT_KEYS.get(cls, ())}


@functools.cache
def _keys(cls) -> tuple:
    """(key, hint, default, kind) per key of cls, classified once: kind is
    None for a block (a dataclass hint), else the plain key's _KINDS entry."""
    return tuple((key, hint, default, None if is_dataclass(hint) else _KINDS[hint])
                 for key, (hint, default) in _spec(cls).items())


def _walk(cls, raw: dict, prefix: str) -> dict:
    """Check raw against cls's keys; returns it typed and default-filled."""
    spec = _spec(cls)
    for key in raw:
        if key not in spec:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    out = {}
    for key, hint, default, kind in _keys(cls):
        dotted = prefix + key
        if kind is None:
            block = raw.get(key, {})
            if not isinstance(block, dict):
                raise ConfigError(f"{dotted}: expected an object")
            out[key] = _walk(hint, block, dotted + ".")
        elif key not in raw:
            if default is MISSING:
                raise ConfigError(f"missing required config key {dotted!r}")
            out[key] = default
        else:
            value = raw[key]
            expected, test = kind
            if not test(value):
                raise ConfigError(f"{dotted}: expected {expected}, got {value!r}")
            out[key] = float(value) if hint is float else value
    return out


def _build(cls, values: dict, derived: dict):
    """cls from walked values; derived[cls] holds the fields that are not keys."""
    kwargs = dict(derived.get(cls, {}))
    for key, hint, _, kind in _keys(cls):
        value = values[key]
        kwargs[key] = (_build(hint, value, derived) if kind is None
                       else tuple(value) if isinstance(value, list) else value)
    return cls(**kwargs)


def validate_config(path: str, artifacts_override: str | None = None) -> RunConfig:
    """Load, check and default-fill a JSON run config; relative paths are
    taken relative to the config file. Writes no file."""
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    r = _walk(RunConfig, raw, "")
    base_dir = os.path.dirname(os.path.abspath(path))

    def absolute(value: str) -> str:
        return value if os.path.isabs(value) else os.path.normpath(
            os.path.join(base_dir, value))

    def check_path(block: str, key: str, exists, what: str) -> None:
        r[block][key] = value = absolute(r[block][key])
        if not exists(value):
            raise ConfigError(f"{block}.{key}: no such {what} {value}")

    if artifacts_override is not None:
        r["artifacts_dir"] = artifacts_override
    r["artifacts_dir"] = absolute(r["artifacts_dir"])
    for key in ("nodes", "edges", "features"):
        check_path("dataset", key, os.path.isfile, "file")
    if r["coarse"]["template_dir"] is not None:
        check_path("coarse", "template_dir", os.path.isdir, "directory")
    gw = r["gateway"]
    if gw["mode"] == "mock":
        if gw["mock_fixture_path"] is None:
            raise ConfigError("gateway.mock_fixture_path is required in mock mode")
        check_path("gateway", "mock_fixture_path", os.path.isfile, "file")
    elif not gw["base_url"] and not os.environ.get(BASE_URL_ENV):
        raise ConfigError(f"gateway.base_url (or ${BASE_URL_ENV}) is required in live mode")

    seed = r["seed"]
    derived = {RunConfig: {"resolved": r},
               CoarseConfig: {"seed": seed + SEED_OFFSETS["coarse"],
                              "id_labels": tuple(r["split"]["id_classes"])},
               MixupConfig: {"seed": seed + SEED_OFFSETS["mixup"]},
               TrainConfig: {"seed": seed + SEED_OFFSETS["prelim"]}}
    try:
        return _build(RunConfig, r, derived)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
