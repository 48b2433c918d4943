"""Experiment configuration: plain `key = value` text files and defaults.

The file format is flat: one `key = value` per line, `#` starts a comment,
vectors are space-separated.  Unknown and repeated keys are rejected so typos
fail loudly.

Every default lives in one place, the dataclass fields (`SceneConfig`,
`RisGeometry`, `GridMap`, `ExperimentConfig`).  `KEYS` maps each file key to
the field it sets; parsing, the unknown-key check and the default template
are all derived from it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import surrogate
from .channel import LIGHT_SPEED, ChannelModel, SceneConfig, Vec3
from .codebook import GridMap, RisGeometry
from .tracker import Method


@dataclass
class ExperimentConfig:
    """Everything one full run needs; every slot of the run reads its settings here."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    ris: RisGeometry | None = None  # None: half-wavelength panel for `scene`
    grid: GridMap = field(default_factory=GridMap)
    methods: tuple = (Method.ERGODIC, Method.RANDOM, Method.GP_EI, Method.TPE_EI)
    overheads: tuple = (0.2, 0.4, 0.6)
    speeds: tuple = (1, 2)
    total_slots: int = 12
    epochs: int = 100
    master_seed: int = 20240817
    warm_start: bool = False
    measure_with_noise: bool = False
    tpe_gamma: float = surrogate.DEFAULT_GAMMA
    kde_bandwidth: float = surrogate.DEFAULT_BANDWIDTH
    gp_length_scale: float = surrogate.DEFAULT_LENGTH_SCALE
    collect_timing: bool = True
    output_dir: str = "out"

    def __post_init__(self):
        # The derived panel is marked, so `dataclasses.replace`, which carries
        # it over, re-derives it for the new scene; a panel passed in is kept.
        if self.ris is None or getattr(self.ris, "_of_scene", False):
            self.ris = RisGeometry.for_scene(self.scene)
            object.__setattr__(self.ris, "_of_scene", True)
        # The run lists key the result table, so each entry must appear once.
        for key in ("methods", "overheads", "speeds"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must name at least one value")
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat an entry")
        if not all(0.0 < eta <= 1.0 for eta in self.overheads):
            raise ValueError("every overhead must be in (0, 1]")
        if not all(speed >= 1 for speed in self.speeds):
            raise ValueError("every speed must be >= 1 cell per slot")
        if self.total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 0.0 < self.tpe_gamma < 1.0:
            raise ValueError("tpe_gamma must be in (0, 1)")
        if not 0.0 < self.kde_bandwidth < math.inf:
            raise ValueError("kde_bandwidth must be positive and finite")
        if not 0.0 < self.gp_length_scale < math.inf:
            raise ValueError("gp_length_scale must be positive and finite")


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {raw!r}") from None


def _parse_vec3(raw: str) -> Vec3:
    parts = raw.split()
    if len(parts) != 3:
        raise ValueError(f"expected three numbers, got {raw!r}")
    return Vec3(*(float(p) for p in parts))


def _tuple_of(kind):
    return lambda raw: tuple(kind(v) for v in raw.split())


# file key -> (part of the config, field of that part, parser); "run" is
# ExperimentConfig itself.  Template order follows this table.
KEYS = {
    "carrier_frequency_hz": ("scene", "carrier_frequency", float),
    "num_bs_antennas": ("scene", "num_bs_antennas", int),
    "noise_power_dbm": ("scene", "noise_power_dbm", float),
    "channel_model": ("scene", "channel_model", ChannelModel),
    "bs_position": ("scene", "bs_position", _parse_vec3),
    "ris_origin": ("scene", "ris_origin", _parse_vec3),
    "ris_rows": ("ris", "rows", int),
    "ris_cols": ("ris", "cols", int),
    "element_spacing_m": ("ris", "element_spacing", float),
    "phase_bits": ("ris", "phase_bits", int),
    "grid_rows": ("grid", "rows", int),
    "grid_cols": ("grid", "cols", int),
    "cell_size_m": ("grid", "cell_size", float),
    "grid_origin": ("grid", "origin", _parse_vec3),
    "cell_height_m": ("grid", "cell_height", float),
    "methods": ("run", "methods", _tuple_of(Method)),
    "overheads": ("run", "overheads", _tuple_of(float)),
    "speeds": ("run", "speeds", _tuple_of(int)),
    "total_slots": ("run", "total_slots", int),
    "epochs": ("run", "epochs", int),
    "master_seed": ("run", "master_seed", int),
    "warm_start": ("run", "warm_start", _parse_bool),
    "measure_with_noise": ("run", "measure_with_noise", _parse_bool),
    "tpe_gamma": ("run", "tpe_gamma", float),
    "kde_bandwidth": ("run", "kde_bandwidth", float),
    "gp_length_scale": ("run", "gp_length_scale", float),
    "collect_timing": ("run", "collect_timing", _parse_bool),
    "output_dir": ("run", "output_dir", str),
}

# Accepted for older files and parsed, so a malformed value still fails, never
# stored: the codebook's breakpoint sweep is exact without an offset grid.
_RETIRED_KEYS = {"sweep_resolution": int}

# Accepted for older files and checked against the carrier frequency f, never
# stored: key -> (what it must equal, its value for a given f, relative tolerance).
_CHECKED_KEYS = {
    "light_speed": ("c", lambda f: LIGHT_SPEED, 1e-3),
    "wavelength_m": ("c/f", lambda f: LIGHT_SPEED / f, 0.01),
}

_DERIVED_FIELD = ("ris", "element_spacing")  # default: half the wavelength of the file's carrier


def _check(checked: dict[str, float], carrier_frequency: float) -> None:
    for key, stated in checked.items():
        what, value_for, tolerance = _CHECKED_KEYS[key]
        derived = value_for(carrier_frequency)
        if not abs(stated - derived) <= tolerance * derived:  # NaN fails too
            raise ValueError(f"{key} {stated} inconsistent with {what} = {derived:.6g}")


def parse_config_text(text: str) -> ExperimentConfig:
    parts: dict[str, dict] = {p: {} for p in ("scene", "ris", "grid", "run", "retired", "checked")}
    first_line: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in _CHECKED_KEYS:
            part, name, parse = "checked", key, float
        elif key in KEYS or key in _RETIRED_KEYS:
            part, name, parse = KEYS.get(key) or ("retired", key, _RETIRED_KEYS[key])
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            parts[part][name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    scene = SceneConfig(**parts["scene"])
    _check(parts["checked"], scene.carrier_frequency)
    ris = None  # no panel key: the scene's own panel, re-derived if the scene is replaced
    if parts["ris"]:
        ris = dataclasses.replace(RisGeometry.for_scene(scene), **parts["ris"])
    return ExperimentConfig(
        scene=scene,
        ris=ris,
        grid=GridMap(**parts["grid"]),
        **parts["run"],
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Vec3):
        value = (value.x, value.y, value.z)
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    if isinstance(value, float) and float(f"{value:g}") == value:
        return f"{value:g}"
    return str(value)


def _config_text(config: ExperimentConfig) -> str:
    lines = ["# ristrack experiment configuration: the defaults of `ristrack run`"]
    section = None
    for key, (part, name, _) in KEYS.items():
        if part != section:
            section = part
            lines += ["", f"# -- {part} " + "-" * (66 - len(part))]
        if (part, name) == _DERIVED_FIELD:
            lines.append(f"# {key} =    # default: half the wavelength c/f of the carrier")
            continue
        value = getattr(config if part == "run" else getattr(config, part), name)
        line = f"{key} = {_render(value)}"
        if isinstance(value, Enum):
            line += "    # " + " | ".join(member.value for member in type(value))
        lines.append(line)
    return "\n".join(lines) + "\n"


DEFAULT_CONFIG_TEXT = _config_text(ExperimentConfig())
