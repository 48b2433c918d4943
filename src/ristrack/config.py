"""Experiment configuration: plain `key = value` text files and defaults.

The file format is flat: one `key = value` per line, `#` starts a comment,
vectors are space-separated.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .channel import LIGHT_SPEED, ChannelModel, SceneConfig, Vec3
from .codebook import GridMap, RisGeometry
from .tracker import Method, TrackerConfig

DEFAULT_METHODS = (Method.ERGODIC, Method.RANDOM, Method.GP_EI, Method.TPE_EI)
DEFAULT_OVERHEADS = (0.2, 0.4, 0.6)
DEFAULT_SPEEDS = (1, 2)


@dataclass
class ExperimentConfig:
    """Everything the benchmark harness needs for one full run."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    ris: RisGeometry | None = None
    grid: GridMap = field(default_factory=GridMap)
    methods: tuple = DEFAULT_METHODS
    overheads: tuple = DEFAULT_OVERHEADS
    speeds: tuple = DEFAULT_SPEEDS
    total_slots: int = 12
    epochs: int = 100
    master_seed: int = 20240817
    warm_start: bool = False
    measure_with_noise: bool = False
    tpe_gamma: float = 0.25
    kde_bandwidth: float = 1.0
    gp_length_scale: float = 2.0
    sweep_resolution: int = 64
    collect_timing: bool = True
    output_dir: str = "out"

    def __post_init__(self):
        if self.ris is None:
            self.ris = RisGeometry.for_scene(self.scene)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not all(0.0 < eta <= 1.0 for eta in self.overheads):
            raise ValueError("every overhead must be in (0, 1]")

    def tracker(self, method: Method, eta: float) -> TrackerConfig:
        """Per-slot search settings of one (method, overhead) cell of this run."""
        return TrackerConfig(
            method=method,
            overhead=eta,
            total_slots=self.total_slots,
            warm_start=self.warm_start,
            measure_with_noise=self.measure_with_noise,
            gamma=self.tpe_gamma,
            kde_bandwidth=self.kde_bandwidth,
            length_scale=self.gp_length_scale,
            collect_timing=self.collect_timing,
        )


DEFAULT_CONFIG_TEXT = """\
# ristrack experiment configuration (defaults mirror the standard setup)

# -- scene ------------------------------------------------------------
carrier_frequency_hz = 5.8e9
light_speed = 3.0e8
wavelength_m = 0.0517          # informational; derived internally as c/f
num_bs_antennas = 2
noise_power_dbm = -120
channel_model = free_space     # free_space | empirical_log
bs_position = 0.0 0.0 0.5
ris_origin = 0.0 0.0 0.0

# -- RIS panel --------------------------------------------------------
ris_rows = 10
ris_cols = 10
element_spacing_m = 0.0259     # omit to default to half the derived wavelength
phase_bits = 2

# -- UE grid ----------------------------------------------------------
grid_rows = 10
grid_cols = 10
cell_size_m = 0.4
grid_origin = 0.4 -2.0 0.0
cell_height_m = 1.5

# -- tracking & benchmark ---------------------------------------------
methods = ergodic random gp_ei tpe_ei
overheads = 0.2 0.4 0.6
speeds = 1 2
total_slots = 12
epochs = 100
master_seed = 20240817
warm_start = false
measure_with_noise = false
tpe_gamma = 0.25
kde_bandwidth = 1.0
gp_length_scale = 2.0
sweep_resolution = 64
collect_timing = true
output_dir = out
"""

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_KNOWN_KEYS = {
    "carrier_frequency_hz", "light_speed", "wavelength_m", "num_bs_antennas",
    "noise_power_dbm", "channel_model", "bs_position", "ris_origin",
    "ris_rows", "ris_cols", "element_spacing_m", "phase_bits",
    "grid_rows", "grid_cols", "cell_size_m", "grid_origin", "cell_height_m",
    "methods", "overheads", "speeds", "total_slots", "epochs", "master_seed",
    "warm_start", "measure_with_noise", "tpe_gamma", "kde_bandwidth",
    "gp_length_scale", "sweep_resolution", "collect_timing", "output_dir",
}


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"{key}: expected true/false, got {raw!r}") from None


def _parse_vec3(raw: str, key: str) -> Vec3:
    parts = raw.split()
    if len(parts) != 3:
        raise ValueError(f"{key}: expected three numbers, got {raw!r}")
    return Vec3(*(float(p) for p in parts))


def parse_config_text(text: str) -> ExperimentConfig:
    kv: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kv[key] = value

    def get(key, default=None):
        return kv.get(key, default)

    fc = float(get("carrier_frequency_hz", "5.8e9"))
    light_speed = float(get("light_speed", str(LIGHT_SPEED)))
    if abs(light_speed - LIGHT_SPEED) > 1e-3 * LIGHT_SPEED:
        raise ValueError("light_speed is fixed at 3e8 m/s")
    derived_wavelength = LIGHT_SPEED / fc
    if "wavelength_m" in kv:
        stated = float(kv["wavelength_m"])
        if abs(stated - derived_wavelength) > 0.01 * derived_wavelength:
            raise ValueError(
                f"wavelength_m {stated} inconsistent with c/f = {derived_wavelength:.6g}"
            )

    scene = SceneConfig(
        bs_position=_parse_vec3(get("bs_position", "0 0 0.5"), "bs_position"),
        ris_origin=_parse_vec3(get("ris_origin", "0 0 0"), "ris_origin"),
        carrier_frequency=fc,
        num_bs_antennas=int(get("num_bs_antennas", "2")),
        noise_power_dbm=float(get("noise_power_dbm", "-120")),
        channel_model=ChannelModel(get("channel_model", "free_space")),
    )
    spacing = float(kv["element_spacing_m"]) if "element_spacing_m" in kv else scene.wavelength / 2.0
    ris = RisGeometry(
        rows=int(get("ris_rows", "10")),
        cols=int(get("ris_cols", "10")),
        element_spacing=spacing,
        origin=scene.ris_origin,
        phase_bits=int(get("phase_bits", "2")),
    )
    grid = GridMap(
        rows=int(get("grid_rows", "10")),
        cols=int(get("grid_cols", "10")),
        cell_size=float(get("cell_size_m", "0.4")),
        origin=_parse_vec3(get("grid_origin", "0.4 -2.0 0"), "grid_origin"),
        cell_height=float(get("cell_height_m", "1.5")),
    )
    methods = tuple(Method(m) for m in get("methods", "ergodic random gp_ei tpe_ei").split())
    return ExperimentConfig(
        scene=scene,
        ris=ris,
        grid=grid,
        methods=methods,
        overheads=tuple(float(v) for v in get("overheads", "0.2 0.4 0.6").split()),
        speeds=tuple(int(v) for v in get("speeds", "1 2").split()),
        total_slots=int(get("total_slots", "12")),
        epochs=int(get("epochs", "100")),
        master_seed=int(get("master_seed", "20240817")),
        warm_start=_parse_bool(get("warm_start", "false"), "warm_start"),
        measure_with_noise=_parse_bool(get("measure_with_noise", "false"), "measure_with_noise"),
        tpe_gamma=float(get("tpe_gamma", "0.25")),
        kde_bandwidth=float(get("kde_bandwidth", "1.0")),
        gp_length_scale=float(get("gp_length_scale", "2.0")),
        sweep_resolution=int(get("sweep_resolution", "64")),
        collect_timing=_parse_bool(get("collect_timing", "true"), "collect_timing"),
        output_dir=get("output_dir", "out"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())
