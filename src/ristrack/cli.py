"""Command-line interface.

Subcommands:
  run       full benchmark matrix -> metrics.csv
  codebook  build and serialize the per-cell codebook
  trace     single tracking episode -> per-slot path trace
  validate  independent-oracle self checks (exhaustive search, dense GP, EI quadrature)

The output directory resolves as: --out flag, then $RISTRACK_OUTPUT_DIR,
then the config's output_dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import bench
from .codebook import codebook_to_text
from .config import DEFAULT_CONFIG_TEXT, ExperimentConfig, load_config
from .tracker import Method, run_episode

OUTPUT_DIR_ENV = "RISTRACK_OUTPUT_DIR"


# flag -> the config key it sets; a list key gets the one value typed
_FLAG_KEYS = {"seed": "master_seed", "epochs": "epochs", "overhead": "overheads",
              "speed": "speeds"}


def _load(args) -> ExperimentConfig:
    """The config file (or the defaults) with each typed flag applied; a rejected one is named."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    for flag, key in _FLAG_KEYS.items():
        typed = getattr(args, flag, None)
        if typed is None:
            continue
        value = (typed,) if isinstance(getattr(config, key), tuple) else typed
        try:
            config = dataclasses.replace(config, **{key: value})
        except ValueError as exc:
            raise ValueError(f"--{flag} {typed}: {exc}") from None
    return config


def _output_dir(args, config: ExperimentConfig) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    config = _load(args)
    out = _output_dir(args, config)
    rows = bench.run_experiment(config)
    csv_path = out / "metrics.csv"
    bench.emit_csv(rows, csv_path)
    for r in rows:
        print(f"{r.method:8s} eta={r.overhead:<4g} s={r.speed} "
              f"acc={r.accuracy:.3f} mae={r.rsrp_mae_db:.3f} dB t={r.exec_time_s:.4g} s")
    print(f"wrote {csv_path}")
    return 0


def _cmd_codebook(args) -> int:
    config = _load(args)
    out = _output_dir(args, config)
    scenario = bench.scenario_from_config(config)
    path = out / "codebook.txt"
    path.write_text(codebook_to_text(scenario.codebook))
    print(f"wrote {path} ({len(scenario.codebook)} entries)")
    return 0


def _cmd_trace(args) -> int:
    method = Method(args.method)
    # Every flag is checked before anything is written: --epoch here, the
    # others by the config's own range checks.
    if args.epoch < 0:
        raise ValueError("--epoch must be >= 0")
    config = dataclasses.replace(_load(args), methods=(method,))
    out = _output_dir(args, config)
    scenario = bench.scenario_from_config(config)
    rng = bench.episode_rng(config.master_seed, args.epoch)
    (episode,) = run_episode(scenario, config, method, (args.overhead,), args.speed, rng)
    path = out / f"trace_{args.method}_eta{args.overhead:g}_s{args.speed}.csv"
    bench.emit_trace(episode, path, grid=config.grid)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    from . import validate  # the oracles; only this command needs them

    failures = validate.run_all(verbose=True)
    return 1 if failures else 0


def _cmd_init_config(args) -> int:
    path = Path(args.path)
    path.write_text(DEFAULT_CONFIG_TEXT)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ristrack",
                                     description="RIS beam-tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output directory (default: env or config)")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--epochs", type=int, help="override epoch count")

    p_run = sub.add_parser("run", help="run the full benchmark matrix")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cb = sub.add_parser("codebook", help="emit the serialized codebook")
    add_common(p_cb)
    p_cb.set_defaults(func=_cmd_codebook)

    p_tr = sub.add_parser("trace", help="emit a single-episode path trace")
    add_common(p_tr)
    p_tr.add_argument("--method", default="tpe_ei",
                      choices=[m.value for m in Method])
    p_tr.add_argument("--overhead", type=float, default=0.4)
    p_tr.add_argument("--speed", type=int, default=1)
    p_tr.add_argument("--epoch", type=int, default=0,
                      help="epoch index used to derive the episode RNG stream")
    p_tr.set_defaults(func=_cmd_trace)

    p_val = sub.add_parser("validate", help="run the independent-oracle checks")
    p_val.set_defaults(func=_cmd_validate)

    p_init = sub.add_parser("init-config", help="write a default config file")
    p_init.add_argument("path", nargs="?", default="ristrack.cfg")
    p_init.set_defaults(func=_cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"ristrack: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
