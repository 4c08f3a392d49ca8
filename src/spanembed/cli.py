"""Command line entry point: `embedder run --config <file> [overrides] --out <csv>`."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    csv_row,
    parse_config_file,
    run_pipeline,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="embedder", description="spanning-embedding pipeline runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pipeline for one or more seeds")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--n", type=int)
    run.add_argument("--p", type=float)
    run.add_argument("--k", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds to run")
    run.add_argument("--guest", dest="guest_family", help="family[:param]")
    run.add_argument("--adversary")
    run.add_argument("--eps", type=float)
    run.add_argument("--d", type=float)
    run.add_argument("--mode", choices=["random", "bijumbled", "degenerate"])
    run.add_argument("--paley-q", dest="paley_q", type=int)
    run.add_argument("--host-file", dest="host_file")
    run.add_argument("--out", help="output CSV path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "run":  # pragma: no cover
        return 2
    try:
        overrides = parse_config_file(args.config) if args.config else {}
        names = {f.name for f in fields(ExperimentConfig)}
        overrides.update((name, val) for name, val in vars(args).items() if name in names and val is not None)
        cfg = ExperimentConfig(**overrides)
        cfg.validate()
    except (ConfigError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        rows = [CSV_HEADER]
        for offset in range(args.seeds):
            rows.append(csv_row(run_pipeline(replace(cfg, seed=cfg.seed + offset))))
        text = "\n".join(rows) + "\n"
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, OSError) as exc:  # loading the host, or writing the rows
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
