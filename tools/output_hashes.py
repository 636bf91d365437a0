"""Hash tailspin's outputs for a fixed set of 28 configurations.

Prints a Markdown table: one row per configuration, with the first 16 hex
digits of the sha256 of metrics.jsonl, summary.json, eval.json and the
pretrained and fine-tuned params.bin ("-" where a configuration writes no such
file). Each configuration runs the `tailspin` CLI
(`python -m tailspin.cli CMD --seed S --output DIR --set ...`) in fresh
processes against a checkout's `src/`, with BLAS pinned to one thread:

- `run` per SSL method at the README corruption (gamma=10, nu=0.4) and at the
  defaults, and SimSiam with its stop-gradient disabled, each followed by
  `eval`;
- `run-single-stage` per fine-tuning loss at the README corruption, followed
  by `eval`;
- the `generate`, `corrupt`, `pretrain`, `finetune`, `eval` chain with the
  settings of perfbench's `stagewise_wide` workload;

each for seeds 0 and 1. A stream change moves some cells; a refactor should
move none. The hashes depend on the BLAS and the CPU, so compare checkouts on
one machine only.

    python tools/output_hashes.py                     # this checkout
    python tools/output_hashes.py PARENT_DIR .        # both, then the cells that moved

With several checkouts, each gets its table, and a list of every cell that
differs from the first checkout's follows; the exit status is 1 if any cell
differs, so a refactor can gate on `python tools/output_hashes.py PARENT_DIR .`.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1)
SSL_METHODS = ("simsiam", "simclr", "byol", "barlow_twins")
LOSSES = ("ce", "ce_sl", "la", "la_sl")
README_CORRUPTION = ("data.gamma=10", "data.nu=0.4")
STAGEWISE_WIDE = (
    "data.num_classes=10",
    "data.per_class=5000",
    "data.gamma=100",
    "data.nu=0.9",
    "pretrain.epochs=1",
    "finetune.epochs=40",
    "eval.export_embeddings=true",
)
COLUMNS = (
    ("metrics.jsonl", "metrics.jsonl"),
    ("summary.json", "summary.json"),
    ("eval.json", "eval.json"),
    ("pretrained params.bin", "checkpoints/pretrained/params.bin"),
    ("finetuned params.bin", "checkpoints/finetuned/params.bin"),
)


def configurations(seed: int) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(row label, subcommands in order, --set flags) for one seed."""
    rows = [(f"run {m} seed {seed} (γ=10, ν=0.4)", ("run", "eval"), README_CORRUPTION + (f"pretrain.method={m}",))
            for m in SSL_METHODS]
    rows += [(f"run {m} seed {seed} (defaults)", ("run", "eval"), (f"pretrain.method={m}",)) for m in SSL_METHODS]
    rows.append((f"run simsiam, disable_stop_gradient, γ=10, ν=0.4 seed {seed}", ("run", "eval"),
                 README_CORRUPTION + ("pretrain.method=simsiam", "pretrain.disable_stop_gradient=true")))
    rows += [(f"run-single-stage (γ=10, ν=0.4) {loss} seed {seed}", ("run-single-stage", "eval"),
              README_CORRUPTION + (f"finetune.loss={loss}",)) for loss in LOSSES]
    rows.append((f"stagewise_wide chain seed {seed}", ("generate", "corrupt", "pretrain", "finetune", "eval"),
                 STAGEWISE_WIDE))
    return rows


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else "-"


def hash_checkout(checkout: Path, scratch: Path) -> dict[str, tuple[str, ...]]:
    """Every configuration's row of hashes, run against checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    table = {}
    for seed in SEEDS:
        for label, commands, settings in configurations(seed):
            out = scratch / f"{len(table):02d}"
            flags = [arg for s in settings for arg in ("--set", s)]
            for command in commands:
                argv = [sys.executable, "-m", "tailspin.cli", command, "--seed", str(seed), "--output", str(out), *flags]
                done = subprocess.run(argv, env=env, capture_output=True, text=True)
                if done.returncode != 0:
                    raise SystemExit(f"{label}: `{command}` exited {done.returncode}\n{done.stderr}")
            table[label] = tuple(_digest(out / path) for _, path in COLUMNS)
    return table


def markdown(table: dict[str, tuple[str, ...]]) -> str:
    lines = ["| configuration | " + " | ".join(name for name, _ in COLUMNS) + " |",
             "|---" * (len(COLUMNS) + 1) + "|"]
    lines += [f"| {label} | " + " | ".join(row) + " |" for label, row in table.items()]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parent.parent],
                        help="checkout roots to hash (default: the one holding this script)")
    args = parser.parse_args(argv)
    for checkout in args.checkouts:
        if not (checkout / "src" / "tailspin").is_dir():
            parser.error(f"{checkout}: no src/tailspin")
    tables = []
    for checkout in args.checkouts:
        with tempfile.TemporaryDirectory(prefix="tailspin-hashes-") as scratch:
            tables.append(hash_checkout(checkout.resolve(), Path(scratch)))
        print(f"{checkout}\n\n{markdown(tables[-1])}\n")
    differs = False
    for checkout, table in zip(args.checkouts[1:], tables[1:]):
        moved = [f"- {label}, {name}: {old} -> {new}"
                 for label, row in table.items()
                 for (name, _), old, new in zip(COLUMNS, tables[0][label], row) if old != new]
        print(f"cells of {checkout} that differ from {args.checkouts[0]}: {len(moved)}")
        print("\n".join(moved))
        differs = differs or bool(moved)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
