"""Peak RSS of each process of tailspin's stage-wise chain.

Runs `generate`, `corrupt`, `pretrain`, `finetune` and `eval` one process at a
time (`python -m tailspin.cli CMD --seed S --output DIR --set ...`) against
the `src/` of the checkout holding this script, with BLAS pinned to one
thread, and prints each process's peak resident set size as `os.wait4`
reports it (`ru_maxrss`, KiB on Linux). perfbench's `peak_rss_mb` is only the
largest of these over a workload's processes; this tells them apart.

The settings are those of perfbench's `stagewise_wide` workload, followed by
the `--set` flags given here (later flags win):

    python tools/peak_rss.py
    python tools/peak_rss.py --seed 5 --set data.per_class=50 --set finetune.epochs=2

The exit status is 1 if a process fails; the chain stops there.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from output_hashes import STAGEWISE_WIDE

COMMANDS = ("generate", "corrupt", "pretrain", "finetune", "eval")
ROOT = Path(__file__).resolve().parent.parent


def peak_rss(seed: int, settings: list[str], out: Path) -> list[tuple[str, int, float]]:
    """(command, exit code, peak RSS in MB) per process, in chain order, up to the first that fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    flags = [arg for s in settings for arg in ("--set", s)]
    rows = []
    for command in COMMANDS:
        argv = [sys.executable, "-m", "tailspin.cli", command, "--seed", str(seed), "--output", str(out), *flags]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rows.append((command, proc.returncode, usage.ru_maxrss / 1024.0))
        if proc.returncode != 0:
            break
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--set", dest="settings", action="append", default=[], metavar="KEY=VALUE",
                        help="a config override after the stagewise_wide settings; repeatable")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="tailspin-rss-") as out:
        rows = peak_rss(args.seed, [*STAGEWISE_WIDE, *args.settings], Path(out))
    print(f"{'process':<10} {'exit':>4} {'peak_rss_mb':>12}")
    for command, code, mb in rows:
        print(f"{command:<10} {code:>4} {mb:>12.1f}")
    return 0 if all(code == 0 for _, code, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
