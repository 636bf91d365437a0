"""CPU time per training step of tailspin's three training loops, per checkout.

Times, in-process, against each checkout's `src/`:

- `pipeline.finetune` on the data of perfbench's `stagewise_wide` workload
  (10 classes x 5,000, gamma=100, nu=0.9): 40 epochs of `la_sl` under
  `last_layer_only`, the policy `finetune` picks at that nu, on the seeded
  `build_model` init of a SimSiam encoder, which no pretraining code touches,
  so a change to pretraining leaves this cell alone;
- `pipeline.run_single_stage` per fine-tuning loss at the README corruption
  (gamma=10, nu=0.4), 60 epochs, as in `single_stage_ablation`;
- `pipeline.pretrain` per SSL method at the README corruption, 20 epochs, as
  in `two_stage`.

Each round starts one fresh interpreter per checkout, in turn, with BLAS pinned
to one thread, so drift of the host's speed reaches every checkout alike. A
cell's time is the process CPU time of the call divided by its optimizer
steps; the table shows each cell's minimum over the rounds, in microseconds,
and a hash of the cell's records and final parameters, which a refactor must
leave equal:

    python tools/step_time.py .                       # this checkout
    python tools/step_time.py PARENT_DIR . --rounds 6 # both, alternating
    python tools/step_time.py . --rounds 1 --tiny     # a few seconds: 50 per class, 2 epochs

The exit status is 1 if a run fails or if a cell's hash differs between
checkouts.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# runs in the child, with PYTHONPATH set to one checkout's src/; prints one JSON object
_CHILD = r"""
import hashlib, json, math, sys, time
import numpy as np
from tailspin import pipeline
from tailspin.losses import LOSS_KINDS
from tailspin.nn import SSL_METHODS, build_model
from tailspin.optim import OptimizerConfig, ScheduleConfig
from tailspin.ssl import SSLMethod

tiny = sys.argv[1] == "1"
per_class, scale = (50, 20) if tiny else (None, 1)

def data(num_classes, per_class, gamma, nu):
    train, _ = pipeline.make_datasets(num_classes, per_class, 8, 3.0, 0)
    return pipeline.corrupt_train(train, gamma, nu, 0)

def digest(records, params):
    h = hashlib.sha256()
    for r in records:
        h.update(r.to_json_line().encode())
    for p in params:
        h.update(p.data.tobytes())
    return h.hexdigest()[:16]

def timed(fn, steps, params):
    start = time.process_time()
    records = fn()
    return {"us": (time.process_time() - start) / steps * 1e6, "hash": digest(records, params)}

def steps(n, batch, epochs, min_batch=1):
    return epochs * (n // batch + (n % batch >= min_batch))

out = {}
wide = data(10, per_class or 5000, 100.0, 0.9)
model = build_model("simsiam", wide.feature_dim, seed=1)
head = pipeline.build_finetune_head(model, wide.num_classes, 1)
settings = pipeline.FinetuneSettings(loss="la_sl", epochs=40 // scale)
out["finetune la_sl"] = timed(lambda: pipeline.finetune(model, head, wide, settings, pipeline.LAST_LAYER_ONLY, 0),
                              steps(wide.num_samples, settings.optimizer.batch_size, settings.epochs),
                              head.parameters())

readme = data(3, per_class or 300, 10.0, 0.4)
for loss in LOSS_KINDS:
    model = build_model("simsiam", readme.feature_dim, seed=1)
    head = pipeline.build_finetune_head(model, readme.num_classes, 1)
    settings = pipeline.FinetuneSettings(loss=loss, epochs=60 // scale)
    out[f"single_stage {loss}"] = timed(lambda: pipeline.run_single_stage(model, head, readme, settings, 0),
                                        steps(readme.num_samples, settings.optimizer.batch_size, settings.epochs),
                                        model.encoder.parameters() + head.parameters())
for method in SSL_METHODS:
    model = build_model(method, readme.feature_dim, seed=1)
    epochs = 20 // scale
    schedule = ScheduleConfig(warmup_epochs=min(10, epochs - 1), total_epochs=epochs)
    settings = pipeline.PretrainSettings(method=SSLMethod(method), schedule=schedule)
    out[f"pretrain {method}"] = timed(lambda: pipeline.pretrain(model, readme, settings, 0),
                                      steps(readme.num_samples, settings.optimizer.batch_size,
                                            settings.schedule.total_epochs, 2),
                                      model.trainable_parameters())
print(json.dumps(out))
"""


def run_child(checkout: Path, tiny: bool) -> dict[str, dict] | None:
    """One fresh interpreter's cells for ``checkout``, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _CHILD, "1" if tiny else "0"], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"# {checkout}: exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--rounds", type=int, default=6, help="fresh interpreters per checkout (default 6)")
    parser.add_argument("--tiny", action="store_true", help="50 samples per class and 1/20 of the epochs")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    runs: dict[int, list[dict]] = {i: [] for i in range(len(args.checkouts))}
    for _ in range(args.rounds):
        for i, checkout in enumerate(args.checkouts):
            cells = run_child(checkout, args.tiny)
            if cells is None:
                return 1
            runs[i].append(cells)
    names = list(runs[0][0])
    status = 0
    print(f"{'cell':<22}" + "".join(f" {str(c)[-24:]:>24} {'hash':>16}" for c in args.checkouts))
    for name in names:
        row = f"{name:<22}"
        hashes = set()
        for i in runs:
            hashes.update(cells[name]["hash"] for cells in runs[i])
            row += f" {min(cells[name]['us'] for cells in runs[i]):>21.1f} us {runs[i][0][name]['hash']:>16}"
        if len(hashes) > 1:
            status, row = 1, row + "  (hashes differ)"
        print(row)
    return status


if __name__ == "__main__":
    sys.exit(main())
