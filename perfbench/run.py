"""tailspin benchmark: drives the tailspin CLI in fresh processes and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload two_stage --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one client runs one CLI process at a time and
starts the next only after the previous one exits. One iteration runs every
leg of the workload; iterations repeat until the next one would end after
``--seconds`` (at least two run, so reruns can be compared). Every process
must exit 0, and every iteration's ``summary.json``, ``metrics.jsonl`` and
``eval.json`` must be byte-identical to the first iteration's.

With ``--trace 1`` untraced and traced iterations alternate; the per-layer
metrics come from the traced ones and the tracing overhead is the difference
of the two median wall times. ``perfbench/README.md`` explains the workloads
and what each metric should move.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the environment. Each result is also appended to
``--results`` (default ``.perfbench/results.jsonl``) for ``compare.py``.
The exit code is 0 only when every invocation and check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import shim

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "shim.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # every run, set-up included, ends well inside 180 s
BLAS_THREADS = "1"  # the 64-wide matmuls gain nothing from threads, and runs stay steadier
MIN_ITERATIONS = 2
TRAINING_STAGES = ("pretrain", "finetune", "single_stage")
SSL_METHODS = ("simsiam", "simclr", "byol", "barlow_twins")
LOSSES = ("ce", "ce_sl", "la", "la_sl")


@dataclass(frozen=True)
class Leg:
    """One output directory: CLI subcommands run in order with the same --set flags."""

    name: str
    commands: tuple[str, ...]
    settings: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    legs: tuple[Leg, ...]
    dominant_stage: str  # metrics.jsonl stage whose epochs the epoch_ms_* diagnostics summarise

    def with_settings(self, extra: dict[str, str]) -> "Workload":
        """The same workload with extra --set flags appended to every leg (later flags win)."""
        legs = tuple(replace(leg, settings=leg.settings + tuple(extra.items())) for leg in self.legs)
        return replace(self, legs=legs)


_README_CORRUPTION = (("data.gamma", "10"), ("data.nu", "0.4"))

# Lengths are cut from the desk defaults so that one iteration takes a few
# seconds and a 40 s run holds several: two_stage pretrains 20 epochs, not
# 200; stagewise_wide pretrains 1 and fine-tunes 40 (its dominant loop).

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "two_stage",
            tuple(
                Leg(m, ("run",), _README_CORRUPTION + (("pretrain.method", m), ("pretrain.epochs", "20")))
                for m in SSL_METHODS
            ),
            dominant_stage="pretrain",
        ),
        Workload(
            "single_stage_ablation",
            tuple(Leg(loss, ("run-single-stage",), _README_CORRUPTION + (("finetune.loss", loss),)) for loss in LOSSES),
            dominant_stage="single_stage",
        ),
        Workload(
            "stagewise_wide",
            (
                Leg(
                    "chain",
                    ("generate", "corrupt", "pretrain", "finetune", "eval"),
                    (
                        ("data.num_classes", "10"),
                        ("data.per_class", "5000"),
                        ("data.gamma", "100"),
                        ("data.nu", "0.9"),
                        ("pretrain.epochs", "1"),
                        ("finetune.epochs", "40"),
                        ("eval.export_embeddings", "true"),
                    ),
                ),
            ),
            dominant_stage="finetune",
        ),
    )
}


# ---------------------------------------------------------------------------
# one CLI process and one leg


@dataclass
class Process:
    leg: str
    exit_code: int | None
    setup_s: float | None = None
    import_s: float | None = None
    maxrss_kb: int = 0
    epochs: list[tuple[str, float]] = field(default_factory=list)  # (stage, seconds) per sink record
    spans: dict | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TAILSPIN_LOG"] = "info"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _epoch_durations(sink: list) -> list[tuple[str, float]]:
    """Per-epoch seconds from sink instants: each record minus the previous
    record or, for the first, the moment the sink opened."""
    durations, previous = [], None
    for stage, _, t in sink:
        if stage != "open" and previous is not None:
            durations.append((stage, (t - previous) / 1e9))
        previous = t
    return durations


def run_process(command: str, leg: Leg, seed: int, out: Path, record: Path, run_id: str, trace: bool, deadline: float) -> Process:
    sets = [arg for key, value in leg.settings for arg in ("--set", f"{key}={value}")]
    argv = [sys.executable, str(SHIM), str(record), run_id, "1" if trace else "0",
            command, "--seed", str(seed), "--output", str(out), *sets]
    log_path = record.with_suffix(".log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = Process(leg.name, code)
    if code != 0 or not record.is_file():
        tail = log_path.read_text(errors="replace").splitlines()[-5:]
        print(f"# {run_id}: exit {code}; log tail: {' | '.join(tail)}", file=sys.stderr)
        return result
    data = json.loads(record.read_text())
    result.setup_s = (data["handler_start_ns"] - spawn) / 1e9
    result.import_s = (data["import_end_ns"] - data["import_start_ns"]) / 1e9
    result.maxrss_kb = int(data["maxrss_kb"])
    result.epochs = _epoch_durations(data["sink"])
    result.spans = data.get("spans")
    return result


def _resolved(out: Path) -> dict[str, str]:
    values = {}
    for line in (out / "config.resolved").read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def expected_train_count(cfg: dict[str, str]) -> int:
    """Training samples left after exponential imbalance: sum over classes of
    round-half-up(n_max * gamma^(-c / (C - 1)))."""
    classes, per_class, gamma = int(cfg["data.num_classes"]), int(cfg["data.per_class"]), float(cfg["data.gamma"])
    if gamma <= 1.0:
        return classes * per_class
    return sum(math.floor(per_class * gamma ** (-c / (classes - 1)) + 0.5) for c in range(classes))


def _expected_epochs(commands: tuple[str, ...], cfg: dict[str, str]) -> dict[str, int]:
    stages = {"run": ("pretrain", "finetune"), "run-single-stage": ("single_stage",),
              "pretrain": ("pretrain",), "finetune": ("finetune",)}
    return {stage: int(cfg[f"{stage}.epochs"]) for cmd in commands for stage in stages.get(cmd, ())}


COMPARED_FILES = ("summary.json", "metrics.jsonl", "eval.json")


def check_leg(leg: Leg, seed: int, out: Path, reference: Path | None) -> tuple[list[str], dict]:
    """Output checks for one finished leg; returns (errors, facts read from the outputs)."""
    errors: list[str] = []
    cfg = _resolved(out)
    n_train = expected_train_count(cfg)
    facts = {"n_train": n_train}

    stages: dict[str, int] = {}
    for line in (out / "metrics.jsonl").read_text().splitlines():
        rec = json.loads(line)
        stages[rec["stage"]] = stages.get(rec["stage"], 0) + 1
        if rec["seed"] != seed or not math.isfinite(rec["loss"]):
            errors.append(f"metrics.jsonl: bad record {line[:80]}")
    expected = _expected_epochs(leg.commands, cfg)
    if stages != expected:
        errors.append(f"metrics.jsonl: epochs per stage {stages}, expected {expected}")

    summary = json.loads((out / "summary.json").read_text())
    facts["balanced_accuracy"] = summary["balanced_accuracy"]
    facts["knn_accuracy"] = summary.get("knn_accuracy")
    if summary["seed"] != seed or not 0.0 <= summary["balanced_accuracy"] <= 1.0 or not summary.get("config_hash"):
        errors.append("summary.json: wrong seed, accuracy outside [0, 1] or no config hash")

    manifest = out / "data" / "train-corrupted" / "manifest.json"
    if manifest.is_file() and json.loads(manifest.read_text())["num_samples"] != n_train:
        errors.append(f"corrupted train set does not hold the expected {n_train} samples")
    if "eval" in leg.commands:
        payload = json.loads((out / "eval.json").read_text())
        facts["knn_accuracy"] = payload["knn_accuracy"]
        if not 0.0 <= payload["knn_accuracy"] <= 1.0:
            errors.append("eval.json: knn accuracy outside [0, 1]")
        if cfg["eval.export_embeddings"] == "true":
            exported = json.loads((out / "embeddings" / "train" / "manifest.json").read_text())
            if exported["num_samples"] != n_train:
                errors.append("exported train embeddings do not cover the train set")

    if reference is not None:
        for name in COMPARED_FILES:
            if (reference / name).is_file() and (reference / name).read_bytes() != (out / name).read_bytes():
                errors.append(f"{name} differs from the first iteration's")
    return errors, facts


# ---------------------------------------------------------------------------
# one iteration: every leg of a workload


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    processes: list[Process]
    legs: dict[str, float]  # leg name -> wall seconds
    facts: dict[str, dict]  # leg name -> facts from check_leg
    attempted: int
    failed: int
    errors: list[str]


def run_iteration(workload: Workload, seed: int, run_dir: Path, index: int, trace: bool, deadline: float) -> Iteration:
    start = time.monotonic_ns()
    processes, legs, facts, errors = [], {}, {}, []
    attempted = failed = 0
    records = run_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    for leg in workload.legs:
        out = run_dir / f"iter{index}" / leg.name
        leg_start = time.monotonic_ns()
        leg_processes = []
        for command in leg.commands:
            run_id = f"{workload.name}/seed{seed}/iter{index}/{leg.name}/{command}"
            record = records / f"iter{index}-{leg.name}-{command}.json"
            proc = run_process(command, leg, seed, out, record, run_id, trace, deadline)
            leg_processes.append(proc)
            attempted += 1
            if proc.exit_code != 0 or proc.setup_s is None:
                errors.append(f"{run_id}: exit code {proc.exit_code}")
                break
        processes += leg_processes
        legs[leg.name] = (time.monotonic_ns() - leg_start) / 1e9
        ok = len(leg_processes) == len(leg.commands) and all(p.exit_code == 0 for p in leg_processes)
        if ok:
            reference = run_dir / "iter0" / leg.name if index > 0 else None
            try:
                leg_errors, facts[leg.name] = check_leg(leg, seed, out, reference)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed outputs
                leg_errors = [f"unreadable output: {exc!r}"]
            if leg_errors:
                errors += [f"{workload.name}/{leg.name} iteration {index}: {e}" for e in leg_errors]
                failed += 1  # the check covers the leg's outputs; charge it to its last invocation
        else:
            failed += 1
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
    return Iteration(trace, (time.monotonic_ns() - start) / 1e9, processes, legs, facts, attempted, failed, errors)


# ---------------------------------------------------------------------------
# metrics


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text())


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: Workload, iterations: list[Iteration]) -> tuple[dict[str, float], dict]:
    """End-to-end metric values from untraced iterations, plus the sample counts behind them."""
    runs = [it for it in iterations if not it.traced]
    # per leg, since legs differ in epoch cost (ce vs SuperLoss, byol vs simclr)
    # and percentiles of the pooled mixture fall in the gaps between them
    epochs: dict[str, list[float]] = {}
    for p in (p for it in runs for p in it.processes):
        epochs.setdefault(p.leg, []).extend(s * 1e3 for stage, s in p.epochs if stage == workload.dominant_stage)
    epochs = {leg: values for leg, values in epochs.items() if values}

    def samples_per_s(it: Iteration) -> float:
        sample_epochs = seconds = 0.0
        for p in it.processes:
            n_train = it.facts[p.leg]["n_train"]
            for stage, s in p.epochs:
                if stage in TRAINING_STAGES:
                    sample_epochs += n_train
                    seconds += s
        return sample_epochs / seconds

    values = {
        "wall_s": statistics.median(it.wall_s for it in runs),
        "setup_s": statistics.median(sum(p.setup_s for p in it.processes) for it in runs),
        "train_samples_per_s": statistics.median(samples_per_s(it) for it in runs),
        "peak_rss_mb": max(p.maxrss_kb for it in runs for p in it.processes) / 1024.0,
    }
    samples = {
        "iterations": len(runs),
        "epoch_samples_per_leg": min(len(v) for v in epochs.values()),
        "epoch_ms_p50": statistics.fmean(statistics.median(v) for v in epochs.values()),
        "epoch_ms_p90": statistics.fmean(_percentile(v, 90) for v in epochs.values()),
        "epoch_stage": workload.dominant_stage,
        "processes_per_iteration": len(runs[0].processes),
        "leg_wall_s": {leg: statistics.median(it.legs[leg] for it in runs) for leg in runs[0].legs},
    }
    return values, samples


def quality(iterations: list[Iteration]) -> dict[str, float]:
    """Accuracies of the first iteration, averaged over its legs. They are
    exact for a seed (later iterations are byte-identical), so compare.py
    compares them seed by seed rather than under a bound."""
    legs = iterations[0].facts.values()
    values = {"balanced_accuracy": statistics.fmean(f["balanced_accuracy"] for f in legs)}
    knn = [f["knn_accuracy"] for f in legs if f["knn_accuracy"] is not None]
    if knn:
        values["knn_accuracy"] = statistics.fmean(knn)
    return values


def aggregate_spans(payload: dict) -> dict[str, list[float]]:
    """name -> [calls, seconds, self seconds]; self time is the span's
    duration minus the durations of its direct child spans."""
    import numpy as np

    names = payload["names"]
    name_id = np.asarray(payload["name_id"], dtype=np.int64)
    if name_id.size == 0:
        return {}
    parent = np.asarray(payload["parent"], dtype=np.int64)
    duration = (np.asarray(payload["end_ns"], dtype=np.int64) - np.asarray(payload["start_ns"], dtype=np.int64)) / 1e9
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=name_id.size)
    self_time = duration - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    return {name: [int(calls[i]), float(total[i]), float(own[i])] for i, name in enumerate(names)}


def layer_values(it: Iteration) -> dict[str, float]:
    """Per-layer values of one traced iteration, summed over its processes."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for p in it.processes:
        for name, row in aggregate_spans(p.spans).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in p.spans["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values = dict(counters)
    for name, (calls, total, own) in spans.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = own
    values["cli.import_s"] = sum(p.import_s for p in it.processes)
    values["config.load_s"] = spans.get("config.load", [0, 0.0, 0.0])[1]
    return values


SPAN_NAMES = {name for name, _, _ in shim.TARGETS}
LAYER_METRICS = (
    {f"{name}.{field}" for name in SPAN_NAMES for field in ("calls", "s", "self_s")}
    | {key for key, _ in shim.COUNTERS.values()}
    | {"cli.import_s", "config.load_s", "tracing.overhead_s", "tracing.overhead_share"}
)


def per_layer(spec: dict, iterations: list[Iteration]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer values over traced iterations; also checks that call
    counts repeat exactly from one traced iteration to the next."""
    unknown = [e["name"] for e in spec["per_layer"] if e["name"] not in LAYER_METRICS]
    if unknown:
        raise ValueError(f"BENCHMARK.json names per-layer metrics the tracer does not produce: {unknown}")
    traced = [layer_values(it) for it in iterations if it.traced]
    untraced_wall = statistics.median(it.wall_s for it in iterations if not it.traced)
    traced_wall = statistics.median(it.wall_s for it in iterations if it.traced)
    errors, values = [], {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "tracing.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif name == "tracing.overhead_share":
            values[name] = (traced_wall - untraced_wall) / untraced_wall
        else:
            series = [v.get(name, 0) for v in traced]
            if entry["unit"] not in ("count", "bytes"):
                values[name] = statistics.median(series)
            elif len(set(series)) == 1:
                values[name] = series[0]
            else:
                errors.append(f"{name} differs between traced iterations: {series}")
    return values, errors


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# a whole run


@dataclass
class Result:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]  # name -> {"value", "unit"}
    quality: dict[str, float]
    samples: dict
    errors: list[str]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict, hard_deadline: float) -> Result:
    """Run iterations until the next one would end after ``seconds``; at
    least MIN_ITERATIONS, alternating untraced and traced when tracing."""
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    iterations: list[Iteration] = []
    try:
        start = time.monotonic()
        while True:
            index = len(iterations)
            it = run_iteration(workload, seed, run_dir, index, trace and index % 2 == 1, hard_deadline)
            iterations.append(it)
            if it.errors and index == 0:
                break  # no reference to compare against; more iterations add nothing
            longest = max(i.wall_s for i in iterations)
            now = time.monotonic()
            if len(iterations) >= MIN_ITERATIONS and (now - start + longest > seconds or now + longest > hard_deadline):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    errors = [e for it in iterations for e in it.errors]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    samples: dict = {"iterations": len(iterations)}
    values: dict[str, float] = {}
    accuracy: dict[str, float] = {}
    if not errors:
        accuracy = quality(iterations)
        if trace:
            values, count_errors = per_layer(spec, iterations)
            errors += count_errors
            samples["traced_iterations"] = sum(it.traced for it in iterations)
        else:
            values, samples = end_to_end(workload, iterations)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries if e["name"] in values}
    correct = not errors and len(metrics) == len(entries)
    return Result(workload.name, seed, correct, attempted, failed, metrics, accuracy, samples, errors)


def warm_up() -> None:
    """Compile the package's bytecode and fill the page cache before timing,
    which users pay once, not per run."""
    subprocess.run([sys.executable, "-c", "import tailspin.cli"], cwd=ROOT, env=_child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=60)


def _report(result: Result) -> None:
    for name, m in result.metrics.items():
        print(f"{result.workload:<22} {name:<32} {m['value']:>16.6f} {m['unit']}")
    for name in ("epoch_ms_p50", "epoch_ms_p90"):
        if name in result.samples:
            print(f"{result.workload:<22} {name:<32} {result.samples[name]:>16.6f} ms (unbounded;"
                  f" >= {result.samples['epoch_samples_per_leg']} epochs per leg)")
    for name, value in result.quality.items():
        print(f"{result.workload:<22} {name:<32} {value:>16.6f} (exact for the seed)")
    print(f"{result.workload:<22} {'error_rate':<32} {result.failed:>9d} / {result.attempted} invocations")
    print(f"# {result.workload} samples: {json.dumps(result.samples, sort_keys=True)}")
    for error in result.errors:
        print(f"# {result.workload} FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK / "results.jsonl", help="JSON lines file to append results to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tailspin" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {ROOT} holds no tailspin sources (src/tailspin) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    warm_up()
    env = environment(args.seed)
    print("# env: " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec, time.monotonic() + RUN_LIMIT_S)
        _report(result)
        results.append(result)
        record = {**asdict(result), "trace": args.trace, "seconds": args.seconds, "env": env}
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}/{k}": v for r in results for k, v in r.metrics.items()}
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
