"""Child side of the benchmark: runs one tailspin CLI invocation in this process.

Usage: python3 shim.py RECORD_PATH RUN_ID TRACE ARGV...

The shim imports ``tailspin.cli`` and calls ``main(ARGV)``, exactly what the
``tailspin`` console script does, and stamps a few instants on the monotonic
clock, which every process of the machine shares:

- before and after ``import tailspin.cli``;
- when the subcommand handler starts;
- when each per-epoch record reaches the metrics sink, and when the sink opens.

With TRACE=1 it also wraps the public functions listed in ``TARGETS`` wherever
a caller looks them up (every ``tailspin`` module attribute bound to the same
function object, or the class attribute for methods) and records one span per
call: name, start, end and parent, all in memory, written out when the
handler returns. Wrappers only time; they never touch arguments or results,
so traced outputs are byte-identical to untraced ones.

The record is a JSON file at RECORD_PATH; the exit code is ``main``'s.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

_now = time.monotonic_ns

TENSOR_OPS = (
    "matmul", "add", "mul", "sub", "relu", "l2_normalize", "log_sum_exp",
    "gather_rows", "concat_rows", "transpose", "tensor_sum", "power",
)

# (span name, defining module, attribute path)
TARGETS = (
    ("data.augment", "tailspin.data", "augment"),
    ("data.view_seed", "tailspin.data", "view_seed"),
    ("seeding.derive", "tailspin.seeding", "derive"),
    ("ssl.build_views", "tailspin.ssl", "build_views"),
    ("ssl.pretrain_epoch", "tailspin.ssl", "pretrain_epoch"),
    ("tensor.backward", "tailspin.tensor", "Tape.backward"),
    *((f"tensor.op.{op}", "tailspin.tensor", op) for op in TENSOR_OPS),
    ("optim.step", "tailspin.optim", "Sgd.step"),
    ("optim.step", "tailspin.optim", "Adam.step"),
    ("nn.ema_update", "tailspin.nn", "ema_update"),
    ("losses.batch_loss", "tailspin.losses", "batch_loss"),
    ("losses.lambert_w0", "tailspin.losses", "lambert_w0"),
    ("evaluation.embed", "tailspin.evaluation", "embed"),
    ("evaluation.knn_classify", "tailspin.evaluation", "knn_classify"),
    ("evaluation.export_embeddings", "tailspin.evaluation", "export_embeddings"),
    ("io.save_dataset", "tailspin.io", "save_dataset"),
    ("io.load_dataset", "tailspin.io", "load_dataset"),
    ("io.save_checkpoint", "tailspin.io", "save_checkpoint"),
    ("io.load_checkpoint", "tailspin.io", "load_checkpoint"),
    ("config.load", "tailspin.config", "config_load"),
    ("pipeline.make_datasets", "tailspin.pipeline", "make_datasets"),
    ("pipeline.pretrain", "tailspin.pipeline", "pretrain"),
    ("pipeline.knn_proxy_accuracy", "tailspin.pipeline", "knn_proxy_accuracy"),
    ("pipeline.finetune", "tailspin.pipeline", "finetune"),
    ("pipeline.run_single_stage", "tailspin.pipeline", "run_single_stage"),
    ("pipeline.evaluate_classifier", "tailspin.pipeline", "evaluate_classifier"),
)


def _knn_pairs(args, result) -> int:
    return args[0].num_samples * args[1].num_samples


def _written(args, result) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(result) if entry.is_file())


# span name -> (counter name, count computed from the call's arguments and result)
COUNTERS = {
    "evaluation.knn_classify": ("evaluation.knn.pairs", _knn_pairs),
    "evaluation.export_embeddings": ("io.bytes_written", _written),
    "io.save_dataset": ("io.bytes_written", _written),
    "io.save_checkpoint": ("io.bytes_written", _written),
}


class Tracer:
    """In-memory span store; span i has name names[name_id[i]], parent
    index parent[i] (-1 for a root) and start/end on the monotonic clock."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        counter = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if counter is not None:
                key, count = counter
                counters[key] = counters.get(key, 0) + count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target with its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tailspin" or n.startswith("tailspin.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def payload(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    record_path, run_id, trace, cli_argv = argv[0], argv[1], argv[2] == "1", argv[3:]
    record: dict = {"run_id": run_id, "import_start_ns": _now()}
    import tailspin.cli as cli
    import tailspin.io as tio

    record["import_end_ns"] = _now()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    sink_events: list = []
    open_writer, write_record = tio.MetricsWriter.__init__, tio.MetricsWriter.__call__

    def opened(self, path):
        sink_events.append(["open", -1, _now()])
        open_writer(self, path)

    def sunk(self, rec):
        sink_events.append([rec.stage, rec.epoch, _now()])
        write_record(self, rec)

    tio.MetricsWriter.__init__ = opened
    tio.MetricsWriter.__call__ = sunk

    def stamped(command, handler):
        if tracer is not None:
            handler = tracer.wrap(f"cli.{command}", handler)

        def run(cfg):
            record["handler_start_ns"] = _now()
            handler(cfg)

        return run

    for command, handler in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = stamped(command, handler)

    code = cli.main(cli_argv)
    record["sink"] = sink_events
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["spans"] = tracer.payload()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
