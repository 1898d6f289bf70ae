"""Span tracing of bpwave's public entry points, installed from outside the package.

A Tracer replaces module functions and class methods with thin wrappers
that record (name, start, end, parent, info) spans in memory. Self time is
a span's duration minus the durations of its direct children; layers run
on one thread, so children never overlap. install() and uninstall() let a
run alternate traced and untraced rounds in one process.
"""

import json
import os
import time
from array import array

from bpwave import cli, datapipe, evalstats, models, pipeline, sigproc, tensorops, trainer

LAYER_TYPES = ("Conv1d", "TransposedConv1d", "BatchNorm1d", "ReLU", "MaxPool1d")
NETWORKS = ("UNet1D", "MultiResUNet1D")
CLI_COMMANDS = ("preprocess", "infer", "evaluate")
# The spans cover a round's work, so the self times of the traced rounds sum
# to their own wall time, less the few statements of a round outside any span.
# run.py fails a traced run whose spans cover less than 100% minus this of the
# traced rounds' wall time: work a round does outside every span, such as an
# entry point it calls that the tracer does not wrap, shows as a gap (an
# unwrapped pipeline.load_bundle leaves infer-full at 97.5%). The share of the
# untraced round is only reported, because the same round's wall time moves
# by more than the tracing overhead from one minute to the next on a shared
# host.
COVERAGE_TOLERANCE_PCT = 2.0


def _conv_flops(args, kwargs, result):
    layer, x = args[0], args[1]
    b, c, length = x.shape
    return 2 * b * length * layer.out_channels * c * layer.kernel_size


def _first_arg(args, kwargs, result):
    return args[0]


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _targets():
    """(owner, attribute, span name or namer, info function) per wrapped entry point."""
    targets = []
    for layer in LAYER_TYPES:
        cls = getattr(tensorops, layer)
        info = _conv_flops if layer in ("Conv1d", "TransposedConv1d") else None
        targets.append((cls, "forward", f"tensorops.{layer}.forward", info))
        targets.append((cls, "backward", f"tensorops.{layer}.backward", None))
    targets.append((tensorops.Adam, "step", "tensorops.Adam.step", None))
    targets.append((tensorops, "read_checkpoint", "tensorops.read_checkpoint", _first_arg))
    for net in NETWORKS:
        cls = getattr(models, net)
        targets.append((cls, "forward", f"models.{net}.forward", None))
        targets.append((cls, "backward", f"models.{net}.backward", None))
    targets.append((models, "build_unet1d", "models.build", None))
    targets.append((models, "build_multiresunet1d", "models.build", None))
    for fn in ("train_network", "predict_batched", "deep_supervised_loss"):
        targets.append((trainer, fn, f"trainer.{fn}", None))
    for fn in ("load_bundle", "batch_predict", "predict_waveform", "preprocess_ppg",
               "write_predictions_csv"):
        targets.append((pipeline, fn, f"pipeline.{fn}", None))
    targets.append((sigproc, "denoise", "sigproc.denoise", None))
    targets.append((sigproc, "skewness_sqi", "sigproc.skewness_sqi", None))
    targets.append((datapipe, "read_signal_csv", "datapipe.read_signal_csv", _first_arg))
    targets.append((datapipe, "write_store", "datapipe.write_store", None))
    targets.append((evalstats, "load_predictions", "evalstats.load_predictions", None))
    targets.append((evalstats, "evaluate", "evalstats.evaluate", None))
    targets.append((cli, "main", _cli_name, None))
    return targets


class Tracer:
    """Spans in parallel columns; array columns keep the garbage collector's
    work flat however many spans a run records."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.infos = {}        # span index -> info, for the spans that carry one
        self._stack = []
        self._originals = []

    def _wrap(self, original, name, info):
        names, starts, ends, parents, infos = self.names, self.starts, self.ends, self.parents, self.infos
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if info is not None:
                infos[index] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, info in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name, start, end, parent index, info) per span, in start order."""
        return [(n, s, e, p, self.infos.get(i))
                for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))]

    def write(self, path):
        """Write the spans as JSON lines once the run is over."""
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans():
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")

    def totals(self):
        """name -> [calls, total seconds, self seconds, summed numeric info]."""
        table = {}
        child_time = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end) in enumerate(zip(self.names, self.starts, self.ends)):
            row = table.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
            if isinstance(self.infos.get(i), int):
                row[3] += self.infos[i]
        return table

    def info_counts(self, name):
        """info value -> number of spans of this name carrying it."""
        counts = {}
        for i, info in self.infos.items():
            if self.names[i] == name:
                counts[info] = counts.get(info, 0) + 1
        return counts


def _count_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def coverage_pct(tracer, traced_wall_s):
    """All self times of the traced rounds as a share of those rounds' summed wall time."""
    return 100.0 * sum(r[2] for r in tracer.totals().values()) / traced_wall_s


def per_layer_metrics(tracer, rounds, traced_round_s, untraced_round_s):
    """Every per-layer metric, per traced round; zero where the workload makes no call."""
    table = tracer.totals()

    def row(name):
        return table.get(name, [0, 0.0, 0.0, 0])

    def per_round_ms(seconds):
        return 1e3 * seconds / rounds

    m = {}
    for layer in LAYER_TYPES:
        fwd, bwd = row(f"tensorops.{layer}.forward"), row(f"tensorops.{layer}.backward")
        m[f"tensorops.{layer}.forward_ms"] = (per_round_ms(fwd[1]), "ms")
        m[f"tensorops.{layer}.backward_ms"] = (per_round_ms(bwd[1]), "ms")
        m[f"tensorops.{layer}.calls"] = (fwd[0] / rounds, "count")
    m["tensorops.Adam.step_ms"] = (per_round_ms(row("tensorops.Adam.step")[1]), "ms")
    for layer in ("Conv1d", "TransposedConv1d"):
        fwd = row(f"tensorops.{layer}.forward")
        rate = fwd[3] / fwd[1] / 1e9 if fwd[1] else 0.0
        m[f"tensorops.{layer}.forward_gflops_per_s"] = (rate, "GFLOP/s")

    ckpt_bytes = sum(os.path.getsize(path) * n
                     for path, n in tracer.info_counts("tensorops.read_checkpoint").items())
    ckpt = row("tensorops.read_checkpoint")
    m["tensorops.read_checkpoint_ms"] = (per_round_ms(ckpt[1]), "ms")
    m["tensorops.read_checkpoint_mb_per_s"] = (ckpt_bytes / 1e6 / ckpt[1] if ckpt[1] else 0.0, "MB/s")

    for net in NETWORKS:
        m[f"models.{net}.forward_self_ms"] = (per_round_ms(row(f"models.{net}.forward")[2]), "ms")
        m[f"models.{net}.backward_self_ms"] = (per_round_ms(row(f"models.{net}.backward")[2]), "ms")
    m["models.build_ms"] = (per_round_ms(row("models.build")[1]), "ms")

    m["trainer.predict_batched_ms"] = (per_round_ms(row("trainer.predict_batched")[1]), "ms")
    m["trainer.deep_supervised_loss_ms"] = (per_round_ms(row("trainer.deep_supervised_loss")[1]), "ms")
    m["trainer.train_network.self_ms"] = (per_round_ms(row("trainer.train_network")[2]), "ms")

    predict = row("pipeline.predict_waveform")
    m["pipeline.load_bundle_ms"] = (per_round_ms(row("pipeline.load_bundle")[1]), "ms")
    m["pipeline.predict_waveform_ms"] = (1e3 * predict[1] / predict[0] if predict[0] else 0.0, "ms")
    m["pipeline.preprocess_ppg_ms"] = (per_round_ms(row("pipeline.preprocess_ppg")[1]), "ms")
    m["pipeline.batch_predict.self_ms"] = (per_round_ms(row("pipeline.batch_predict")[2]), "ms")
    m["pipeline.write_predictions_csv_ms"] = (per_round_ms(row("pipeline.write_predictions_csv")[1]), "ms")

    m["sigproc.denoise_ms"] = (per_round_ms(row("sigproc.denoise")[1]), "ms")
    m["sigproc.skewness_sqi_ms"] = (per_round_ms(row("sigproc.skewness_sqi")[1]), "ms")

    rows_read = sum(_count_rows(path) * n
                    for path, n in tracer.info_counts("datapipe.read_signal_csv").items())
    csv_read = row("datapipe.read_signal_csv")
    m["datapipe.read_signal_csv_ms"] = (per_round_ms(csv_read[1]), "ms")
    m["datapipe.read_signal_csv_rows_per_s"] = (rows_read / csv_read[1] if csv_read[1] else 0.0, "rows/s")
    m["datapipe.write_store_ms"] = (per_round_ms(row("datapipe.write_store")[1]), "ms")

    m["evalstats.load_predictions_ms"] = (per_round_ms(row("evalstats.load_predictions")[1]), "ms")
    m["evalstats.evaluate_ms"] = (per_round_ms(row("evalstats.evaluate")[1]), "ms")

    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_ms"] = (per_round_ms(row(f"cli.{command}")[2]), "ms")

    self_sum = sum(r[2] for r in table.values()) / rounds
    m["trace.spans_per_round"] = (len(tracer.names) / rounds, "count")
    m["trace.overhead_pct"] = (100.0 * (traced_round_s / untraced_round_s - 1.0), "%")
    m["trace.self_sum_pct_of_untraced"] = (100.0 * self_sum / untraced_round_s, "%")
    return m
