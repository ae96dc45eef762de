"""Command-line front end: offline detection, online prediction, trace
generation, benchmark sweeps, and spectrum export.

Each subcommand takes only the flags it reads.  Machine-readable output goes
to stdout (or a file); diagnostics and warnings go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

from . import synth
from .detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN
from .online import watch
from .pipeline import analyze_trace
from .trace import TraceParseError, TraceValidationError, open_output, parse_trace, write_trace

DEFAULT_FS = 10.0


def _add_common(parser: argparse.ArgumentParser, freq: float = DEFAULT_FS,
                kind: bool = True, window: bool = True, thresholds: bool = True) -> None:
    """The analysis flags; ``--kind``, ``--window``, ``--tolerance`` and
    ``--z-min`` only where they are read."""
    parser.add_argument("--freq", type=float, default=freq,
                        help=f"sampling frequency in Hz (default {freq:g})")
    if thresholds:
        parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                            help="candidate Z-score tolerance in (0, 1] (default 0.8)")
        parser.add_argument("--z-min", type=float, default=DEFAULT_Z_MIN,
                            help="minimum outlier Z-score (default 3)")
    if kind:
        parser.add_argument("--kind", choices=["read", "write", "both"], default="both",
                            help="which request kinds to analyze")
    if window:
        parser.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                            default=None, help="analysis time window in seconds")
        # argparse reads -1000 as a value but -1e3 and -inf as flags
        parser._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


#: the metrics of a result, in the order text and CSV output list them
_METRIC_KEYS = ("r_io", "b_io", "sigma_vol", "sigma_time", "data_per_period", "score")


def _format_text(result: dict) -> str:
    lines = [f"confidence: {result['confidence']}"]
    if result["period_s"] is not None:
        lines.append(f"period: {result['period_s']:.4g} s "
                     f"(frequency {result['frequency_hz']:.4g} Hz)")
    lines.append(f"candidates: {len(result['candidates'])}")
    for c in result["candidates"]:
        lines.append(f"  k={c['k']}  f={c['frequency_hz']:.6g} Hz  z={c['zscore']:.3g}")
    if result["suppressed"]:
        lines.append("suppressed harmonics: "
                     + ", ".join(f"{f:.6g} Hz" for f in result["suppressed"]))
    m = result.get("metrics")
    if m:
        for key in _METRIC_KEYS:
            if m.get(key) is not None:
                lines.append(f"{key}: {m[key]:.6g}")
    if result.get("no_data"):
        lines.append("no data in the analysis window")
    return "\n".join(lines)


_NO_SPECTRUM = "no I/O in the analysis window, so no spectrum"


def _cmd_detect(args) -> int:
    trace = parse_trace(args.trace, kind_filter=args.kind)
    analysis = analyze_trace(trace, args.freq, window=args.window,
                             tolerance=args.tolerance, z_min=args.z_min)
    if args.spectrum_out and analysis.spectrum is None:
        print(f"warning: {_NO_SPECTRUM}; {args.spectrum_out} not written", file=sys.stderr)
    elif args.spectrum_out:
        analysis.spectrum.to_csv(args.spectrum_out,
                                 amplitude_scale=analysis.volume_scale)
    result = analysis.to_dict()
    with open_output(args.output or sys.stdout) as out:
        if args.format == "json":
            out.write(json.dumps(result) + "\n")
        elif args.format == "text":
            out.write(_format_text(result) + "\n")
        else:  # csv: single flat row
            m = result.get("metrics") or {}
            cols = ("period_s", "frequency_hz", "confidence", "sampling_error")
            out.write(",".join(cols + _METRIC_KEYS) + "\n")
            vals = [result[c] for c in cols] + [m.get(c) for c in _METRIC_KEYS]
            out.write(",".join("" if v is None else str(v) for v in vals) + "\n")
    return 0


def _cmd_predict(args) -> int:
    # the package neither imports nor configures logging (online._logger);
    # the command shows its records on stderr
    import logging

    log = logging.getLogger("ioperiod")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        with open_output(args.output or sys.stdout) as out:
            for record in watch(args.trace, args.freq,
                                poll_interval=args.watch_interval,
                                idle_timeout=args.idle_timeout,
                                tolerance=args.tolerance, z_min=args.z_min,
                                kind=args.kind,
                                fixed_window=args.fixed_window):
                out.write(json.dumps(record.to_dict()) + "\n")
                out.flush()
    except KeyboardInterrupt:
        pass
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return 0


#: the SynthConfig fields a --config file may set; SynthConfig checks their values
_CONFIG_KEYS = {f.name for f in dataclasses.fields(synth.SynthConfig)} - {"templates"}


def _synth_config(args, params: dict, count: int = 10) -> synth.SynthConfig:
    """The generator config: the command's flags, overridden by its --config file."""
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise synth.SynthConfigError(f"{args.config}: config must be a JSON object")
        for key in config:
            if key not in _CONFIG_KEYS:
                raise synth.SynthConfigError(f"{args.config}: unknown config key {key!r}")
        params.update(config)
    config = synth.SynthConfig(**params)  # checks the values before templates are built
    library = synth.bundled_phase_templates(
        count=count, processes=config.processes,
        request_bytes=args.request_bytes, seed=config.seed,
    )
    return dataclasses.replace(config, templates=tuple(library))


def _cmd_generate(args) -> int:
    params = {
        "iterations": args.iterations,
        "processes": args.processes,
        "compute_mean": args.compute_mean,
        "compute_std": args.compute_std,
        "desync_mean": args.desync_mean,
        "noise": args.noise,
        "seed": args.seed,
    }
    trace, truth = synth.generate(_synth_config(args, params, count=args.templates))
    write_trace(trace, args.out)
    # one iteration has no mean length: null, not NaN
    lam = None if math.isnan(truth.lambda_avg) else truth.lambda_avg
    if args.truth:
        with open(args.truth, "w") as f:
            json.dump({
                "iteration_starts": truth.iteration_starts.tolist(),
                "phase_bounds": [list(b) for b in truth.phase_bounds],
                "lambda_avg": lam,
            }, f, allow_nan=False)
    mean = "no mean iteration length" if lam is None else f"mean iteration length {lam:.3g} s"
    print(f"wrote {len(trace)} requests to {args.out} ({mean})", file=sys.stderr)
    return 0


#: ``bench``'s comma-list flags: (argument, SynthConfig field, value cast)
_GRID_FLAGS = (("noise", "noise", str), ("compute_mean_grid", "compute_mean", float),
               ("compute_std_grid", "compute_std", float),
               ("desync_mean_grid", "desync_mean", float))


def _cmd_bench(args) -> int:
    grid = {field: [cast(v) for v in getattr(args, flag).split(",")]
            for flag, field, cast in _GRID_FLAGS if getattr(args, flag)}
    if not grid:
        grid = {"noise": ["none"]}
    base = _synth_config(args, {"iterations": args.iterations,
                                "processes": args.processes, "seed": args.seed})
    rows = synth.sweep(grid, args.repetitions, base, fs=args.freq, seed=args.seed,
                       tolerance=args.tolerance, z_min=args.z_min)
    synth.sweep_to_csv(rows, args.out or sys.stdout)
    return 0


def _cmd_spectrum(args) -> int:
    trace = parse_trace(args.trace, kind_filter=args.kind)
    analysis = analyze_trace(trace, args.freq, window=args.window)
    if analysis.spectrum is None:
        print(f"error: {_NO_SPECTRUM}", file=sys.stderr)
        return 1
    # amplitudes in bytes/s, as ``detect --spectrum-out`` writes them
    analysis.spectrum.to_csv(args.out or sys.stdout, amplitude_scale=analysis.volume_scale)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ioperiod",
        description="Detect and predict the periodicity of I/O phases from "
                    "bandwidth-over-time traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="offline periodicity detection on a trace file")
    p.add_argument("trace")
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output", default=None, help="write the result here instead of stdout")
    p.add_argument("--spectrum-out", default=None, help="also export the spectrum as CSV")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("predict", help="watch a growing trace file and stream predictions")
    p.add_argument("trace")
    _add_common(p, window=False)
    p.add_argument("--watch-interval", type=float, default=1.0,
                   help="polling interval in seconds, positive (default 1)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="stop after this many seconds without new data")
    p.add_argument("--fixed-window", type=float, default=None,
                   help="use a fixed-length window instead of period adaptation")
    p.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                   default="warning",
                   help="log to stderr at this level; debug logs each append (default warning)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("generate", help="generate a semi-synthetic trace file")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="write generator ground truth as JSON")
    p.add_argument("--config", default=None, help="JSON key-value config file")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--processes", type=int, default=synth.DEFAULT_PROCESSES)
    p.add_argument("--compute-mean", type=float, default=11.0)
    p.add_argument("--compute-std", type=float, default=0.0)
    p.add_argument("--desync-mean", type=float, default=0.0)
    p.add_argument("--noise", choices=list(synth.NOISE_LEVELS), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates", type=int, default=10, help="size of the template library")
    p.add_argument("--request-bytes", type=int, default=synth.DEFAULT_REQUEST_BYTES)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="benchmark detection error over a parameter grid")
    _add_common(p, freq=1.0, kind=False, window=False)
    p.add_argument("--out", default=None, help="sweep CSV (default stdout)")
    p.add_argument("--config", default=None, help="JSON key-value base config")
    p.add_argument("--repetitions", type=int, default=30)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--processes", type=int, default=synth.DEFAULT_PROCESSES)
    p.add_argument("--noise", default=None, help="comma list, e.g. none,low,high")
    p.add_argument("--compute-mean-grid", default=None, help="comma list of seconds")
    p.add_argument("--compute-std-grid", default=None, help="comma list of seconds")
    p.add_argument("--desync-mean-grid", default=None, help="comma list of seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--request-bytes", type=int, default=16_000_000,
                   help="template request size (coarser is faster)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("spectrum", help="export the single-sided spectrum as CSV")
    p.add_argument("trace")
    _add_common(p, thresholds=False)  # the spectrum does not depend on them
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceParseError, TraceValidationError, synth.SynthConfigError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
