"""Semi-synthetic trace generation and the detection-error benchmark.

An application is modeled as J non-overlapping iterations, each a compute
gap (truncated normal) followed by an I/O phase taken from a library of
per-process phase templates, with optional exponential per-process
desynchronization and low/high background noise.  A template is a
``Trace`` whose times start at 0: ``bundled_phase_templates`` builds them
procedurally, and a recorded phase is loaded with ``parse_trace``; its
request kinds are ignored, as every generated request is a write.  Ground
truth (iteration starts, phase bounds, mean iteration length) is recorded
alongside so the detected period can be scored.
"""
from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import warnings
from dataclasses import dataclass, replace
from typing import IO, Mapping, Sequence

import numpy as np

from .detection import DEFAULT_TOLERANCE, DEFAULT_Z_MIN
from .pipeline import analyze_trace
from .sampling import SamplingQualityWarning
from .trace import Trace, TraceValidationError, open_output

DEFAULT_PROCESSES = 32
DEFAULT_BYTES_PER_PROCESS = int(3.5e9)
DEFAULT_REQUEST_BYTES = 1_000_000

#: aggregate rate of the background-noise bursts, bytes/second
NOISE_RATES = {"low": 500e6, "high": 1e9}
NOISE_LEVELS = ("none", "low", "high")
_NOISE_PERIOD = 2.2            # seconds between noise bursts
_NOISE_BURSTS_PER_TILE = 10
_MAX_NOISE_BURSTS = 1 << 22    # ~107 days of noise; a longer trace is an error


class SynthConfigError(ValueError):
    """The generator configuration is inconsistent."""


def bundled_phase_templates(
    count: int = 10,
    processes: int = DEFAULT_PROCESSES,
    request_bytes: int = DEFAULT_REQUEST_BYTES,
    seed: int = 0,
) -> list[Trace]:
    """Procedurally built phase-template library of write traces.

    Defaults mimic a write phase of 32 processes streaming 3.5 GB each in
    1 MB requests: roughly 11 s long at about 10 GB/s aggregate, durations
    inside [10.4, 14.7] s.  Recorded templates can be substituted: a trace
    file of one phase, times from 0, parsed with ``parse_trace``.
    """
    if request_bytes < 1:
        raise SynthConfigError(f"request size must be >= 1 byte, got {request_bytes}")
    rng = np.random.default_rng(seed)
    n_req = max(1, DEFAULT_BYTES_PER_PROCESS // request_bytes)
    templates = []
    for _ in range(count):
        # duration centered on 11 s; clipping keeps the aggregate bandwidth
        # within 15% of 10 GB/s while staying inside the documented range
        duration = float(np.clip(rng.normal(11.0, 0.5), 10.4, 12.9))
        ranks, starts, ends, sizes = [], [], [], []
        for k in range(processes):
            lead = rng.uniform(0.0, 0.05 * duration) if k > 0 else 0.0
            span = duration - lead
            # jittered back-to-back request stream filling the process span
            widths = rng.uniform(0.5, 1.5, n_req)
            edges = np.concatenate([[0.0], np.cumsum(widths)])
            edges *= span / edges[-1]
            s = lead + edges[:-1]
            e = lead + edges[1:]
            if k == 0:
                e[-1] = duration  # pin the phase boundary
            b = np.full(n_req, request_bytes, dtype=np.int64)
            b[-1] += DEFAULT_BYTES_PER_PROCESS - n_req * request_bytes
            ranks.append(np.full(n_req, k, dtype=np.int64))
            starts.append(s)
            ends.append(e)
            sizes.append(b)
        templates.append(Trace(np.concatenate(ranks), np.concatenate(starts),
                               np.concatenate(ends), np.concatenate(sizes),
                               np.ones(processes * n_req, dtype=np.int8)))  # write
    return templates


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the semi-synthetic application model."""

    iterations: int = 20                   # J
    processes: int = DEFAULT_PROCESSES     # P
    compute_mean: float = 11.0             # mean compute-gap length, seconds
    # sigma of the compute-gap normal before truncation at zero; the realised
    # gap sigma/mu is smaller (~0.65 at mean 11, std 14.3) and stays below
    # ~0.76 for any std, since compute_mean > 0
    compute_std: float = 0.0
    desync_mean: float = 0.0               # mean of the per-process shift
    noise: str = "none"
    templates: tuple[Trace, ...] = ()      # phases from time 0; kinds ignored
    seed: int = 0

    def __post_init__(self):
        # types first, so that no comparison meets a string, a bool or a NaN
        for name in ("iterations", "processes", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SynthConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("compute_mean", "compute_std", "desync_mean"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not -math.inf < value < math.inf):
                raise SynthConfigError(f"{name} must be a finite number, got {value!r}")
        for name, low in (("iterations", 1), ("processes", 1), ("seed", 0),
                          ("compute_std", 0), ("desync_mean", 0)):
            if (value := getattr(self, name)) < low:
                raise SynthConfigError(f"{name} must be >= {low}, got {value}")
        if self.compute_mean <= 0:
            raise SynthConfigError(f"compute_mean must be positive, got {self.compute_mean}")
        if self.noise not in NOISE_LEVELS:
            raise SynthConfigError(f"unknown noise level {self.noise!r}")
        object.__setattr__(self, "templates", tuple(self.templates))


@dataclass(frozen=True)
class GroundTruth:
    """Generator-side truth used to score a detection."""

    iteration_starts: np.ndarray           # I/O phase start times
    phase_bounds: tuple[tuple[float, float], ...]
    lambda_avg: float

    def io_time_fraction(self, t_hi: float) -> float:
        """Fraction of [0, t_hi] covered by I/O phases."""
        covered = sum(
            max(0.0, min(e, t_hi) - max(s, 0.0)) for s, e in self.phase_bounds
        )
        return covered / t_hi


def _draw_positive_normal(rng: np.random.Generator, mu: float, sigma: float) -> float:
    # truncation by rejection: redraw until a positive value comes up
    if sigma == 0.0:
        return mu
    while True:
        v = rng.normal(mu, sigma)
        if v > 0.0:
            return v


def _noise_requests(rng: np.random.Generator, t_end: float, rate: float, rank: int):
    """Tile single-process noise traces (periodic short bursts) over [0, t_end]."""
    tile_len = _NOISE_BURSTS_PER_TILE * _NOISE_PERIOD
    burst_len = _NOISE_PERIOD / 2.0
    t = -rng.uniform(0.0, tile_len)
    # NaN (t_end = inf) fails the comparison too
    if not (t_end - t) // tile_len * _NOISE_BURSTS_PER_TILE <= _MAX_NOISE_BURSTS:
        raise SynthConfigError(f"noise over {t_end:g} s takes over {_MAX_NOISE_BURSTS} bursts")
    starts = []
    while t < t_end:
        for j in range(_NOISE_BURSTS_PER_TILE):
            s = t + j * _NOISE_PERIOD
            if 0.0 <= s and s + burst_len <= t_end:
                starts.append(s)
        t += tile_len
    if not starts:
        return None
    starts = np.asarray(starts)
    n = starts.shape[0]
    return (
        np.full(n, rank, dtype=np.int64),
        starts,
        starts + burst_len,
        np.full(n, int(rate * burst_len), dtype=np.int64),
    )


def _phase_rows(tmpl: Trace, found: int, processes: int):
    """Rank, start, end and byte columns of a template's first ``processes``
    ranks, and their latest end; ``found`` is its ``rank.max() + 1``."""
    if found == processes:
        return tmpl.rank, tmpl.start, tmpl.end, tmpl.nbytes, tmpl.t_max
    keep = tmpl.rank < processes
    r, s, e, b = (col[keep] for col in (tmpl.rank, tmpl.start, tmpl.end, tmpl.nbytes))
    return r, s, e, b, e.max()


def generate(config: SynthConfig) -> tuple[Trace, GroundTruth]:
    """Generate one semi-synthetic trace plus its ground truth.

    Deterministic given the seed: a fixed config reproduces the trace
    byte for byte.
    """
    if not config.templates:
        raise SynthConfigError("phase template library must not be empty")
    found = [int(tmpl.rank.max(initial=-1)) + 1 for tmpl in config.templates]
    for i, (tmpl, count) in enumerate(zip(config.templates, found)):
        if count < config.processes:
            raise SynthConfigError(f"template has {count} processes, need {config.processes}")
        # a wider template gives its first ranks, so it must have rows there
        if count > config.processes and tmpl.rank.min() >= config.processes:
            raise SynthConfigError(f"template {i} has no rows for ranks "
                                   f"0..{config.processes - 1}")
    rng = np.random.default_rng(config.seed)
    processes = config.processes
    # every draw comes first, in the order the phases use them, so that the
    # columns can be sized once and each phase written into them in place
    draws = []
    for _ in range(config.iterations):
        t_cpu = _draw_positive_normal(rng, config.compute_mean, config.compute_std)
        pick = int(rng.integers(len(config.templates)))
        if config.desync_mean > 0.0:
            delta = rng.exponential(config.desync_mean, processes)
            delta[0] = 0.0  # process 0 anchors the phase boundary
        else:
            delta = None
        draws.append((t_cpu, pick, delta))
    phases = {pick: _phase_rows(config.templates[pick], found[pick], processes)
              for pick in {pick for _, pick, _ in draws}}
    size = sum(phases[pick][0].shape[0] for _, pick, _ in draws)
    # one allocation holds the columns (8-byte numbers, as Trace gives):
    # glibc serves the block by mmap once, and freeing it lifts its mmap and
    # trim thresholds past a cell's arrays, so later cells reuse heap pages.
    # Four separate columns left whether a sweep cell faulted in its ~4.5 MB
    # afresh (about 1,100 minor faults, a third of its time) to the heap's
    # history, which any import could change.
    block = np.empty((4, size))
    rank, start, end, nbytes = block
    rank, nbytes = rank.view(np.int64), nbytes.view(np.int64)
    io_starts, bounds = [], []
    t = 0.0
    lo = 0
    for t_cpu, pick, delta in draws:
        r, s, e, b, e_max = phases[pick]
        hi = lo + r.shape[0]
        io_start = t + t_cpu
        shift = np.float64(io_start) if delta is None else io_start + delta[r]
        np.add(s, shift, out=start[lo:hi])
        np.add(e, shift, out=end[lo:hi])
        rank[lo:hi] = r
        nbytes[lo:hi] = b
        # rounding is monotone: the latest shifted end is the shifted
        # latest end when every rank has the same shift
        io_end = float(shift + e_max if delta is None else end[lo:hi].max())
        io_starts.append(io_start)
        bounds.append((io_start, io_end))
        t = io_end
        lo = hi
    try:
        if config.noise != "none":
            noise = _noise_requests(rng, t, NOISE_RATES[config.noise], processes)
            if noise is not None:
                rank, start, end, nbytes = (
                    np.concatenate(pair) for pair in zip((rank, start, end, nbytes), noise))
        trace = Trace(rank, start, end, nbytes, np.ones(rank.shape[0], dtype=np.int8),  # write
                      metadata={"origin": "synthetic", "seed": str(config.seed)})
    except (SynthConfigError, TraceValidationError) as exc:  # too many bursts, or end == start
        raise SynthConfigError(f"compute_mean {config.compute_mean:g} or desync_mean "
                               f"{config.desync_mean:g} is too large: {exc}") from exc
    io_starts = np.asarray(io_starts)
    lam = float(np.diff(io_starts).mean()) if len(io_starts) > 1 else float("nan")
    truth = GroundTruth(
        iteration_starts=io_starts, phase_bounds=tuple(bounds), lambda_avg=lam
    )
    return trace, truth


def detection_error(lambda_detected: float | None, truth: GroundTruth) -> float | None:
    """Relative error |detected - lambda_avg| / lambda_avg; None if no detection."""
    if lambda_detected is None:
        return None
    if not truth.lambda_avg > 0:   # NaN too: one iteration has no mean length
        raise ValueError("ground-truth mean iteration length must be positive")
    return abs(lambda_detected - truth.lambda_avg) / truth.lambda_avg


SWEEP_FIELDS = (
    "repetition", "lambda_avg", "lambda_detected", "error", "confidence",
    "sigma_vol", "sigma_time", "r_io", "r_io_truth", "score",
)


def _derived_seed(base: int, combo_index: int, repetition: int) -> int:
    ss = np.random.SeedSequence([base, combo_index, repetition])
    return int(ss.generate_state(1)[0])


def sweep(
    grid: Mapping[str, Sequence],
    repetitions: int,
    base: SynthConfig,
    fs: float = 1.0,
    seed: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    z_min: float = DEFAULT_Z_MIN,
) -> list[dict]:
    """Run the full detection over a parameter grid of generated traces.

    Every (combination, repetition) pair gets its own seed, derived from
    ``seed`` (``base.seed`` when None), so the output table is reproducible
    byte for byte.  Grid keys name SynthConfig fields.  Every cell needs at
    least 2 iterations, the fewest with a mean iteration length to score
    against.
    """
    keys = list(grid.keys())
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    if any(params.get("iterations", base.iterations) < 2 for params in cells):
        raise SynthConfigError("a sweep needs >= 2 iterations per trace "
                               "to have a mean iteration length")
    seed = base.seed if seed is None else seed
    rows = []
    for ci, params in enumerate(cells):
        for rep in range(repetitions):
            config = replace(base, seed=_derived_seed(seed, ci, rep), **params)
            trace, truth = generate(config)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SamplingQualityWarning)
                analysis = analyze_trace(
                    trace, fs, window=(0.0, trace.t_max),
                    tolerance=tolerance, z_min=z_min,
                )
            err = detection_error(analysis.period, truth)
            m = analysis.metrics
            row = dict(params)
            row.update({
                "repetition": rep,
                "lambda_avg": truth.lambda_avg,
                "lambda_detected": analysis.period,
                "error": err,
                "confidence": analysis.confidence.value,
                "sigma_vol": m.sigma_vol if m else None,
                "sigma_time": m.sigma_time if m else None,
                "r_io": m.r_io if m else None,
                "r_io_truth": truth.io_time_fraction(trace.t_max),
                "score": m.score if m else None,
            })
            rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], dest: IO[str] | str | os.PathLike) -> None:
    """Write sweep rows as CSV (param columns first, then result columns)."""
    if not rows:
        raise ValueError("no rows to write")
    param_cols = [k for k in rows[0] if k not in SWEEP_FIELDS]
    with open_output(dest) as f:
        writer = csv.DictWriter(f, fieldnames=param_cols + list(SWEEP_FIELDS))
        writer.writeheader()
        writer.writerows(rows)
