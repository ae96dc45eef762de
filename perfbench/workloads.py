"""The benchmark's workloads: their inputs, one op each, and the op's output.

Each workload has a fixed pool of generated inputs; the run's seed sets the
order in which the ops visit them.  The pool is fixed so that the quality
metric (``period_error_median``) compares across runs and seeds: drawn from a
larger set, its median moved by more than its own size from seed to seed.
Each input has a recorded reference output in ``reference/<workload>.json``,
and every op of every run is checked against it.  The package is driven only through its
public entry points: ``synth.sweep``, ``cli.main(["detect", ...])`` and
``online.watch``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ioperiod import cli, online, synth
from ioperiod.trace import Trace, write_trace

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: relative tolerance of a float against its recorded reference
REL_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one op returned, reduced to the fields the reference pins."""

    out: dict            # compared field by field against the reference
    period: float | None
    lambda_avg: float    # generator ground truth of the op's input
    new_bytes: int       # bytes the program had not seen before this op


#: one op: (reference key, callable running the op)
OpItem = tuple[str, Callable[[], Outcome]]


def _analysis_out(confidence: str, candidates, period, score) -> dict:
    return {
        "confidence": confidence,
        "ks": [int(c) for c in candidates],
        "period": period,
        "score": score,
    }


class Sweep:
    """One op is one ``ioperiod bench`` cell: generate, then analyze at fs=1."""

    name = "sweep"
    LEVELS = (0.0, 3.3, 6.05, 14.3)      # compute_std of the cells, seconds
    PER_LEVEL = 10
    memory_ops = 8
    REF_KERNEL = "arrays"    # the breakpoint merge sorts and sums large arrays

    def pool(self) -> list[str]:
        return [f"level={li}/cell={j:02d}" for li in range(len(self.LEVELS))
                for j in range(self.PER_LEVEL)]

    def build(self, keys: list[str], workdir: Path):
        templates = synth.bundled_phase_templates(
            processes=32, request_bytes=16_000_000, seed=1)
        base = synth.SynthConfig(iterations=20, processes=32, templates=tuple(templates))
        return base, keys

    def ops(self, inputs, span) -> Iterator[OpItem]:
        base, keys = inputs
        for key in keys:
            level_index, cell = (int(part.split("=")[1]) for part in key.split("/"))

            def op(level=self.LEVELS[level_index], cell_seed=100 * level_index + cell):
                with span("synth.sweep"):
                    rows = synth.sweep({"compute_std": [level]}, 1, base,
                                       fs=1.0, seed=cell_seed)
                row = rows[0]
                out = {
                    "confidence": row["confidence"],
                    "period": row["lambda_detected"],
                    "score": row["score"],
                    "sigma_vol": row["sigma_vol"],
                    "sigma_time": row["sigma_time"],
                    "r_io": row["r_io"],
                    "lambda_avg": row["lambda_avg"],
                }
                return Outcome(out, row["lambda_detected"], row["lambda_avg"], 0)

            yield key, op


class FineDetect:
    """One op is ``ioperiod detect --freq 150`` on its own trace file."""

    name = "fine-detect"
    POOL = 40
    FREQ = "150"
    memory_ops = 8
    REF_KERNEL = "arrays"    # the FFT and detection run on large arrays

    def pool(self) -> list[str]:
        return [f"file={i:02d}" for i in range(self.POOL)]

    def build(self, keys: list[str], workdir: Path):
        templates = tuple(synth.bundled_phase_templates(
            processes=4, request_bytes=64_000_000, seed=2))
        files = []
        for key in keys:
            # 12 s compute gaps put every window's sample count n above
            # 2^15, so all ops run the same transform size; straddling
            # 2^15 made op latency bimodal
            config = synth.SynthConfig(iterations=10, processes=4, compute_mean=12.0,
                                       noise="low", templates=templates,
                                       seed=int(key.split("=")[1]))
            trace, truth = synth.generate(config)
            path = workdir / f"{key.replace('=', '-')}.jsonl"
            write_trace(trace, path)
            files.append((key, str(path), truth.lambda_avg))
        return files

    def ops(self, inputs, span) -> Iterator[OpItem]:
        for key, path, lambda_avg in inputs:

            def op(path=path, lambda_avg=lambda_avg):
                buf = io.StringIO()
                with span("cli.main"), contextlib.redirect_stdout(buf):
                    rc = cli.main(["detect", path, "--freq", self.FREQ])
                if rc != 0:
                    raise RuntimeError(f"ioperiod detect exited with {rc}")
                res = json.loads(buf.getvalue())
                metrics = res["metrics"] or {}
                out = _analysis_out(res["confidence"], [c["k"] for c in res["candidates"]],
                                    res["period_s"], metrics.get("score"))
                return Outcome(out, res["period_s"], lambda_avg, os.path.getsize(path))

            yield key, op


class OnlineTail:
    """One op appends one iteration to a file and takes the next prediction."""

    name = "online-tail"
    POOL = 1
    ITERATIONS = 40
    FS = 10.0
    memory_ops = ITERATIONS      # one whole session reaches the largest file
    REF_KERNEL = "parse"     # re-parsing the file dominates

    def pool(self) -> list[str]:
        return [f"session={i:02d}" for i in range(self.POOL)]

    def build(self, keys: list[str], workdir: Path):
        templates = tuple(synth.bundled_phase_templates(
            processes=8, request_bytes=32_000_000, seed=3))
        sessions = []
        for key in keys:
            config = synth.SynthConfig(iterations=self.ITERATIONS, processes=8,
                                       templates=templates, seed=int(key.split("=")[1]))
            trace, truth = synth.generate(config)
            sessions.append((key, workdir / f"{key.replace('=', '-')}.jsonl",
                             _iteration_chunks(trace, truth), truth.lambda_avg))
        return sessions

    def ops(self, inputs, span) -> Iterator[OpItem]:
        for key, path, chunks, lambda_avg in inputs:
            path.write_bytes(b"")
            # appends come before each next(), so the watcher never waits;
            # the idle timeout only ends a watcher that missed an append
            records = online.watch(path, self.FS, poll_interval=0.01, idle_timeout=1.0)
            try:
                for j, chunk in enumerate(chunks):

                    def op(chunk=chunk):
                        with span("bench.append"), open(path, "ab") as f:
                            f.write(chunk)
                        with span("online.watch"):
                            rec = next(records)
                        m = rec.analysis.metrics
                        out = _analysis_out(
                            rec.analysis.confidence.value,
                            [c.k for c in rec.analysis.result.candidates.entries],
                            rec.period, m.score if m else None)
                        out["window"] = list(rec.window)
                        return Outcome(out, rec.period, lambda_avg, len(chunk))

                    yield f"{key}/append={j:02d}", op
            finally:
                records.close()
                path.unlink(missing_ok=True)


def _iteration_chunks(trace: Trace, truth: synth.GroundTruth) -> list[bytes]:
    """Trace file text cut at the end of each I/O phase, requests by end time."""
    order = np.argsort(trace.end, kind="stable")
    ends = trace.end[order]
    chunks, lo = [], 0
    for _, phase_end in truth.phase_bounds:
        hi = int(np.searchsorted(ends, phase_end, side="right"))
        idx = order[lo:hi]
        part = Trace(trace.rank[idx], trace.start[idx], trace.end[idx],
                     trace.nbytes[idx], trace.kind_code[idx])
        buf = io.StringIO()
        write_trace(part, buf)
        chunks.append(buf.getvalue().encode())
        lo = hi
    return chunks


WORKLOADS = {w.name: w for w in (Sweep(), FineDetect(), OnlineTail())}


def select(workload, seed: int) -> list[str]:
    """The workload's pool in the order the run's seed gives."""
    keys = workload.pool()
    return [keys[i] for i in np.random.default_rng(seed).permutation(len(keys))]


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as f:
        return json.load(f)["ops"]


def mismatch(out: dict, ref: dict | None) -> str | None:
    """Describe the first field of ``out`` that differs from ``ref``, or None."""
    if ref is None:
        return "no reference output recorded"
    if out.keys() != ref.keys():
        return f"fields {sorted(out)} differ from reference fields {sorted(ref)}"
    for field, want in ref.items():
        if not _same(out[field], want):
            return f"{field}: got {out[field]!r}, reference {want!r}"
    return None


def _same(got, want) -> bool:
    if isinstance(want, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want
