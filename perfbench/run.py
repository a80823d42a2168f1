"""chemfuse benchmark: three closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (one caller each; the next unit of work starts when the last ends):

* ``pretrain_toy``: ``pipeline.pretrain`` on ``tests/data/toy_200.smi`` in the
  acceptance smoke configuration; a unit is one optimizer step.
* ``embed_mixed``: ``chemfuse embed`` run in-process on a seeded mix of small
  and generated 40-100 atom molecules with a seeded, untrained checkpoint;
  a unit is one 10-row block of output.
* ``ingest_large``: ``ingest``, both vocabularies and ``prepare_records`` on
  seeded 50-line chunks of generated 40-100 atom molecules; a unit is a chunk.

Inputs are generated from ``--seed`` before any workload process starts.
With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it prints every per-layer metric. The last line of standard
output is one JSON object; the lines above it give each metric's unit and
sample count, the output checks, and the environment. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from worker import SETUP_SPANS, SMOKE_MODEL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain_toy", "embed_mixed", "ingest_large")
#: Extra processes that only set up, so set-up time is a median of several:
#: half run before the timed window and half after it, so that the median
#: spans the run rather than one moment of the host.
SETUP_PROBES = 12
#: Every workload process runs with one BLAS thread, on every commit.
BLAS_THREADS = "1"
#: A run must end well inside the 180 s the harness allows.
DEADLINE_S = 170.0

EMBED_LINES = 20000
#: Share of 40-100 atom molecules in the embed corpus: a chosen stress ratio
#: (large molecules take about 80 % of an op), not a measured traffic mix.
EMBED_LARGE_SHARE = 0.3
INGEST_CHUNKS, INGEST_CHUNK_LINES = 200, 50
DESCRIBED_LINES = 200

#: Duration of each workload's ``worker.calibration_block`` at the
#: reference speed: close to its median on a 2-vCPU x86-64 virtual machine
#: (Python 3.11, numpy 2.4). Any fixed value works; it only sets the scale.
REFERENCE_BLOCK_S = {"pretrain_toy": 0.011, "embed_mixed": 0.011,
                     "ingest_large": 0.008}
#: Calibration blocks that scale each unit of work: the nearest in time.
NEAREST_BLOCKS = 8
#: A block longer than this many times the median of its group is counted
#: at that length, so one stalled block cannot swing a group's mean.
BLOCK_CAP = 2.0


#: Per-layer metrics measured once, during set-up, rather than per unit.
ONE_TIME_LAYERS = tuple(SETUP_SPANS.values())


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: missing sources or a crashed process."""


# ------------------------------------------------------------------ statistics

def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it.

    Uses the nearest-rank definition: percentile p is the sample at rank
    ceil(p * n / 100), which leaves n - rank samples beyond it. With fewer
    than 20 samples no percentile from 50 up qualifies, and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def block_time(blocks: list[float]) -> float:
    """Mean block time, each block capped at BLOCK_CAP times the median.

    A mean tracks the host's slow phases better than a median, and the cap
    keeps a single stalled block from dominating it.
    """
    cap = BLOCK_CAP * statistics.median(blocks)
    return statistics.fmean(min(b, cap) for b in blocks)


def speed_factors(units: list, calibrations: list, reference: float) -> list[float]:
    """Per unit, the reference block time over the block time of the blocks
    run nearest to it. A unit's duration times its factor is its duration
    at the reference speed."""
    factors = []
    for start, end, _ in units:
        mid = (start + end) / 2
        near = sorted(calibrations, key=lambda c: abs(c[0] - mid))[:NEAREST_BLOCKS]
        factors.append(reference / block_time([c[1] for c in near]))
    return factors


def normalized(worker: dict, workload: str) -> tuple[list[float], list[float], int]:
    """Unit durations at the reference speed, raw durations, molecules."""
    units = worker["units"]
    raw = [end - start for start, end, _ in units]
    factors = speed_factors(units, worker["calibrations"], REFERENCE_BLOCK_S[workload])
    return ([d * f for d, f in zip(raw, factors)], raw,
            sum(m for _, _, m in units))


# ---------------------------------------------------------------------- inputs

def _smiles_lines(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def describe(smiles: list[str]) -> dict:
    """Atom, token and fragment-count (K) distribution of a corpus sample."""
    from chemfuse.pipeline import parse_molecule
    mols = [parse_molecule(s) for s in smiles]
    out = {"molecules": len(mols)}
    for key, values in (("atoms", [m.graph.m for m in mols]),
                        ("tokens", [m.tokens.n for m in mols]),
                        ("K", [m.fragment_map.K for m in mols])):
        q = statistics.quantiles(values, n=4)
        out[key] = {"min": min(values), "p25": q[0], "p50": q[1], "p75": q[2],
                    "max": max(values)}
    return out


def prepare_embed(work: Path, seed: int) -> dict:
    """Write the mixed corpus and a seeded, untrained checkpoint."""
    from chemfuse.chem import parse_smiles
    from chemfuse.encoder import ModelConfig
    from chemfuse.features import N_GROUPS
    from chemfuse.masking import build_context_vocab
    from chemfuse.pipeline import PretrainModel, build_vocabulary, save_pretrained

    golden = _smiles_lines(ROOT / "tests" / "data" / "golden_500.smi")
    smiles = gen.mixed_corpus(seed, EMBED_LINES, golden, EMBED_LARGE_SHARE)
    (work / "embed.smi").write_text("\n".join(smiles) + "\n")
    parsed = [parse_smiles(s) for s in golden + smiles[:DESCRIBED_LINES]]
    vocab = build_vocabulary(tokens for _, tokens in parsed)
    context = build_context_vocab(graph for graph, _ in parsed)
    config = ModelConfig(vocab_size=vocab.size, context_vocab_size=context.size,
                         n_groups=N_GROUPS, **SMOKE_MODEL)
    save_pretrained(work / "ckpt", PretrainModel(config, seed=seed), vocab,
                    context, step=0)
    info = describe(smiles[:DESCRIBED_LINES])
    info["large_share"] = EMBED_LARGE_SHARE
    return info


def prepare_ingest(work: Path, seed: int) -> dict:
    smiles = gen.large_corpus(seed, INGEST_CHUNKS * INGEST_CHUNK_LINES)
    for c in range(INGEST_CHUNKS):
        chunk = smiles[c * INGEST_CHUNK_LINES:(c + 1) * INGEST_CHUNK_LINES]
        (work / f"chunk_{c:04d}.smi").write_text("\n".join(chunk) + "\n")
    return describe(smiles[:DESCRIBED_LINES])


def prepare_pretrain(work: Path, seed: int) -> dict:
    return describe(_smiles_lines(ROOT / "tests" / "data" / "toy_200.smi"))


PREPARE = {"pretrain_toy": prepare_pretrain, "embed_mixed": prepare_embed,
           "ingest_large": prepare_ingest}


# ------------------------------------------------------------------- processes

def environment(seed: int) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_worker(workload: str, mode: str, seed: int, seconds: float, work: Path,
               deadline: float, spans: Path | None = None) -> dict:
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--work", str(work),
           "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {mode} {workload} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} {workload} process timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(f"{mode} {workload} process exited {proc.returncode}")
    return json.loads(out.read_text())


def measure(workload: str, seed: int, seconds: float, work: Path,
            deadline: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics: set-up probes, then one timed window."""
    def probes(n: int) -> list[dict]:
        return [run_worker(workload, "probe", seed, seconds, work, deadline)
                for _ in range(n)]

    workers = probes(SETUP_PROBES // 2)
    timed = run_worker(workload, "timed", seed, seconds, work, deadline)
    workers += [timed] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    # Set-up is reported as measured: its noise is mostly file reads and
    # library loading, which the calibration blocks do not track.
    setups = [w["setup_s"] for w in workers]
    durations, raw, mols = normalized(timed, workload)
    if not durations:
        raise BenchmarkError(f"{workload} measured no unit of work")
    n = len(durations)
    p, tail = tail_percentile(durations)
    _, raw_tail = tail_percentile(raw)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} processes, not scaled"),
        "mol_per_s": (mols / sum(durations), "mol/s",
                      f"{mols} molecules in {n} ops; raw {mols / sum(raw):.4f}"),
        "op_ms.p50": (statistics.median(durations) * 1e3, "ms",
                      f"{n} ops; raw {statistics.median(raw) * 1e3:.4f}"),
        "op_ms.tail": (tail * 1e3, "ms", f"p{p} of {n} ops; raw {raw_tail * 1e3:.4f}"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB", "1 process"),
    }
    return metrics, timed, {"setup_s": setups,
                            "tail_percentile": p,
                            "speed": mols / sum(raw) / (mols / sum(durations))}


def measure_traced(workload: str, seed: int, seconds: float, work: Path,
                   deadline: float, layer_names: list[tuple[str, str]]
                   ) -> tuple[dict, dict, dict]:
    """Per-layer metrics: an untraced and a traced window of half the time each."""
    half = seconds / 2
    plain = run_worker(workload, "timed", seed, half, work, deadline)
    spans = HERE / "_out" / f"{workload}-seed{seed}-spans.jsonl"
    spans.parent.mkdir(exist_ok=True)
    traced = run_worker(workload, "traced", seed, half, work, deadline, spans)
    if not plain["units"] or not traced["units"]:
        raise BenchmarkError(f"{workload} measured no unit of work")
    trace = traced["trace"]
    found = dict(trace["metrics"])
    plain_s, _, plain_mols = normalized(plain, workload)
    traced_s, _, traced_mols = normalized(traced, workload)
    found["tracing.overhead_frac"] = ((plain_mols / sum(plain_s))
                                      / (traced_mols / sum(traced_s)) - 1)
    per = "step" if workload == "pretrain_toy" else "molecule"
    speed = REFERENCE_BLOCK_S[workload] / block_time([c for _, c in traced["calibrations"]])
    metrics = {}
    for name, unit in layer_names:
        value = found.get(name, 0.0)
        if name in ONE_TIME_LAYERS:
            basis = "one-time, not scaled"
        else:
            basis = f"per {per}, {trace['per']} {per}s"
            if unit == "ms":
                value *= speed
                basis += f", at reference speed (x{speed:.3f})"
        metrics[name] = (value, unit, basis)
    # Every span in the window is one of the printed per-unit terms, so
    # they must add up to the traced wall time.
    parts = sum(value for name, (value, unit, basis) in metrics.items()
                if unit == "ms" and name not in ONE_TIME_LAYERS
                and name != "tracing.wall_ms")
    wall = metrics["tracing.wall_ms"][0]
    check = abs(parts - wall) <= 1e-6 * wall and trace["nesting_errors"] == 0
    traced["checks"].append({
        "name": "self times + other = traced wall", "ok": check,
        "detail": f"{parts:.4f} of {wall:.4f} ms per {per}, "
                  f"{trace['nesting_errors']} badly nested spans"})
    if not check:
        traced["failed"] += 1
    for c in plain["checks"]:
        c["name"] = "untraced run: " + c["name"]
    return metrics, traced, {"untraced_checks": plain["checks"],
                             "untraced_failed": plain["failed"]}


# ------------------------------------------------------------------------ main

def run_one(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        corpus = PREPARE[workload](work, seed)
        if trace:
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            metrics, worker, extra = measure_traced(workload, seed, seconds, work,
                                                    deadline, names)
        else:
            metrics, worker, extra = measure(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = worker["failed"] + extra.get("untraced_failed", 0)
    checks = worker["checks"] + extra.get("untraced_checks", [])
    attempted = max(1, worker["attempted"])
    record = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "metrics": metrics, "checks": checks,
              "attempted": attempted, "failed": min(failed, attempted),
              "corpus": corpus, "environment": environment(seed),
              "details": extra}
    report(record)
    out = HERE / "_out" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']} (closed loop, 1 caller, "
          f"{'traced' if record['trace'] else 'untraced'}, "
          f"{record['seconds']:g} s window)")
    for name, (value, unit, basis) in record["metrics"].items():
        print(f"  {name:<42} {value:>12.4f} {unit:<6} {basis}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':<42} {frac:>12.4f} {'1':<6} "
          f"{record['failed']} of {record['attempted']} ops")
    for check in record["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: "
              f"{check['detail']}")
    print(f"  corpus {json.dumps(record['corpus'])}")
    print(f"  environment {json.dumps(record['environment'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chemfuse" / "__init__.py").is_file():
        print("error: no chemfuse sources under src/ next to perfbench/",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, seconds, bool(args.trace), spec)
                   for w in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{name}": {"value": value, "unit": unit}
                   for r in records for name, (value, unit, _) in r["metrics"].items()}
    print(json.dumps({
        "correct": all(c["ok"] for r in records for c in r["checks"]),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
