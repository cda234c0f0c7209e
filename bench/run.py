"""Benchmark entry point for the frl package.

    python3 bench/run.py --workload plan-s729 --seed 0 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/`
next to this directory.  Each run sets the workload up several times
(`setup_s` is their median), then repeats identical rounds of measured
work until `--seconds` have passed.  `--trace 0` prints the end-to-end
metrics; `--trace 1` runs one warm-up repetition (one set-up plus one
round), then alternates untraced and traced repetitions, and prints the
per-layer metrics with the tracing overhead between the two.  Every
metric is printed as a line with its unit and direction first; the last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 2
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("work_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _print_metric(name, value, unit, better, note="") -> None:
    print(f"metric {name} = {value:.6g} {unit} ({better} is better){note}")


def _result(rounds, metrics) -> dict:
    """The final result line: output checks, operation counts, metrics."""
    problems = [p for r in rounds for p in r.check_failures]
    for p in problems:
        print(f"# check failed: {p}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _untraced(workload, seconds):
    from spans import NullRecorder

    null_rec = NullRecorder()
    setups = []
    for _ in range(SETUP_REPEATS):
        state, setup_s = workload.setup(null_rec)
        setups.append(setup_s)
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(workload.run_round(state, null_rec))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(r.work_s for r in rounds),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    for name, unit, better in END_TO_END:
        _print_metric(name, metrics[name], unit, better)
    print(f"# {len(rounds)} rounds, {SETUP_REPEATS} set-ups; detail below is not gated")
    _print_metric("failed_frac", failed / attempted, "frac", "lower", f" [{failed} of {attempted} operations]")
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        for key, values in r.detail.items():
            pooled.setdefault(key, []).extend(values)
    for key, values in pooled.items():
        if key.endswith("_ms"):
            for q in (50, 90):
                _print_metric(f"{key}_p{q}", _percentile(values, q), "ms", "lower", f" [n={len(values)}]")
        elif key.endswith("_per_s"):
            _print_metric(key, statistics.median(values), "1/s", "higher", f" [median of {len(values)}]")
        else:
            _print_metric(key, statistics.median(values), "s", "lower", f" [median of {len(values)}]")
    return _result(rounds, {name: (metrics[name], unit) for name, unit, _ in END_TO_END})


def _traced(workload, seconds):
    from layers import LAYER_METRICS, OVERHEAD, layer_metrics
    from spans import NullRecorder, SpanRecorder

    null_rec = NullRecorder()

    def repetition(recorder):
        state, setup_s = workload.setup(recorder)
        result = workload.run_round(state, recorder)
        return setup_s + result.work_s, result

    # After one discarded warm-up, untraced and traced repetitions
    # alternate, so that drift falls on both sides of the overhead ratio.
    repetition(null_rec)
    rec = SpanRecorder()
    untraced, reps = [], []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        untraced.append(repetition(null_rec))
        rec.current_rep = len(reps)
        rec.install()
        try:
            reps.append(repetition(rec))
        finally:
            rec.uninstall()
    per_rep = [layer_metrics(rec.summary(i), r.train_steps) for i, (_, r) in enumerate(reps)]
    metrics = {}
    for name, (unit, better, exact, _) in LAYER_METRICS.items():
        values = [m[name] for m in per_rep]
        if exact and len(set(values)) > 1:
            print(f"# warning: {name} differs between repetitions: {values}")
        metrics[name] = (values[0] if exact else statistics.median(values), unit, better)
    traced_walls, untraced_walls = [w for w, _ in reps], [w for w, _ in untraced]
    print("# repetition wall times (s): traced " + " ".join(f"{w:.3f}" for w in traced_walls)
          + "; untraced " + " ".join(f"{w:.3f}" for w in untraced_walls))
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics[OVERHEAD[0]] = (overhead, *OVERHEAD[1:])
    for name, (value, unit, better) in metrics.items():
        _print_metric(name, value, unit, better)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{workload.seed}.tsv"
    rec.write(spans_path)
    print(f"# {len(reps)} traced and {len(untraced)} untraced repetitions; spans in {spans_path.relative_to(ROOT)}")
    return _result([r for _, r in untraced + reps], {name: (v, u) for name, (v, u, _) in metrics.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("plan-s729", "online-pointmass", "offline-treatment"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Pinned before NumPy loads so that every run uses the same BLAS pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "frl" / "__init__.py").is_file():
        print(f"error: no frl package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np

    import frl
    from workloads import WORKLOADS

    if Path(frl.__file__).resolve().parent != (src / "frl").resolve():
        print(f"error: imported frl from {frl.__file__}, not from {src}", file=sys.stderr)
        return 2

    print(f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    print(f"# git revision: {_git_revision()}")
    print(f"# python {platform.python_version()}  numpy {np.__version__}  blas {_blas()}")
    print(f"# blas threads pinned: {BLAS_THREADS}  nproc: {os.cpu_count()}")
    workload = WORKLOADS[args.workload](args.seed)
    run = _traced if args.trace else _untraced
    result = run(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
