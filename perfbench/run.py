"""End-to-end benchmark of the ActiveIter reproduction: one paper run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table3-streamed --seed 7 --seconds 50 --trace 0

A run measures set-up time (cold ``import repro.cli`` in fresh
interpreters), then repeats the workload's paper run for about
``--seconds`` (at least once), checks every method fit's outputs, and
prints the metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name and unit,
plus the environment and sample counts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced paper runs, reports the per-layer metrics from the
traced ones, import times from ``python -X importtime``, and writes the
spans to ``perfbench/out/`` in the
``repro.obs`` JSONL format (``python -m repro.cli trace summarize``).

The program is imported from ``src/`` next to this directory; the
benchmark exits with an error, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("table3-streamed", "drift")

#: Cold imports timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: The default seed; ``digests.json`` records the outputs it gives.
DEFAULT_SEED = 7

#: Distance between the dataset seeds of consecutive paper runs.
DATASET_STRIDE = 1000

#: Scale of the untimed warm-up run.
WARMUP_SCALE = "tiny"

#: Modules whose cumulative ``-X importtime`` is reported in traced runs.
IMPORT_MODULES = {
    "import.scipy.stats_s": "scipy.stats",
    "import.scipy.optimize_s": "scipy.optimize",
    "import.scipy.linalg_s": "scipy.linalg",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples: int) -> List[float]:
    """Wall clock of ``import repro.cli`` in fresh interpreters."""
    times = []
    command = [sys.executable, "-c", "import repro.cli"]
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run(command, env=_import_env(), check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return times


def parse_importtime(stderr: str) -> List[Tuple[int, str, float]]:
    """``(depth, module, cumulative seconds)`` per ``-X importtime`` line."""
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$")
    entries = []
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match is not None:
            depth = (len(match.group(2)) - 1) // 2
            entries.append((depth, match.group(3), int(match.group(1)) / 1e6))
    return entries


def package_import_seconds(
    entries: Sequence[Tuple[int, str, float]], package: str
) -> float:
    """Cumulative import time of ``package`` and its submodules.

    A package imported through a lazy ``__getattr__`` (as scipy's
    submodules are) may have no line of its own, so this sums every
    subtree whose root belongs to the package and whose parent does not.
    A parent is printed after its children, one level shallower.
    """

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0.0
    for index, (depth, name, seconds) in enumerate(entries):
        if not inside(name):
            continue
        parent = next(
            (other for d, other, _ in entries[index + 1:] if d < depth), ""
        )
        if not inside(parent):
            total += seconds
    return total


def import_breakdown() -> Dict[str, float]:
    """The ``import.*`` metrics of one cold ``import repro.cli``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=_import_env(),
        check=True,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    entries = parse_importtime(completed.stderr)
    metrics = {"import.repro_s": package_import_seconds(entries, "repro")}
    for metric, module in IMPORT_MODULES.items():
        metrics[metric] = package_import_seconds(entries, module)
    return metrics


def blas_info() -> Tuple[str, Optional[int]]:
    """BLAS library name/version and its thread count, when readable."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
    except OSError:  # no /proc: the thread count stays unknown
        libraries = set()
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return name, threads


def environment(seed: int) -> Dict[str, object]:
    import numpy as np
    import scipy

    blas, blas_threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "seed": seed,
    }


#: Per-layer metrics that are ratios; the rest are seconds or counts.
RATIO_METRICS = (
    "active.positive_yield",
    "f1_activeiter",
    "session.rows_per_candidate",
    "trace_overhead",
    "unattributed_share",
)


def layer_unit(name: str) -> str:
    if name in RATIO_METRICS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pinned(workload: str, seed: int) -> Optional[Dict]:
    """The recorded digests of ``workload``'s outputs at ``seed``.

    Only the default seed is recorded.  The label digests of
    ``table3-streamed`` were recorded from the same lineup on
    materialized features: the streamed fit path must buy and predict
    byte-identical labels.
    """
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned[workload] if seed == pinned["seed"] else None


def dataset_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th paper run of a benchmark run.

    Each paper run generates its own pair, so a run's median covers
    several datasets and moves less from one ``--seed`` to the next.
    The first paper run uses ``seed`` itself.
    """
    return seed + DATASET_STRIDE * index


@dataclass
class Measurement:
    """Paper-run durations and what the runs left for the report.

    ``digests`` holds each untraced run's output digests (``None`` where
    the run raised); ``f1`` the headline F1 of each untraced run.
    """

    untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    traced_runs: List = field(default_factory=list)
    f1: List[float] = field(default_factory=list)
    digests: List[Optional[Dict]] = field(default_factory=list)


def measure(args, checker, capture, layer_trace=None) -> Measurement:
    """Repeat the paper run for ``args.seconds``, checking each one.

    A small untimed run first loads what a process loads once.  With a
    ``layer_trace``, untraced and traced runs alternate in pairs on the
    same dataset, so both see the same machine and the traced run must
    reproduce its partner's outputs byte for byte.
    """
    from spans import Patches
    from workloads import WORKLOADS

    workload_fn = WORKLOADS[args.workload]
    pinned = load_pinned(args.workload, args.seed)
    result = Measurement()
    fits_per_run = 1
    digests = result.digests
    try:
        workload_fn(capture, args.seed, WARMUP_SCALE)
    except Exception:
        checker.run_failed(fits_per_run, traceback.format_exc())
    capture.models = []
    capture.clock.waits.clear()
    started = time.perf_counter()
    while True:
        traced = layer_trace is not None and (
            len(result.traced) < len(result.untraced)
        )
        index = len(result.traced) if traced else len(result.untraced)
        seed = dataset_seed(args.seed, index)
        expected = digests[index] if traced else (
            pinned if index == 0 else None
        )
        gc.collect()
        run_started = time.perf_counter()
        with Patches() as patches:
            if traced:
                layer_trace.install(patches)
            try:
                if traced:
                    run = layer_trace.run(workload_fn, capture, seed)
                else:
                    run = workload_fn(capture, seed)
            except Exception:  # a failed paper run is counted, not fatal
                checker.run_failed(fits_per_run, traceback.format_exc())
                capture.models = []
                run = None
        (result.traced if traced else result.untraced).append(
            time.perf_counter() - run_started
        )
        if run is None:
            if not traced:
                digests.append(None)
        else:
            fits_per_run = len(run.fits)
            got = checker.check(run.fits, expected)
            if traced:
                result.traced_runs.append(run)
            else:
                digests.append(got)
                result.f1.append(run.f1_activeiter)
        # Stop before a run that would overshoot the measuring time; a
        # traced run always follows its untraced partner.
        elapsed = time.perf_counter() - started
        typical = statistics.median(result.untraced + result.traced)
        if elapsed + typical > args.seconds and (
            layer_trace is None or traced
        ):
            return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from checks import RunChecker, percentile
    from spans import Patches, SpanRecorder
    from workloads import FitCapture

    env = environment(args.seed)
    setup_times = [] if args.trace else measure_setup(SETUP_SAMPLES)
    checker = RunChecker()
    capture = FitCapture()
    layer_trace = None
    if args.trace:
        from layers import LayerTrace

        layer_trace = LayerTrace(
            SpanRecorder(trace_id=f"{args.workload}-{args.seed}")
        )
    with Patches() as patches:
        capture.install(patches)
        measured = measure(args, checker, capture, layer_trace)
    rss = peak_rss_mb()

    waits = [wait * 1000.0 for wait in capture.clock.waits]
    run_s = statistics.median(measured.untraced)
    f1 = statistics.median(measured.f1) if measured.f1 else 0.0
    samples = {
        "paper_runs": len(measured.untraced),
        "traced_runs": len(measured.traced),
        "setup_imports": len(setup_times),
    }
    if not args.trace:
        samples["query_waits"] = len(waits)
    lines = [
        f"workload {args.workload} seed {args.seed}",
        "env " + json.dumps(env, sort_keys=True),
        "samples " + json.dumps(samples, sort_keys=True),
    ]
    durations = {"untraced": measured.untraced, "traced": measured.traced}
    lines.append(
        "durations_s "
        + json.dumps({k: [round(v, 4) for v in d] for k, d in durations.items()})
    )
    lines.extend("CHECK FAILED " + problem for problem in checker.problems)
    if measured.digests and measured.digests[0] is not None:
        first = json.dumps(measured.digests[0], sort_keys=True)
        lines.append(f"digests of seed {args.seed} {first}")

    if args.trace:
        from layers import layer_metrics

        metrics = layer_metrics(layer_trace, measured.traced_runs)
        metrics.update(import_breakdown())
        metrics["f1_activeiter"] = f1
        metrics["trace_overhead"] = statistics.median(measured.traced) / run_s
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-{args.seed}.jsonl"
        layer_trace.recorder.write_jsonl(str(trace_file))
        lines.append(f"trace written to {trace_file.relative_to(ROOT)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        p50 = percentile(waits, 50)
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "query_wait_p50_ms": 0.0 if p50 is None else p50,
        }
        units = {
            "run_s": "s",
            "setup_s": "s",
            "peak_rss_mb": "MiB",
            "query_wait_p50_ms": "ms",
        }
        # Printed but not in BENCHMARK.json: the tail percentile exists
        # only with 100 or more waits, error_rate is 0 when all is well,
        # and F1 changes with the seed's data, not with speed.
        p90 = percentile(waits, 90)
        if p90 is not None:
            lines.append(f"query_wait_p90_ms {p90:.6g} ms")
        lines.append(
            f"error_rate {checker.failed / checker.attempted:.6g} ratio"
        )
        lines.append(f"f1_activeiter {f1:.6g} ratio")
    lines.extend(
        f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()
    )
    print("\n".join(lines))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
