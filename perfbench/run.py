#!/usr/bin/env python3
"""spectpp benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sample-short --seed 1 --seconds 30 --trace 0

Run from the root of a spectpp checkout; the package is imported from the
checkout's ``src``. Prints an environment block, every metric by name with
its unit, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sample-short", "sample-long", "fit-validate")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def source_digest() -> str:
    """Hash of the code whose outputs the determinism record pins."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "spectpp").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [ROOT / "scripts" / "gamma_ablation.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def blas_threads(numpy) -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return str(getter())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment(seed: int, digest: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_digest": digest,
        "workload_seed": seed,
    }


def check_record(workload: str, seed: int, digest: str, record: dict) -> str | None:
    """Compare this run's determinism record with the one an earlier run of
    the same code and seed stored; store it if there is none."""
    path = OUT / "records" / f"{workload}-seed{seed}-{digest[:16]}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous != record:
            return f"determinism record differs from {path.name}: {previous} != {record}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return None


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "spectpp" / "__init__.py").is_file() \
            or not (ROOT / "scripts" / "gamma_ablation.py").is_file():
        print(f"perfbench: no spectpp checkout at {ROOT} (need src/spectpp and "
              "scripts/gamma_ablation.py)", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spectpp
    if Path(spectpp.__file__).resolve().parent != ROOT / "src" / "spectpp":
        print(f"perfbench: imported spectpp from {spectpp.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import metrics
    import workloads

    digest = source_digest()
    env = environment(args.seed, digest)
    print("environment " + json.dumps(env, sort_keys=True))
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        result = workloads.run_workload(args.workload, ROOT, work_dir, args.seed,
                                        args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = list(result.outcome.errors)
    record = metrics.determinism_record(result)
    if record is None:
        errors.append("passes of identical work produced different outputs")
    elif record["digest"]:
        mismatch = check_record(args.workload, args.seed, digest, record)
        if mismatch:
            errors.append(mismatch)
        print("determinism " + json.dumps(record, sort_keys=True))
    if result.tracer is not None:
        result.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    for i, p in enumerate(result.passes):
        print(f"pass {i} traced={int(p.traced)} seconds={json.dumps(p.seconds)} "
              f"raw_seconds={json.dumps(p.raw_seconds)} events={json.dumps(p.events)}")
    if args.trace:
        values, units = metrics.per_layer(args.workload, result), metrics.PER_LAYER_UNITS
    else:
        values = metrics.end_to_end(args.workload, result, peak_rss_mb)
        units = metrics.END_TO_END_UNITS
    extra_values, extra_units = metrics.diagnostics(args.workload, result)
    for name, value in {**values, **extra_values}.items():
        print(f"metric {name} {value!r} {units.get(name) or extra_units[name]}")
    for error in errors:
        print(f"error {error}")
    outcome = result.outcome
    print(f"fail_rate {outcome.failed}/{outcome.attempted} operations")
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metric table and values disagree on {sorted(missing)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
