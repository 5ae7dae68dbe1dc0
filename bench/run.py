"""yamada-delay benchmark: end-to-end and per-layer timings of two workloads.

Usage, from the repository root::

    python3 bench/run.py --workload pulse-trains --seed 0 --seconds 55 --trace 0

One closed-loop, serial client in this process runs the workload's
items one after another, a pass at a time, and starts a new pass only
while the set-up timing and the passes still fit in ``--seconds``.
BLAS runs on one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing the package, building the CLI parser
and one tiny call per library module used), ``solve_s`` (median time
of one warm pass, inputs to JSON written) and ``peak_rss_mb``.  Both
times are scaled to a reference CPU speed by ``probe.py``, which samples
the vCPU's speed during the timed stretch; the wall times are printed
too.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics derived from the spans, plus the
tracing overhead; the two passes must write byte-identical files.

Every output is checked (see ``checks.py``).  The last line of stdout
is the result object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it record the environment and each metric with its
unit.  Work files go to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"

BLAS_THREADS = 1
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Times the interpreter from its spawn (``start``, read by the parent on
# the same monotonic clock) to the end of the warm-up, without teardown or
# the polling granularity of subprocess waits, and prints the probe's
# reference-speed and wall times.
SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import probe
with probe.Probe(start={start!r}) as clock:
    import yamada_delay
    from yamada_delay import cli
    cli.build_parser()
    import workloads
    workloads.warm_up({workload!r})
print(clock.scaled_s, clock.wall_s)
"""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("pulse-trains", "steady-spectra"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def time_setup(workload: str) -> list[tuple[float, float]]:
    """(reference-speed, wall) seconds of fresh interpreters, spawn to set-up done."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload,
                                 start=start)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        scaled, wall = map(float, proc.stdout.split()[-2:])
        times.append((scaled, wall))
    return times


class Pass(NamedTuple):
    out_dir: Path
    seconds: float  # wall time
    scaled_s: float | None  # reference-speed time, when probed
    item_seconds: dict  # item id -> wall time
    errors: dict  # item id -> exception text


def run_pass(items, out_dir: Path, recorder=None, probed=False) -> Pass:
    """One timed pass over the items, each writing its JSON into ``out_dir``.

    ``probed``: time the pass with ``probe.Probe`` too; the pass wall time
    then leaves out the probe's samples, the item times do not.
    """
    from workloads import run_item

    out_dir.mkdir(parents=True)
    errors = {}
    if probed:
        import probe

        clock = probe.Probe()
    else:
        clock = contextlib.nullcontext()
    with clock:
        stamps = [time.perf_counter()]
        for item in items:
            if recorder is not None:
                recorder.item = item.id
            try:
                run_item(item, out_dir / f"{item.id}.json")
            except Exception as exc:  # a raising item is a failed item; the pass goes on
                errors[item.id] = f"{type(exc).__name__}: {exc}"
            stamps.append(time.perf_counter())
    item_seconds = {item.id: b - a for item, a, b in zip(items, stamps, stamps[1:])}
    if not probed:
        return Pass(out_dir, stamps[-1] - stamps[0], None, item_seconds, errors)
    return Pass(out_dir, clock.wall_s, clock.scaled_s, item_seconds, errors)


def check_pass(items, p: Pass, refs) -> dict[str, list[str]]:
    """Problems per item id of one pass, exceptions included."""
    import checks

    outputs = {}
    problems = {item.id: [p.errors[item.id]] for item in items if item.id in p.errors}
    for item in items:
        if item.id in p.errors:
            continue
        try:
            with open(p.out_dir / f"{item.id}.json", encoding="utf-8") as fh:
                outputs[item.id] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            problems[item.id] = [f"unreadable output: {exc}"]
    for item_id, found in checks.check_outputs(items, outputs, refs).items():
        problems[item_id] = problems.get(item_id) or found  # "no output" if it raised
    return problems


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` inside the checkout, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas() -> tuple[str | None, int | None]:
    """(version string, thread count) from the OpenBLAS numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), int(threads())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def environment(workload: str, seed: int, items) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    blas, blas_threads = _openblas()
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "workload": workload,
        "seed": seed,
        "items": {item.id: item.params for item in items},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "yamada_delay" / "__init__.py").is_file():
        print(f"error: no yamada_delay package under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    # before numpy loads, and inherited by the set-up interpreters
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    start = time.perf_counter()  # set-up runs count against --seconds too
    setup_times = time_setup(args.workload) if args.trace == 0 else []

    import checks
    import workloads
    import yamada_delay

    if Path(yamada_delay.__file__).resolve().parent != SRC / "yamada_delay":
        print(f"error: yamada_delay imported from {yamada_delay.__file__}", file=sys.stderr)
        return 2
    workloads.warm_up(args.workload)
    items = workloads.make_items(args.workload, args.seed)
    refs = checks.references(items)
    shutil.rmtree(OUT, ignore_errors=True)

    problems = {}
    if args.trace == 0:
        passes = []
        while True:
            passes.append(run_pass(items, OUT / f"pass{len(passes)}", probed=True))
            if time.perf_counter() - start + statistics.median(p.seconds for p in passes) \
                    > args.seconds:
                break
        metrics = {
            "setup_s": statistics.median(scaled for scaled, _ in setup_times),
            "solve_s": statistics.median(p.scaled_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = e2e_units
    else:
        import spans

        recorder = spans.Recorder()
        passes = [run_pass(items, OUT / "untraced")]
        with spans.installed(recorder):
            passes.append(run_pass(items, OUT / "traced", recorder))
        recorder.write(OUT / "spans.json")
        metrics = spans.layer_metrics(recorder.spans)
        metrics["trace.overhead_s"] = passes[1].seconds - passes[0].seconds
        units = layer_units
        differing = [item.id for item in items
                     if not _same_bytes(*(p.out_dir / f"{item.id}.json" for p in passes))]
        if differing:
            problems["traced"] = ["output differs from the untraced pass: " + ", ".join(differing)]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    attempted = len(items) * len(passes)
    failed = 0
    for p in passes:
        for item_id, issues in check_pass(items, p, refs).items():
            if issues:
                failed += 1
                problems[f"{p.out_dir.name}/{item_id}"] = issues

    print("env " + json.dumps(environment(args.workload, args.seed, items), sort_keys=True))
    for p in passes:
        per_item = ", ".join(f"{k} {v:.4f}" for k, v in p.item_seconds.items())
        scaled = "" if p.scaled_s is None else f", {p.scaled_s:.4f} s at reference speed"
        print(f"pass {p.out_dir.name}: {p.seconds:.4f} s wall{scaled} ({per_item})")
    if setup_times:
        print("setup runs (reference speed / wall): "
              + ", ".join(f"{scaled:.4f}/{wall:.4f}" for scaled, wall in setup_times) + " s")
    for name, issues in problems.items():
        print(f"FAILED {name}: {'; '.join(issues)}")
    print(f"items attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4g}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


if __name__ == "__main__":
    sys.exit(main())
