"""Set-up, timed passes, the traced run and the result line of one benchmark run."""

from __future__ import annotations

import ctypes
import gc
import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from tracer import LAYERS, Tracer, per_layer_unit
from yardstick import Yardstick

#: Fewest set-ups per run; ``setup_s`` is their median.  A run sets up
#: afresh before every pass, so its set-ups spread over the whole run.
#: Each set-up is timed in yardsticks and reported in reference seconds.
SETUPS = 5

#: Fewest timed passes that get a 90th percentile besides the median.
MIN_TAIL_SAMPLES = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_yardsticks": "yardstick",
    "work_per_yardstick": "1/yardstick",
}


def unload_program() -> None:
    """Drop every dpplab module imported so far, so the next import starts afresh."""
    for name in [m for m in sys.modules if m == "dpplab" or m.startswith("dpplab.")]:
        del sys.modules[name]


def load_program(src: Path) -> SimpleNamespace:
    """Import dpplab from ``src`` afresh, dropping any copy imported before."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    unload_program()
    package = importlib.import_module("dpplab")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"dpplab was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{layer: importlib.import_module(f"dpplab.{layer}") for layer in LAYERS})


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _load_and_set_up(workload, seed: int, src: Path):
    prog = load_program(src)
    return prog, workload.setup(prog, seed)


def set_up(workload, seed: int, src: Path, yardstick: Yardstick):
    """One timed set-up: import dpplab afresh, build the inputs and make the warm-up call.

    Returns the program, the inputs, and the set-up time in seconds and
    in yardsticks.
    """
    unload_program()
    gc.collect()  # the previous copy's garbage is not this set-up's work
    (prog, inputs), seconds, in_yardsticks = yardstick.time(
        _load_and_set_up, workload, seed, src, interval=yardstick.SETUP_INTERVAL
    )
    return prog, inputs, seconds, in_yardsticks


def run(workload, seed: int, seconds: float, trace: bool, src: Path, spans_path: Path | None = None):
    """One benchmark run: returns (result line, record of what was measured).

    Every pass gets a fresh set-up.  Set-ups and untraced passes are
    timed in seconds and in yardsticks (see ``yardstick.py``); a traced
    pass runs without yardstick probes.
    """
    if hasattr(workload, "prepare"):
        workload.prepare(load_program(src))
    yardstick = Yardstick(workload.yardstick)
    setup_times, setup_relative, plain, relative, traced, layer_samples = [], [], [], [], [], []
    attempted = failed = 0
    whole = True
    tracer = last_tracer = None
    begin = time.perf_counter()
    index = 0
    while True:
        prog = inputs = result = tracer = None
        prog, inputs, elapsed, in_yardsticks = set_up(workload, seed, src, yardstick)
        setup_times.append(elapsed)
        setup_relative.append(in_yardsticks)
        tracing = trace and index % 2 == 1
        if tracing:
            loaded = [module for name, module in sys.modules.items() if name.split(".")[0] == "dpplab"]
            tracer = Tracer(vars(prog), loaded)
            with tracer.installed():
                start = time.perf_counter()
                result = workload.run_pass(prog, inputs, index)
                traced.append(time.perf_counter() - start)
            layer_samples.append(tracer.metrics())
            last_tracer = tracer
        else:
            result, elapsed, in_yardsticks = yardstick.time(workload.run_pass, prog, inputs, index)
            plain.append(elapsed)
            relative.append(in_yardsticks)
        try:
            verdicts, pass_ok = workload.check(prog, inputs, result, index)
        except Exception:  # a check that cannot finish fails every operation of the pass
            traceback.print_exc(file=sys.stderr)
            verdicts, pass_ok = [False] * workload.ops, False
        attempted += len(verdicts)
        failed += verdicts.count(False)
        whole &= pass_ok
        index += 1
        if time.perf_counter() - begin >= seconds and len(setup_times) >= SETUPS and (traced or not trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pass_yardsticks = statistics.median(relative)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_record(),
        "setup_wall_s": setup_times,
        "setup_yardsticks": setup_relative,
        "passes": len(plain),
        "pass_s_median": statistics.median(plain),
        "work_per_s": workload.units / statistics.median(plain),
        "yardstick": workload.yardstick,
        "yardstick_s": statistics.median(yardstick.measure() for _ in range(15)),
        "yardstick_reference_s": yardstick.reference_s,
        "work_unit": workload.unit,
        "work_per_pass": workload.units,
        "operations_per_pass": workload.ops,
    }
    if len(plain) >= MIN_TAIL_SAMPLES:
        record["pass_s_p90"] = statistics.quantiles(plain, n=10)[-1]
        record["pass_yardsticks_p90"] = statistics.quantiles(relative, n=10)[-1]
    record.update(getattr(workload, "figures", {}))
    if trace:
        record["traced_passes"] = len(traced)
        record["traced_pass_s_median"] = statistics.median(traced)
        record["tracing_overhead_s"] = record["traced_pass_s_median"] - record["pass_s_median"]
        values = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        metrics = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
        if spans_path is not None:
            last_tracer.write(spans_path)
    else:
        values = {
            "setup_s": statistics.median(setup_relative) * yardstick.reference_s,
            "peak_rss_mb": peak_rss_mb,
            "pass_yardsticks": pass_yardsticks,
            "work_per_yardstick": workload.units / pass_yardsticks,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    line = {"correct": bool(whole), "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record
