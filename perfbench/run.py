"""Closed-loop benchmark of the ymgap verification toolkit.

Usage:
    python3 perfbench/run.py --workload {report,constants,pointwise}
        --seed N --seconds S --trace {0,1}

One client in one process: each pass starts when the previous one has
returned, and every pass's output is checked. With ``--trace 0`` the run
reports the end-to-end metrics:

* ``setup_s`` and ``first_pass_s``: medians over ``COLD_RUNS`` fresh
  interpreters, each timing its start, the import of ``ymgap.cli`` and the
  inputs, then one cold pass;
* ``pass_s``: median of the warm passes made in this process, after one
  warm-up pass, for S seconds in all;
* ``peak_rss_mb``: peak resident memory of this process;
* ``passed_share``: passes whose output passed the check, over passes
  attempted (the complement of the failed share).

The three times are in seconds at a reference host speed: each interval
is scaled by the host-speed probe of ``speed.py``, timed in the same
process just before and after it. The raw times are in the detail line,
with the tail of the warm passes: the highest percentile with at least ten
samples beyond it, or null when ten or fewer passes fit in S seconds.

With ``--trace 1`` the run alternates untraced and traced warm passes on
the same pass seeds and reports the per-layer metrics of ``layers.py``.
The last line of standard output is the JSON result; the line before it
records the environment and the details behind the metrics.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# BLAS may use no more threads than the CPUs this process may run on; the
# limit must be set before numpy is first imported.
for _var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
    _limit = os.environ.get(_var, '')
    os.environ[_var] = str(min(int(_limit), NPROC) if _limit.isdigit() and int(_limit) > 0
                           else NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedScale  # noqa: E402
from tracer import Tracer  # noqa: E402

COLD_RUNS = 3
COLD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    'setup_s': 's', 'first_pass_s': 's', 'pass_s': 's',
    'peak_rss_mb': 'MiB', 'passed_share': 'ratio',
}


def run_pass(workload, seed):
    """Time one call into the program and check its output."""
    inputs = workload.inputs(seed)
    t0 = time.perf_counter()
    try:
        outcome = workload.call(inputs)
    except Exception as exc:  # a failed pass is counted, the run goes on
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, checker.Verdict([f"pass seed {seed}: {type(exc).__name__}: {exc}"])
    elapsed = time.perf_counter() - t0
    verdict = workload.check(inputs, outcome)
    for problem in verdict.problems:
        print(f"pass seed {seed}: {problem}", file=sys.stderr)
    return elapsed, verdict


def cold_pass(name, seed):
    """``cold.py``'s result for one fresh interpreter, or None if it failed."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / 'cold.py'), name, str(seed), repr(spawned)],
        capture_output=True, text=True, timeout=COLD_TIMEOUT_S, cwd=workloads.HERE.parent)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or result['problems']:
        problems = result['problems'] if result else proc.stderr[-2000:]
        print(f"cold pass seed {seed} failed (exit {proc.returncode}): {problems}",
              file=sys.stderr)
        return None
    return result


def tail(times):
    """The highest percentile with at least ten samples beyond it, with
    its rank and the sample count; None with ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return None
    return {'value': ordered[n - 11], 'percentile': 100.0 * (n - 10) / n, 'samples': n}


def measure(name, seed, seconds):
    """The untraced run: end-to-end metrics."""
    colds = [cold_pass(name, workloads.pass_seed(seed, index)) for index in range(COLD_RUNS)]
    colds = [c for c in colds if c is not None]
    failed = COLD_RUNS - len(colds)
    workload = workloads.make(name)
    verdicts = [run_pass(workload, workloads.pass_seed(seed, COLD_RUNS))[1]]
    speed = SpeedScale()
    times, scaled = [], []
    start = time.perf_counter()
    while True:
        elapsed, verdict = run_pass(workload, workloads.pass_seed(seed, COLD_RUNS + len(verdicts)))
        scaled.append(elapsed * speed.factor())
        times.append(elapsed)
        verdicts.append(verdict)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    workload.close()
    attempted = COLD_RUNS + len(verdicts)
    failed += sum(not v.ok for v in verdicts)
    values = {
        'pass_s': statistics.median(scaled),
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        'passed_share': (attempted - failed) / attempted,
    }
    if colds:
        values['setup_s'] = statistics.median(c['setup_s'] * c['scale'] for c in colds)
        values['first_pass_s'] = statistics.median(c['first_pass_s'] * c['scale'] for c in colds)
    detail = {'pass_s_tail': tail(scaled), 'failed_share': failed / attempted,
              'raw_pass_s': times, 'cold': colds, 'probe_s': speed.probes}
    return values, attempted, failed, detail


def measure_traced(name, seed, seconds):
    """The traced run: per-layer metrics, per traced warm pass."""
    workload = workloads.make(name)
    tracer = Tracer(layers.layer_modules(), layers.OBSERVERS)
    verdicts = [run_pass(workload, workloads.pass_seed(seed, 0))[1]]
    plain, traced = [], []
    agg = layers.Aggregate()
    start = time.perf_counter()
    while True:
        pass_seed = workloads.pass_seed(seed, 1 + len(plain))
        elapsed, verdict = run_pass(workload, pass_seed)
        plain.append(elapsed)
        verdicts.append(verdict)
        tracer.install()
        try:
            elapsed, verdict = run_pass(workload, pass_seed)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        verdicts.append(verdict)
        agg.add(elapsed, *tracer.take(), verdict)
        if (time.perf_counter() - start + statistics.median(plain)
                + statistics.median(traced) > seconds):
            break
    workload.close()
    values, not_called = layers.layer_metrics(agg)
    values['trace.overhead'] = statistics.median(traced) / statistics.median(plain)
    attempted = len(verdicts)
    failed = sum(not v.ok for v in verdicts)
    detail = {'traced_passes': len(traced), 'untraced_passes': len(plain),
              'not_called': not_called, 'failed_share': failed / attempted}
    return values, attempted, failed, detail


def _blas_threads():
    """Threads of numpy's OpenBLAS, asked of the loaded library; None if unknown."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, 'numpy.libs', '*openblas*')
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',
                       'openblas_get_num_threads'):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    root = workloads.HERE.parent
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=root, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, 'GIT_CEILING_DIRECTORIES': str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {'python': platform.python_version(), 'numpy': numpy.__version__,
            'scipy': scipy.__version__, 'blas': blas, 'blas_threads': _blas_threads(),
            'blas_thread_limit': int(os.environ['OPENBLAS_NUM_THREADS']), 'nproc': NPROC,
            'seed': seed, 'commit': _git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n', 1)[0])
    parser.add_argument('--workload', required=True, choices=workloads.NAMES)
    parser.add_argument('--seed', required=True, type=int)
    parser.add_argument('--seconds', required=True, type=float)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        workloads.import_ymgap()
    except (RuntimeError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values, attempted, failed, detail = measure_traced(args.workload, args.seed,
                                                           args.seconds)
        units = layers.METRIC_UNITS
    else:
        values, attempted, failed, detail = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    detail = {'workload': args.workload, 'trace': args.trace,
              'environment': environment(args.seed), **detail}
    print(json.dumps(detail))
    print(json.dumps({
        'correct': failed == 0,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': value, 'unit': units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
