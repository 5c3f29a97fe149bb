"""One cold pass in a fresh interpreter, as every ``ymgap`` invocation pays it.

Usage: python3 cold.py WORKLOAD PASS_SEED SPAWN_TIME

SPAWN_TIME is the parent's ``time.time()`` just before it started this
interpreter, so the set-up time counts interpreter start, the import of
``ymgap.cli`` and building the pass's inputs. The speed probe runs just
before and after the pass, in this process; it touches only numpy. Prints
one JSON line with the raw times and the factor that scales them to the
reference host speed.
"""

import json
import sys
import time

import workloads
from speed import SpeedScale


def main(argv):
    name, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    workload = workloads.make(name)
    inputs = workload.inputs(seed)
    setup_s = time.time() - spawned
    speed = SpeedScale()
    t0 = time.perf_counter()
    outcome = workload.call(inputs)
    first_pass_s = time.perf_counter() - t0
    scale = speed.factor()
    verdict = workload.check(inputs, outcome)
    workload.close()
    print(json.dumps({'setup_s': setup_s, 'first_pass_s': first_pass_s, 'scale': scale,
                      'problems': verdict.problems}))


if __name__ == '__main__':
    main(sys.argv[1:])
