"""What ``import geoverify`` does to its process: native threads and the environment.

Each case runs in a fresh interpreter, since OpenBLAS sizes its thread pool
once, when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoverify

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: Prints the native thread count and the environment around ``import geoverify``,
#: after running PRELUDE.
SCRIPT = """\
import json, os
threads = lambda: len(os.listdir("/proc/self/task"))
environ = dict(os.environ)
{prelude}
before = threads()
import geoverify
print(json.dumps({{"before": before, "after": threads(),
                   "environ_kept": dict(os.environ) == environ,
                   "blas": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""


def _import_geoverify(prelude="", **environ):
    """Runs SCRIPT with no BLAS thread variable set but those in ``environ``."""
    src = str(Path(geoverify.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(environ, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(prelude=prelude)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_unset_leaves_one_thread_and_the_environment_unchanged():
    seen = _import_geoverify()
    assert seen == {"before": 1, "after": 1, "environ_kept": True, "blas": None}


@pytest.mark.skipif(geoverify.metrics._usable_cpus() < 2,
                    reason="OpenBLAS starts no more threads than there are CPUs")
def test_a_count_the_user_set_is_kept():
    seen = _import_geoverify(OPENBLAS_NUM_THREADS="2")
    assert seen == {"before": 1, "after": 2, "environ_kept": True, "blas": "2"}


def test_numpy_imported_first_is_left_as_it_is():
    seen = _import_geoverify("import numpy")
    assert seen["after"] == seen["before"]
    assert seen["environ_kept"] and seen["blas"] is None
