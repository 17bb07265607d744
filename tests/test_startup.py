"""What ``import geoverify`` does to its process: native threads, the environment, the
cyclic collector and the submodules it loads; and what ``cli.main`` does to the collector.

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

#: Prints the native thread count, the environment and the collector's state (enabled,
#: freeze count) around ``import geoverify``, after running PRELUDE.
SCRIPT = """\
import gc, json, os
threads = lambda: len(os.listdir("/proc/self/task"))
collector = lambda: [gc.isenabled(), gc.get_freeze_count()]
environ = dict(os.environ)
{prelude}
before, collector_before = threads(), collector()
import geoverify
print(json.dumps({{"before": before, "after": threads(),
                   "environ_kept": dict(os.environ) == environ,
                   "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                   "collector": [collector_before, collector()]}}))
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
    assert seen == {"before": 1, "after": 1, "environ_kept": True, "blas": None,
                    "collector": [[True, 0], [True, 0]]}


@pytest.mark.skipif(geoverify.metrics._usable_cpus() < 2,
                    reason="OpenBLAS starts no more threads than there are CPUs")
def test_a_count_the_user_set_is_kept():
    seen = _import_geoverify(OPENBLAS_NUM_THREADS="2")
    assert seen == {"before": 1, "after": 2, "environ_kept": True, "blas": "2",
                    "collector": [[True, 0], [True, 0]]}


def test_numpy_imported_first_is_left_as_it_is():
    seen = _import_geoverify("import numpy")
    assert seen["after"] == seen["before"]
    assert seen["environ_kept"] and seen["blas"] is None
    assert seen["collector"] == [[True, 0], [True, 0]]


#: Checks in a fresh interpreter which submodules load, and that names still resolve.
LAZY_SCRIPT = """\
import json, sys
lazy = ("metrics", "climatology", "regrid", "tc", "vqa")
loaded = lambda: sorted(m for m in lazy if "geoverify." + m in sys.modules)
seen = {}
import geoverify
seen["import"] = loaded()
from geoverify import cli
cli.build_parser()
seen["cli"] = loaded()
assert cli.main(["tc-filter", "--cases", sys.argv[1], "--out", sys.argv[2]]) == 0
seen["tc-filter"] = loaded()
import geoverify.metrics
seen["pool"] = sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules)
seen["modules"] = [getattr(geoverify, m).__name__ for m in lazy + ("cubeio",)]
names = {}
exec("from geoverify import *", names)
seen["star"] = sorted(set(geoverify.__all__) - set(names))
seen["all"] = loaded()
seen["dir"] = sorted(set(geoverify.__all__) - set(dir(geoverify)))
print(json.dumps(seen))
"""


def _run_tc_filter_script(script, tmp_path):
    """Runs ``script`` in a fresh interpreter with a one-case tc-filter CSV and an output
    path as its arguments; returns the JSON it prints."""
    cases = tmp_path / "cases.csv"
    cases.write_text("case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
                     "c1,-2,-5,true,false,5\n")
    src = str(Path(geoverify.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(cases), str(tmp_path / "d.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_submodules_load_on_first_use(tmp_path):
    """``import geoverify`` and the CLI's parser load none of metrics, climatology, regrid,
    tc, vqa, and a tc command loads tc alone; ``geoverify.metrics`` loads no thread pool
    module, which a serial run never uses."""
    assert _run_tc_filter_script(LAZY_SCRIPT, tmp_path) == {
        "import": [], "cli": [], "tc-filter": ["tc"], "pool": [], "star": [],
        "modules": ["geoverify.metrics", "geoverify.climatology", "geoverify.regrid",
                    "geoverify.tc", "geoverify.vqa", "geoverify.cubeio"],
        "all": ["climatology", "metrics", "regrid", "tc", "vqa"], "dir": [],
    }


#: Runs tc-filter through main twice, each time after making 1000 new objects that
#: stay alive, and prints the freeze count and the collector's state after each.
FREEZE_SCRIPT = """\
import gc, json, sys
from geoverify import cli
kept, seen = [], []
for _ in range(2):
    kept.append([[] for _ in range(1000)])
    assert cli.main(["tc-filter", "--cases", sys.argv[1], "--out", sys.argv[2]]) == 0
    seen.append([gc.get_freeze_count(), gc.isenabled()])
print(json.dumps(seen))
"""


def test_main_freezes_the_start_up_objects_at_its_first_call_only(tmp_path):
    """The first call freezes every live object, the 1000 new ones with them; the
    second freezes nothing, so objects made between the calls stay collectable."""
    (first, first_enabled), (second, second_enabled) = _run_tc_filter_script(FREEZE_SCRIPT,
                                                                             tmp_path)
    assert first > 1000 and second <= first
    assert first_enabled and second_enabled
