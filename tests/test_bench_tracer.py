"""The bench's tracer wraps geoverify's layer entry points by attribute name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_program():
    """A renamed or deleted wrapped name makes ``install()`` raise AttributeError."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'bench')!r}, {str(ROOT / 'src')!r}]; "
            "import tracer; tracer.install()")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
