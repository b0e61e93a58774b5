import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration

# Even with database=None, Hypothesis caches the constants it reads from local
# source files under its home directory (at collection time, so this must run
# at import); keep that cache out of the working tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "branchlab-hypothesis")

SRC = Path(__file__).resolve().parents[1] / "src"

_PRINT_PEAK = """
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) // 1024)
"""


@pytest.fixture
def fresh_peak_mb():
    """Run a script in a fresh interpreter; return (its stdout words, its peak in MB).

    The peak is VmHWM, that of the probe's process image alone; ru_maxrss
    would also keep the peak of the test process that spawned it. The
    script gets the extra arguments as sys.argv[1:] and imports branchlab
    from this checkout's src.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")

    def run(script, *args, timeout=120):
        out = subprocess.run(
            [sys.executable, "-c", script + _PRINT_PEAK, *map(str, args)],
            capture_output=True,
            text=True,
            check=True,
            timeout=timeout,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        *words, peak = out.stdout.split()
        return words, int(peak)

    return run
