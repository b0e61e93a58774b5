import tempfile
from pathlib import Path

from hypothesis import configuration

# Even with database=None, Hypothesis caches the constants it reads from local
# source files under its home directory (at collection time, so this must run
# at import); keep that cache out of the working tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "branchlab-hypothesis")
