"""``python -m branchlab``: the branchlab command line."""
from .cli import entry

entry()
