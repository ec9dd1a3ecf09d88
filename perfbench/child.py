"""Run one benchmark function in a fresh interpreter.

Usage::

    python perfbench/child.py <module>:<function> <kwargs.pkl> <result.pkl>

``procs.call`` starts it.  A unit run this way is cold (no module, canvas
or workspace cache of an earlier unit), and its peak memory is its own,
not that of the process generating load or checking results.
"""

import importlib
import pickle
import sys
from pathlib import Path


def main() -> int:
    target, kwargs_path, result_path = sys.argv[1:]
    module, name = target.split(":")
    kwargs = pickle.loads(Path(kwargs_path).read_bytes())
    result = getattr(importlib.import_module(module), name)(**kwargs)
    Path(result_path).write_bytes(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
