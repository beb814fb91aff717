"""Entry point of a workload process: ``child.py SRC MODE ARGS...``.

Kept tiny so that the interpreter compiles almost nothing before the
import of the package under test, whose end marks the end of set-up.
"""

import sys
import time

started = time.monotonic()
sys.path.insert(0, sys.argv[1])
import tanglepoly.cli  # noqa: E402,F401  (the import whose time is set-up)
imported = time.monotonic()

import workload  # noqa: E402

sys.exit(workload.main(sys.argv[1:], started, imported))
