"""Traced stand-in for ``python -m graphon_lab.cli`` used by traced runs.

Times the package import as a ``cli.import`` span, installs the layer
wrappers, runs ``graphon_lab.cli.main`` on the given arguments and writes
the process's spans to the directory named by ``BENCH_SPAN_DIR``.
The root spans hang under the parent's ``cli.<command>`` span, whose id
arrives in ``BENCH_PARENT_SPAN``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

t0 = time.perf_counter()
import graphon_lab.cli as cli  # noqa: E402

t1 = time.perf_counter()

if __name__ == "__main__":
    tracer = Tracer.from_env()
    tracer.record("cli.import", t0, t1)
    tracer.install()
    try:
        rc = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.flush()
    sys.exit(rc)
