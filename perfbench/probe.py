"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py SRC_DIR ARGV...

Times importing ``freqpred.cli`` from SRC_DIR (numpy comes with it) plus
one warm-up query (lazy scipy import, first cache fill), and prints
``{"setup_s": ..., "reference_s": ..., "code": ...}``.  Interpreter
start-up is not included.  ``reference_s`` is the mean time of the
reference work of hostspeed.py, run once before the set-up and once after.
"""

import contextlib
import io
import json
import sys
import time

from hostspeed import time_reference


def main() -> None:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    before = time_reference()
    start = time.perf_counter()
    import freqpred.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = freqpred.cli.main(argv)
    setup_s = time.perf_counter() - start
    reference_s = (before + time_reference()) / 2
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s, "code": code}))


if __name__ == "__main__":
    main()
