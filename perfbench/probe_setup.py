"""One timed set-up, run as its own interpreter by ``run.py``:

    python3 perfbench/probe_setup.py --workload W --seed N --out DIR

imports ``cckit.cli`` and writes the workload's instance files, which is
everything a user pays between interpreter start and the first solve.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cckit.cli  # noqa: E402,F401  (the import is part of what is timed)
import gen  # noqa: E402

if __name__ == "__main__":
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    gen.write(args["--workload"], int(args["--seed"]), args["--out"])
