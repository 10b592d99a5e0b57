"""Pin the BLAS threads before numpy loads and put the sources on the path.

Run the benchmark's own tests from the repository root with
``python3 -m pytest perfbench``.
"""

import os
import sys

from run import SRC, THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))
