"""Set-up time of one workload, measured from a fresh interpreter.

Usage: ``python3 setup_probe.py SRC_DIR WORKLOAD SEED``.  Prints the seconds
from the first statement of this script to the end of the first
``build_network_qps``: importing ``dmpcqp``, building the network, drawing
the initial states and building the first init's QPs.  ``run.py`` starts it
with the BLAS thread variables already pinned.
"""

from time import perf_counter

_T0 = perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import bench
    wl = bench.WORKLOADS[workload]
    net = bench.build_network(wl)
    inits = bench.draw_initial_states(net, wl, seed)
    bench.build_network_qps(net, wl.horizon, inits[0])
    print(repr(perf_counter() - _T0))


if __name__ == "__main__":
    main()
