"""The benchmark's attach points resolve against the package.

``perfbench`` times per-layer spans by wrapping ``dmpcqp`` functions it
names in ``bench.ATTACH_POINTS``.  A renamed or removed function only drops
that span's metrics with a warning, and ``perfbench``'s own tests are not
part of this suite, so a rename is caught here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_attach_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracer import Tracer

    tracer = Tracer()
    try:
        missing = tracer.attach(bench.ATTACH_POINTS)
    finally:
        tracer.detach()
    assert bench.ATTACH_POINTS
    assert missing == []
