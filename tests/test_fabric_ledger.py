"""The ledger of immutable per-phase tuples against the mutable one it
replaced (``fabric_reference``): the same counts, totals, dictionaries and
errors on any sequence of charges, snapshots and deltas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fabric_reference
from dmpcqp import CommLedger, verify_comm_identities
from dmpcqp.errors import CommAccountingError
from dmpcqp.fabric import PHASES

KINDS = ("global_floats", "global_booleans", "local_floats")

# small counts, so that deltas of one unit either way are common
_count = st.one_of(st.integers(-1, 2), st.floats(-1.0, 2.0))
_op = st.one_of(
    # charge ledger i, in a known phase or not, by counts that may be
    # negative
    st.tuples(st.just("charge"), st.integers(0, 8),
              st.sampled_from(PHASES + ("warmup",)), _count, _count, _count),
    st.tuples(st.just("snapshot"), st.integers(0, 8)),
    # ledger i since ledger j: negative when j holds more in some phase
    st.tuples(st.just("delta"), st.integers(0, 8), st.integers(0, 8)),
)


def _outcome(call):
    """``call()``'s value, or its error's type and message."""
    try:
        return "ok", call()
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _assert_same(led, ref):
    d = led.as_dict()
    assert d == ref.as_dict()
    assert list(d) == list(PHASES) + ["total"]
    assert all(type(v) is int for counts in d.values()
               for v in counts.values())
    for p in PHASES:
        assert tuple(led.phase(p)) == tuple(getattr(ref.phase(p), k)
                                            for k in KINDS)
    assert [getattr(led, k) for k in KINDS] == [getattr(ref, k) for k in KINDS]
    assert tuple(led.total()) == tuple(getattr(ref, k) for k in KINDS)


@given(st.lists(_op, max_size=16))
@settings(max_examples=300, deadline=None)
def test_ledger_replays_the_reference_ledger(ops):
    ledgers = [(CommLedger(), fabric_reference.CommLedger())]
    for op in ops:
        kind, i = op[0], op[1] % len(ledgers)
        led, ref = ledgers[i]
        if kind == "charge":
            counts = dict(zip(KINDS, op[3:]))
            got = _outcome(lambda: led.charge(op[2], **counts))
            floats = [k for k, v in counts.items() if type(v) is float]
            if op[2] in PHASES and floats:
                # the reference truncated a float count; the ledger rejects
                # it by name and charges nothing
                assert got == ("ValueError", f"{floats[0]} must be an "
                                             f"integer, got "
                                             f"{counts[floats[0]]!r}")
            else:
                assert got == _outcome(lambda: ref.charge(op[2], **counts))
        elif kind == "snapshot":
            ledgers.append((led.snapshot(), ref.snapshot()))
        else:
            since, since_ref = ledgers[op[2] % len(ledgers)]
            got = _outcome(lambda: led.delta(since))
            want = _outcome(lambda: ref.delta(since_ref))
            assert got[0] == want[0]
            if got[0] == "ok":
                ledgers.append((got[1], want[1]))
            else:
                assert got == want
        for pair in ledgers:
            _assert_same(*pair)
    led, ref = ledgers[0]
    assert _outcome(lambda: led.phase("warmup")) \
        == _outcome(lambda: ref.phase("warmup"))


def test_identity_checker_names_the_phase_and_counts():
    led = CommLedger()
    led.charge("dcg", global_floats=24, global_booleans=12, local_floats=31)
    with pytest.raises(CommAccountingError) as err:
        verify_comm_identities(led.delta(CommLedger()), 2, np.int64(5),
                               dcg_iterations=3)
    assert str(err.value) == ("phase dcg: measured (24, 12, 31) != expected "
                              "(24, 12, 30) for iterations dcg=3 asm=0 "
                              "admm=0")
