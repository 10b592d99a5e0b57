import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import CommLedger, Fabric, verify_comm_identities
from dmpcqp.errors import CommAccountingError, FabricDeadlock


def test_ledger_charges_by_phase():
    led = CommLedger()
    led.charge("dcg", global_floats=8, global_booleans=4, local_floats=10)
    led.charge("asm", global_floats=2)
    assert led.phase("dcg").global_floats == 8
    assert led.phase("asm").global_floats == 2
    assert led.global_floats == 10
    assert led.global_booleans == 4
    assert led.local_floats == 10
    with pytest.raises(ValueError):
        led.charge("warmup", global_floats=1)
    with pytest.raises(ValueError):
        led.charge("dcg", global_floats=-1)


def test_ledger_delta_isolates_new_traffic():
    led = CommLedger()
    led.charge("dcg", global_floats=4)
    snap = led.snapshot()
    led.charge("dcg", global_floats=6, local_floats=3)
    led.charge("init", global_booleans=2)
    d = led.delta(snap)
    assert d.phase("dcg").global_floats == 6
    assert d.phase("dcg").local_floats == 3
    assert d.phase("init").global_booleans == 2
    assert d.phase("asm").global_floats == 0
    # snapshots are insulated from later charges
    assert snap.global_floats == 4


def test_global_reduce_sum_and_charges():
    fab = Fabric(3)
    total = fab.global_reduce([1.0, 2.5, -0.5], op="sum", phase="dcg")
    assert total == 3.0
    assert fab.ledger.phase("dcg").global_floats == 6


def test_rejected_global_reduce_charges_nothing():
    """An unknown reduction is rejected before the round is charged."""
    fab = Fabric(3)
    with pytest.raises(ValueError, match="unknown reduction 'max'"):
        fab.global_reduce([1.0, 2.0, 3.0], op="max", phase="asm")
    assert fab.ledger.as_dict() == CommLedger().as_dict()
    assert fab.round_index == 0


def test_global_reduce_min_breaks_ties_low():
    fab = Fabric(4)
    val, agent = fab.global_reduce([2.0, 1.0, 1.0, 3.0], op="min", phase="asm")
    assert (val, agent) == (1.0, 1)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_global_reduce_sum_is_sequential_left_fold(values):
    fab = Fabric(len(values))
    got = fab.global_reduce(values, op="sum")
    acc = 0.0
    for v in values:
        acc += float(v)
    assert got == acc  # bitwise: fixed ascending accumulation order


def test_global_flags_and():
    fab = Fabric(3)
    assert fab.global_flags([True, True, True], phase="asm") is True
    assert fab.global_flags([True, False, True], phase="asm") is False
    assert fab.ledger.phase("asm").global_booleans == 12


def test_global_flags_carry_a_sum_in_the_same_round():
    """With ``values`` the flag round also sums one float per agent, as
    ``global_reduce`` does, and charges their up and down floats."""
    values = [0.1, 0.2, 0.3, 1e-17]
    fab = Fabric(4)
    assert fab.global_flags([True] * 4, phase="dcg", values=values) == \
        (True, Fabric(4).global_reduce(values, op="sum"))
    assert fab.global_flags([True, False, True, True], phase="init",
                            values=values)[0] is False
    assert fab.round_index == 2
    assert tuple(fab.ledger.phase("dcg")) == (8, 8, 0)
    assert tuple(fab.ledger.phase("init")) == (8, 8, 0)
    with pytest.raises(FabricDeadlock):
        fab.global_flags([True] * 4, values=[1.0, None, 2.0, 3.0])
    with pytest.raises(FabricDeadlock):
        fab.global_flags([True] * 4, values=[1.0])
    assert fab.round_index == 2


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", float("nan"), None,
                                 False])
def test_counts_must_be_integers(bad):
    """Agent counts and ledger charges are integers that are not ``bool``;
    anything else is rejected by name, not truncated."""
    with pytest.raises(ValueError, match=r"^n_agents must be an integer"):
        Fabric(bad)
    led = CommLedger()
    for name in ("global_floats", "global_booleans", "local_floats"):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            led.charge("dcg", **{name: bad})
    assert led.total() == (0, 0, 0)
    assert Fabric(np.int64(3)).n_agents == 3
    led.charge("dcg", global_floats=np.int32(2), local_floats=1)
    assert led.phase("dcg") == (2, 0, 1)
    assert all(type(v) is int for v in led.phase("dcg"))


def test_missing_contribution_deadlocks():
    fab = Fabric(3)
    with pytest.raises(FabricDeadlock):
        fab.global_reduce([1.0, None, 2.0], op="sum")
    with pytest.raises(FabricDeadlock):
        fab.global_flags([True, True])


def test_neighbor_exchange_meters_and_validates_sizes():
    fab = Fabric(2)
    values = np.arange(5.0)
    out = fab.neighbor_exchange(values, np.array([3, 4, 0]), phase="dcg")
    np.testing.assert_array_equal(out, [3.0, 4.0, 0.0])
    assert fab.ledger.phase("dcg").local_floats == 3
    assert fab.round_index == 1
    # the delivery is a copy: the sender's later updates do not reach it
    values[3] = -1.0
    assert out[0] == 3.0
    with pytest.raises(IndexError):
        fab.neighbor_exchange(values, np.array([5]))
    assert fab.round_index == 1


@given(dcg=st.integers(0, 40), asm=st.integers(0, 10), admm=st.integers(0, 40),
       m=st.integers(1, 6), nc=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_identity_checker_accepts_exact_ledgers(dcg, asm, admm, m, nc):
    led = CommLedger()
    led.charge("dcg", global_floats=4 * m * dcg, global_booleans=2 * m * dcg,
               local_floats=2 * nc * dcg)
    led.charge("asm", global_floats=2 * m * asm,
               global_booleans=2 * m * max(asm - 1, 0))
    led.charge("admm", global_booleans=2 * m * admm,
               local_floats=2 * nc * admm)
    led.charge("init", global_floats=123, global_booleans=7, local_floats=9)
    verify_comm_identities(led.delta(CommLedger()), m, nc,
                           dcg_iterations=dcg, asm_iterations=asm,
                           admm_iterations=admm)


@pytest.mark.parametrize("asm", [1, 2, 5])
def test_identity_checker_rejects_a_flag_round_in_the_first_asm_iteration(
        asm):
    """The first active-set iteration sends no step flags: the old
    ``2 m`` booleans for every outer iteration are ``2 m`` too many."""
    m = 3
    led = CommLedger()
    led.charge("asm", global_floats=2 * m * asm, global_booleans=2 * m * asm)
    with pytest.raises(CommAccountingError, match="phase asm"):
        verify_comm_identities(led.delta(CommLedger()), m, 4,
                               asm_iterations=asm)


def test_identity_checker_rejects_off_by_one():
    led = CommLedger()
    led.charge("dcg", global_floats=4 * 2 * 3, global_booleans=2 * 2 * 3,
               local_floats=2 * 5 * 3 + 1)
    with pytest.raises(CommAccountingError):
        verify_comm_identities(led.delta(CommLedger()), 2, 5, dcg_iterations=3)
