"""Synchronous message fabric with exact communication metering.

All cross-agent traffic goes through a :class:`Fabric`: scalar reductions and
convergence flags through a central coordinator, vector entries between
the neighbors that share a coupling row.  Every operation charges a
:class:`CommLedger` under one of four phases so experiments can report exact
communication footprints and verify per-iteration accounting identities.

The fabric simulates one synchronous round per collective call inside one
process; agents are evaluated sequentially but the reduction order is fixed
(ascending agent index) so results do not depend on scheduling.

Every count reaches the ledger through one path, ``CommLedger._add``: the
public :meth:`CommLedger.charge` calls it after checking the phase and the
counts a caller gives, and the fabric's rounds call it directly with the
counts they compute themselves.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import CommAccountingError, FabricDeadlock, require_integer

PHASES = ("init", "dcg", "asm", "admm")


class PhaseCounters(NamedTuple):
    """Message counts charged under a single phase."""

    global_floats: int = 0
    global_booleans: int = 0
    local_floats: int = 0


class CommLedger:
    """Monotone counters of exchanged values, broken down by phase.

    Global counts cover agent-to-coordinator traffic (both directions),
    local counts cover neighbor-to-neighbor payload entries.  Each phase's
    counts are one immutable :class:`PhaseCounters`, replaced on a charge.
    """

    def __init__(self):
        self._phases = dict.fromkeys(PHASES, PhaseCounters())

    def charge(self, phase, *, global_floats=0, global_booleans=0, local_floats=0):
        if phase not in self._phases:
            raise ValueError(f"unknown phase {phase!r}")
        counts = [require_integer(name, value) for name, value in (
            ("global_floats", global_floats),
            ("global_booleans", global_booleans),
            ("local_floats", local_floats))]
        if min(counts) < 0:
            raise ValueError("ledger charges must be non-negative")
        self._add(phase, *counts)

    def _add(self, phase, global_floats, global_booleans, local_floats):
        """Add counts known to be non-negative integers to ``phase``."""
        try:
            gf, gb, lf = self._phases[phase]
        except KeyError:
            raise ValueError(f"unknown phase {phase!r}") from None
        # tuple.__new__ skips the NamedTuple's Python-level __new__, which
        # costs more than the rest of a charge
        self._phases[phase] = tuple.__new__(PhaseCounters, (
            gf + global_floats, gb + global_booleans, lf + local_floats))

    def phase(self, phase) -> PhaseCounters:
        return self._phases[phase]

    def total(self) -> PhaseCounters:
        """The counts summed over all phases."""
        return PhaseCounters(*map(sum, zip(*self._phases.values())))

    global_floats = property(lambda self: self.total().global_floats)
    global_booleans = property(lambda self: self.total().global_booleans)
    local_floats = property(lambda self: self.total().local_floats)

    def snapshot(self) -> "CommLedger":
        out = CommLedger()
        out._phases = dict(self._phases)
        return out

    def delta(self, since: "CommLedger") -> "CommLedger":
        """Counts accumulated after ``since`` was snapshotted."""
        out = CommLedger()
        out._phases = {
            p: PhaseCounters(*map(operator.sub, c, since._phases[p]))
            for p, c in self._phases.items()}
        if min(map(min, out._phases.values())) < 0:
            raise ValueError("ledger delta would be negative")
        return out

    def as_dict(self) -> dict:
        out = {p: c._asdict() for p, c in self._phases.items()}
        out["total"] = self.total()._asdict()
        return out


class Fabric:
    """Coordinator plus neighbor exchange for a fixed set of agents."""

    def __init__(self, n_agents):
        self.n_agents = require_integer("n_agents", n_agents, 1)
        self.ledger = CommLedger()
        self.round_index = 0

    def _require_all(self, values, what):
        if len(values) < self.n_agents:
            raise FabricDeadlock(missing=range(len(values), self.n_agents),
                                 round_index=self.round_index)
        if len(values) > self.n_agents:
            raise ValueError(f"{what}: got {len(values)} contributions for "
                             f"{self.n_agents} agents")
        missing = [i for i, v in enumerate(values) if v is None]
        if missing:
            raise FabricDeadlock(missing=missing, round_index=self.round_index)

    def global_reduce(self, values, op="sum", phase="dcg"):
        """One coordinator round over one scalar per agent.

        ``op='sum'`` accumulates in ascending agent index and returns the
        broadcast total.  ``op='min'`` returns ``(value, agent)`` with ties
        broken by the lowest agent index.  Each round charges
        ``2 * n_agents`` global floats (up and down).
        """
        if op not in ("sum", "min"):
            raise ValueError(f"unknown reduction {op!r}")
        self._require_all(values, "global_reduce")
        self.ledger._add(phase, 2 * self.n_agents, 0, 0)
        self.round_index += 1
        if op == "sum":
            return _fold_sum(values)
        best = float(values[0])
        best_agent = 0
        for i in range(1, self.n_agents):
            v = float(values[i])
            if v < best:
                best, best_agent = v, i
        return best, best_agent

    def global_flags(self, flags, phase="dcg", values=None):
        """Boolean AND across agents; charges ``2 * n_agents`` booleans.

        With ``values``, one float per agent, the same round also sums them
        as :meth:`global_reduce` does, in ascending agent index, charges
        ``2 * n_agents`` global floats more and returns ``(flag, total)``.
        """
        self._require_all(flags, "global_flags")
        if values is not None:
            self._require_all(values, "global_flags")
        floats = 0 if values is None else 2 * self.n_agents
        self.ledger._add(phase, floats, 2 * self.n_agents, 0)
        self.round_index += 1
        flag = all(bool(f) for f in flags)
        return flag if values is None else (flag, _fold_sum(values))

    def neighbor_exchange(self, values, source, phase="dcg"):
        """Deliver entry ``source[k]`` of ``values`` to receiving entry ``k``.

        ``values`` holds every agent's entries on the coupling plan's flat
        layout and ``source`` names, per receiving entry, the entry sent to
        it (each a neighbor's entry of the same coupling row).  Charges
        ``source.size`` local floats.
        """
        delivered = values[source]
        self.ledger._add(phase, 0, 0, source.size)
        self.round_index += 1
        return delivered


def _fold_sum(values) -> float:
    """The sum of ``values`` accumulated in ascending agent index."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def verify_comm_identities(delta, n_agents, n_coupling, *, dcg_iterations=0,
                           asm_iterations=0, admm_iterations=0):
    """Check a ledger delta against the per-iteration accounting identities.

    Per iteration the distributed CG accounts for ``4M`` global floats,
    ``2M`` global booleans and ``2 n_c`` local floats; ADMM for ``2M``
    booleans and ``2 n_c`` local floats.  The active-set loop of one solve
    accounts for ``2M`` global floats per outer iteration and ``2M``
    booleans per outer iteration after the first: the first is the round
    whose feasibility flags came back clean, whose step is zero, so it
    sends no step flags.  Initialization traffic is excluded (it is charged
    under the ``init`` phase).  Raises :class:`CommAccountingError` on any
    mismatch.
    """
    M = int(n_agents)
    expected = {
        "dcg": PhaseCounters(4 * M * dcg_iterations, 2 * M * dcg_iterations,
                             2 * n_coupling * dcg_iterations),
        "asm": PhaseCounters(2 * M * asm_iterations,
                             2 * M * max(asm_iterations - 1, 0)),
        "admm": PhaseCounters(0, 2 * M * admm_iterations,
                              2 * n_coupling * admm_iterations),
    }
    for phase, want in expected.items():
        got = delta.phase(phase)
        if got != want:
            raise CommAccountingError(
                "phase {}: measured ({}, {}, {}) != expected ({}, {}, {}) "
                "for iterations dcg={} asm={} admm={}".format(
                    phase, *got, *want, dcg_iterations, asm_iterations,
                    admm_iterations))
