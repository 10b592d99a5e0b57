"""The communication ledger :class:`dmpcqp.fabric.CommLedger` replaced,
kept as the reference.

This ledger kept a mutable :class:`PhaseCounters` per phase, with its own
``copy`` and ``as_dict``: ``snapshot`` copied every phase, each of the
three totals re-summed the phases, and ``delta`` subtracted field by field.
Tests require the package's ledger of immutable per-phase tuples to give
the same counts, totals, dictionaries and errors on any sequence of
charges, snapshots and deltas.  The classes are kept verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from dmpcqp.fabric import PHASES


@dataclass
class PhaseCounters:
    """Message counts charged under a single phase."""

    global_floats: int = 0
    global_booleans: int = 0
    local_floats: int = 0

    def copy(self) -> "PhaseCounters":
        return PhaseCounters(self.global_floats, self.global_booleans,
                             self.local_floats)

    def as_dict(self) -> dict:
        return {
            "global_floats": self.global_floats,
            "global_booleans": self.global_booleans,
            "local_floats": self.local_floats,
        }


class CommLedger:
    """Monotone counters of exchanged values, broken down by phase.

    Global counts cover agent-to-coordinator traffic (both directions),
    local counts cover neighbor-to-neighbor payload entries.
    """

    def __init__(self):
        self._phases = {p: PhaseCounters() for p in PHASES}

    def charge(self, phase, *, global_floats=0, global_booleans=0, local_floats=0):
        if phase not in self._phases:
            raise ValueError(f"unknown phase {phase!r}")
        if min(global_floats, global_booleans, local_floats) < 0:
            raise ValueError("ledger charges must be non-negative")
        ctr = self._phases[phase]
        ctr.global_floats += int(global_floats)
        ctr.global_booleans += int(global_booleans)
        ctr.local_floats += int(local_floats)

    def phase(self, phase) -> PhaseCounters:
        return self._phases[phase]

    @property
    def global_floats(self) -> int:
        return sum(c.global_floats for c in self._phases.values())

    @property
    def global_booleans(self) -> int:
        return sum(c.global_booleans for c in self._phases.values())

    @property
    def local_floats(self) -> int:
        return sum(c.local_floats for c in self._phases.values())

    def snapshot(self) -> "CommLedger":
        out = CommLedger()
        for p, ctr in self._phases.items():
            out._phases[p] = ctr.copy()
        return out

    def delta(self, since: "CommLedger") -> "CommLedger":
        """Counts accumulated after ``since`` was snapshotted."""
        out = CommLedger()
        for p in PHASES:
            a, b = self._phases[p], since._phases[p]
            d = PhaseCounters(
                a.global_floats - b.global_floats,
                a.global_booleans - b.global_booleans,
                a.local_floats - b.local_floats,
            )
            if min(d.global_floats, d.global_booleans, d.local_floats) < 0:
                raise ValueError("ledger delta would be negative")
            out._phases[p] = d
        return out

    def as_dict(self) -> dict:
        out = {p: c.as_dict() for p, c in self._phases.items()}
        out["total"] = {
            "global_floats": self.global_floats,
            "global_booleans": self.global_booleans,
            "local_floats": self.local_floats,
        }
        return out
