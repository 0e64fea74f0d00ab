"""Fixtures shared by the test modules."""
from typing import NamedTuple

import pytest

import randent.protocol


class Pass(NamedTuple):  # one call of protocol._pass
    points: int
    realizations: int
    carry: bool  # adds its values to the sums of the pass before
    h: int
    replays: list  # per look-back, the kernel rows its replay steps


class PassLog(list):  # the passes run, in order
    @property
    def replays(self):
        """The kernel rows each look-back of every pass replays, in order."""
        return [rows for entry in self for rows in entry.replays]


@pytest.fixture
def pass_log(monkeypatch):
    """A PassLog that gets a Pass for each call of protocol._pass in this process.

    A look-back is a request whose first gate is at or below the last gate
    of the request before it.  It replays, at each point it asks for, every
    realization of the pass from its checkpoint, the last gate below its
    first at which every live point was asked (gate 0 if none), to its last
    gate, one row per gate step.  Counted from the requests the pass sends.
    """
    log = PassLog()
    run_pass = randent.protocol._pass

    def recording(config, ask, points, realizations, before, judge, h):
        entry = Pass(points, realizations, before is not None, h, [])
        log.append(entry)
        asked = [-1]  # the last gate asked for; then each gate at which every live point was

        def spy(request):
            _, rec, rows = request
            if rec[0] <= asked[0]:
                check = max((g for g in asked[1:] if g < rec[0]), default=0)
                entry.replays.append(int(rec[-1] - check) * int(rows.any(axis=0).sum()) * realizations)
            else:
                asked[0] = rec[-1]
                asked.extend(g for g, row in zip(rec, rows) if row.all())
            return ask(request)

        return run_pass(config, spy, points, realizations, before, judge, h)

    monkeypatch.setattr(randent.protocol, "_pass", recording)
    return log
