"""Fixtures shared by the test modules."""
import pytest

import randent.protocol


@pytest.fixture
def replayed_rows(monkeypatch):
    """A list that gets, for each look-back of every pass, the kernel rows its replay steps.

    A look-back is a request whose first gate is at or below the last gate
    of the request before it.  It replays, at each point it asks for, every
    realization of the pass from its checkpoint, the last gate below its
    first at which every live point was asked (gate 0 if none), to its last
    gate, one row per gate step.  Counted from the requests the pass sends.
    """
    replays = []
    run_pass = randent.protocol._pass

    def spying(config, ask, points, width, before, judge, h):
        realizations = width // (len(config.measures) * (config.num_qubits // 2))
        asked = [-1]  # the last gate asked for; then each gate at which every live point was

        def spy(request):
            _, rec, rows = request
            if rec[0] <= asked[0]:
                check = max((g for g in asked[1:] if g < rec[0]), default=0)
                replays.append(int(rec[-1] - check) * int(rows.any(axis=0).sum()) * realizations)
            else:
                asked[0] = rec[-1]
                asked.extend(g for g, row in zip(rec, rows) if row.all())
            return ask(request)

        return run_pass(config, spy, points, width, before, judge, h)

    monkeypatch.setattr(randent.protocol, "_pass", spying)
    return replays
