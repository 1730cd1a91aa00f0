import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from cellrun import run_cell
from meshsim.engine import Sim
from regen_golden import CELLS, SWEEP_CELLS, cell_lines, sweep_line


def pytest_addoption(parser):
    parser.addoption(
        "--full", action="store_true", default=False,
        help="include the large sweep points (80 and 100 nodes), which run "
             "without a pass/fail bound, and the golden lock under every other "
             "CPython 3.10+ that pyenv holds; these extend the suite by minutes")


@pytest.fixture(scope="session")
def full_mode(request):
    return request.config.getoption("--full")


ARRIVAL_CAUSES = {"_rts_arrival": "RTS corrupted", "_cts_arrival": "CTS corrupted",
                  "_data_arrival": "DATA corrupted", "_mac_ack_arrival": "ACK corrupted"}


def arm_cause(sim, caller):
    """Why the handshake whose timeout is being armed from frame `caller`
    failed, read from that frame's locals and the Sim's state."""
    name, local = caller.f_code.co_name, caller.f_locals
    if name == "_try_access":
        return "no peer radio"
    if name == "_receive":
        return ARRIVAL_CAUSES[local["on_arrival"].__name__]
    assert name == "_rts_arrival", name
    rx = local["rx_radio"]
    busy = rx.exchange is not None or sim.now < rx.rx_engaged_until
    return "RTS refused busy" if busy else "RTS refused by admission"


class ObservedSim(Sim):
    """The engine as it is, counting in `seen` each armed timeout by the
    cause of its failed handshake and each RTS admission verdict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen, decide = Counter(), self.rts_decide
        self.rts_decide = lambda *args, **kwargs: self._count(decide(*args, **kwargs))

    def _count(self, what):
        self.seen[what] += 1
        return what

    def _arm_timeout(self, radio):
        self._count(arm_cause(self, sys._getframe(1)))
        super()._arm_timeout(radio)


@pytest.fixture(scope="session")
def golden_pass():
    """The golden lock's cells run once per session, each phase under
    ObservedSim: the golden lines; per cell, its CSV lines, its phase results
    and its Sims' counts summed; and the wall seconds of the whole pass."""
    t0 = time.monotonic()
    done = SimpleNamespace(lines=[], csv={}, results={}, seen={})
    for name, text in CELLS:
        run = run_cell(text, ObservedSim)
        done.lines += cell_lines(name, run)
        done.csv[name], done.results[name] = run.csv, run.results
        done.seen[name] = sum((sim.seen for sim in run.sims), Counter())
    done.lines += [sweep_line(*cell) for cell in SWEEP_CELLS]
    done.elapsed = time.monotonic() - t0
    return done
