"""A failing party must not deadlock the run: the peer unblocks and the root
cause propagates. A hung party must not leave a partial result."""

import contextlib
import threading
import time

import numpy as np
import pytest

from blindboost.encoding import Dataset, fold_labels
from blindboost.errors import PartyTimeout
from blindboost.protocol import (
    HE_GC,
    ProtocolConfig,
    engine,
    run_learning,
    stump_select,
    transport,
)
from blindboost.protocol.parties import CloudParty, CSPParty


class Boom(RuntimeError):
    pass


def _folded():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(6, 2))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = rng.choice([-1, 1], size=6).astype(np.int8)
    return fold_labels(Dataset(X, y))


def test_csp_failure_propagates_without_deadlock(monkeypatch):
    folded = _folded()

    def broken(self, ch):
        raise Boom("csp died")

    monkeypatch.setattr(CSPParty, "trial", broken)
    cfg = ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer")
    with pytest.raises(Boom, match="csp died"):
        run_learning(cfg, folded)


@pytest.mark.parametrize("transport_kind", ["memory", "socket"])
def test_cloud_failure_raises_within_seconds(monkeypatch, transport_kind):
    # the default JOIN_TIMEOUT_S: the CSP waiting on recv must be woken by
    # Cloud's end closing, not by the join giving up
    def broken(self, ch, t):
        raise Boom("cloud died")

    monkeypatch.setattr(CloudParty, "trial", broken)
    cfg = ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer")
    folded = _folded()
    outcome = []

    def run():
        try:
            run_learning(cfg, folded, transport_kind=transport_kind)
        except Exception as exc:
            outcome.append(exc)

    started = time.perf_counter()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive(), "a Cloud failure left the run waiting"
    assert time.perf_counter() - started < 5
    assert len(outcome) == 1 and isinstance(outcome[0], Boom)


@pytest.fixture
def hung_csp(monkeypatch):
    """Make a CSP entry point block after its real work until the test ends,
    with the join timeout cut to a fraction of a second."""
    release = threading.Event()
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 0.2)

    def hang(owner, name):
        real = getattr(owner, name)

        def blocked(*args, **kwargs):
            out = real(*args, **kwargs)
            release.wait(timeout=30)
            return out
        monkeypatch.setattr(owner, name, blocked)

    yield hang
    release.set()


def _cfg():
    return ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer")


def test_hung_csp_thread_fails_run_learning(hung_csp):
    hung_csp(CSPParty, "run")
    with pytest.raises(PartyTimeout):
        run_learning(_cfg(), _folded())


@pytest.fixture
def socket_ends(monkeypatch):
    """The ends of every socket pair made from now on."""
    ends, socket_pair = [], transport.socket_pair

    def recorded_pair():
        pair = socket_pair()
        ends.extend(pair[:2])
        return pair

    monkeypatch.setattr(transport, "socket_pair", recorded_pair)
    return ends


def test_hung_csp_thread_leaves_no_socket_open(hung_csp, socket_ends):
    hung_csp(CSPParty, "run")
    with pytest.raises(PartyTimeout):
        run_learning(_cfg(), _folded(), transport_kind="socket")
    assert [end._sock.fileno() for end in socket_ends] == [-1, -1]  # both closed


@pytest.mark.parametrize("fails", [False, True], ids=["success", "cloud-failure"])
def test_runner_closes_both_socket_ends(socket_ends, fails):
    def cloud_main(ch):
        if fails:
            raise Boom("cloud died")
        ch.send("SETUP", b"hello")
        return ch.recv()

    def csp_main(ch):
        phase, payload = ch.recv()
        ch.send("DONE", payload)
        return phase

    with pytest.raises(Boom) if fails else contextlib.nullcontext():
        assert engine.run_pair(cloud_main, csp_main, "socket")[:2] == (("DONE", b"hello"),
                                                                       "SETUP")
    assert [end._sock.fileno() for end in socket_ends] == [-1, -1]  # both closed


def _stump_dataset():
    rng = np.random.default_rng(1)
    y = rng.choice([-1, 1], size=6).astype(np.int8)
    return Dataset(rng.uniform(-2, 2, size=(6, 2)), y)


def test_hung_csp_thread_fails_stump_selection(hung_csp):
    hung_csp(stump_select, "_csp_loop")
    with pytest.raises(PartyTimeout):
        stump_select.confidential_ds_select(_cfg(), _stump_dataset(), s=2, tau=1)


@pytest.mark.parametrize("owner, name, ch_arg, run", [
    (CSPParty, "run", 1, lambda: run_learning(_cfg(), _folded())),
    (stump_select, "_csp_loop", 0,
     lambda: stump_select.confidential_ds_select(_cfg(), _stump_dataset(), s=2, tau=1)),
], ids=["run_learning", "stump_selection"])
def test_csp_thread_waiting_on_recv_ends_with_the_run(monkeypatch, owner, name, ch_arg,
                                                       run):
    # the CSP waits for one more message after its last: the run times out,
    # and closing both ends wakes the CSP thread from its recv
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 0.5)
    real = getattr(owner, name)

    def one_more_recv(*args):
        out = real(*args)
        args[ch_arg].recv()
        return out

    monkeypatch.setattr(owner, name, one_more_recv)
    before = set(threading.enumerate())
    with pytest.raises(PartyTimeout):
        run()
    left = [t for t in threading.enumerate() if t.name == "csp" and t not in before]
    for t in left:
        t.join(timeout=1)
    assert not any(t.is_alive() for t in left), "the CSP thread is still in recv"
