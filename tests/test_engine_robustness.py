"""A failing party must not deadlock the run: the peer unblocks and the root
cause propagates. A hung party must not leave a partial result."""

import contextlib
import threading

import numpy as np
import pytest

from blindboost.encoding import Dataset, fold_labels
from blindboost.errors import BlindBoostError, PartyTimeout
from blindboost.protocol import (
    HE_GC,
    SECSH_GC,
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
def test_cloud_failure_raises_within_seconds(monkeypatch, bounded, transport_kind):
    # the default JOIN_TIMEOUT_S: the CSP waiting on recv must be woken by
    # Cloud's end closing, not by the join giving up
    def broken(self, ch, t):
        raise Boom("cloud died")

    monkeypatch.setattr(CloudParty, "trial", broken)
    cfg = ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer")
    folded = _folded()
    with pytest.raises(Boom):
        bounded(lambda: run_learning(cfg, folded, transport_kind=transport_kind), 5)


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
def test_csp_thread_waiting_on_recv_ends_with_the_run(monkeypatch, bounded, owner, name,
                                                       ch_arg, run):
    # the CSP waits for one more message after its last: the run times out,
    # and closing both ends wakes the CSP thread from its recv at once
    # (bounded fails the test if the CSP thread outlives the run by 1 s)
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 0.5)
    real = getattr(owner, name)

    def one_more_recv(*args):
        out = real(*args)
        args[ch_arg].recv()
        return out

    monkeypatch.setattr(owner, name, one_more_recv)
    with pytest.raises(PartyTimeout):
        bounded(run, 30, csp_join=1)


def _reorder(at, swap):
    """An edited_pairs edit that sends message number `at` right after the
    next one, or, without `swap`, drops it."""
    held = []

    def edit(i, message):
        if i == at:
            held.append(message)
            return []
        return [message] + (held if swap else []) if i == at + 1 else [message]
    return edit


@pytest.mark.parametrize("ot_mode", ["dealer", "base"])
@pytest.mark.parametrize("kind", ["he-gc", "secsh-gc", "stump"])
def test_reordered_messages_end_in_a_typed_error(monkeypatch, bounded, edited_pairs, kind,
                                                 ot_mode):
    # every two adjacent messages of one party's flight swapped, the first
    # of them dropped, and Cloud's final DONE withheld: each rerun raises a
    # BlindBoostError within seconds. Dropping the last message of a flight
    # is left out: its receiver and its sender would then both wait on recv,
    # and the wait for a silent peer is unbounded by design
    monkeypatch.setattr(engine, "JOIN_TIMEOUT_S", 0.5)
    cfg = ProtocolConfig(construction=SECSH_GC if kind == "secsh-gc" else HE_GC, tau=1,
                         p_max=2, ot_mode=ot_mode)

    def run():
        if kind == "stump":
            return stump_select.confidential_ds_select(cfg, _stump_dataset(), s=2, tau=1)
        return run_learning(cfg, _folded())

    log = edited_pairs(lambda i, message: [message])
    run()
    adjacent = [i for i in range(len(log) - 1) if log[i][0] == log[i + 1][0]]
    last_done = max(i for i, m in enumerate(log) if m == ("cloud->csp", "DONE"))
    cases = [(swap, i) for swap in (True, False) for i in adjacent] + [(False, last_done)]
    for swap, at in cases:
        edited_pairs(_reorder(at, swap))
        try:
            bounded(run, 5)
        except BlindBoostError:
            continue
        pytest.fail(f"{'swapping' if swap else 'dropping'} message {at} of {log} went unnoticed")
