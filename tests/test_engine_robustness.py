"""A failing party must not deadlock the run: the peer unblocks and the root
cause propagates. A hung party must not leave a partial result."""

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
    setup,
    stump_select,
    transport,
)
from blindboost.protocol.parties import CloudParty, CSPParty


def _folded():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(6, 2))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = rng.choice([-1, 1], size=6).astype(np.int8)
    return fold_labels(Dataset(X, y))


def test_csp_failure_propagates_without_deadlock(monkeypatch):
    folded = _folded()

    class Boom(RuntimeError):
        pass

    def broken(self, ch):
        raise Boom("csp died")

    monkeypatch.setattr(CSPParty, "result_eval_step", broken)
    cfg = ProtocolConfig(construction=HE_GC, tau=1, p_max=2, ot_mode="dealer")
    with pytest.raises(Boom, match="csp died"):
        run_learning(cfg, folded)


@pytest.mark.parametrize("transport_kind", ["memory", "socket"])
def test_cloud_failure_raises_within_seconds(monkeypatch, transport_kind):
    # the default JOIN_TIMEOUT_S: the CSP waiting on recv must be woken by
    # Cloud's end closing, not by the join giving up
    class Boom(RuntimeError):
        pass

    def broken(self, ch, t):
        raise Boom("cloud died")

    monkeypatch.setattr(CloudParty, "result_eval_step", broken)
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


def test_hung_csp_thread_leaves_no_socket_open(hung_csp, monkeypatch):
    hung_csp(CSPParty, "run")
    ends = []
    socket_pair = transport.socket_pair

    def recorded_pair():
        pair = socket_pair()
        ends.extend(pair[:2])
        return pair

    monkeypatch.setattr(transport, "socket_pair", recorded_pair)
    with pytest.raises(PartyTimeout):
        run_learning(_cfg(), _folded(), transport_kind="socket")
    assert [end._sock.fileno() for end in ends] == [-1, -1]  # both closed


@pytest.mark.parametrize("step", ["base_apply", "result_eval"])
def test_hung_csp_thread_fails_single_steps(hung_csp, step):
    pair = setup(_cfg(), _folded())
    engine.base_apply(pair, 1)
    hung_csp(CSPParty, f"{step}_step")
    with pytest.raises(PartyTimeout):
        getattr(engine, step)(pair, 1)


def test_hung_csp_thread_fails_stump_selection(hung_csp):
    hung_csp(stump_select, "_csp_loop")
    rng = np.random.default_rng(1)
    y = rng.choice([-1, 1], size=6).astype(np.int8)
    ds = Dataset(rng.uniform(-2, 2, size=(6, 2)), y)
    with pytest.raises(PartyTimeout):
        stump_select.confidential_ds_select(_cfg(), ds, s=2, tau=1)
