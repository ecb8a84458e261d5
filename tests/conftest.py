import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from blindboost import paillier
from blindboost.protocol import transport
from blindboost.protocol.transcript import Transcript


@pytest.fixture(scope="session")
def keypair_512():
    """One 512-bit test key shared across the suite (keygen is the slow part)."""
    return paillier.keygen(512, random.Random(0xBB512))


@pytest.fixture(scope="session")
def keypair_512_alt():
    return paillier.keygen(512, random.Random(0xA17))


@pytest.fixture
def recording(monkeypatch):
    """Every in-memory channel pair keeps its payloads."""
    pair = transport.memory_pair
    monkeypatch.setattr(transport, "memory_pair",
                        lambda: pair(Transcript(keep_payloads=True)))


class _Edited:
    """A channel end whose messages go through `edit(number, message)`, which
    returns the messages to send in its place; `sent` is shared by both
    ends, logs the (direction, phase) of each message and numbers them."""

    def __init__(self, ch, sent, edit):
        self.ch, self.sent, self.edit, self.counters = ch, sent, edit, ch.counters

    def send(self, phase, payload=b""):
        self.sent.append((self.ch.name, phase))
        for message in self.edit(len(self.sent) - 1, (phase, payload)):
            self.ch.send(*message)

    def recv(self):
        return self.ch.recv()

    def close(self):
        self.ch.close()


@pytest.fixture
def edited_pairs(monkeypatch):
    """edited_pairs(edit): every in-memory channel pair made from then on
    sends through `edit` (see _Edited); returns the log of its messages.
    A later call replaces the edit of an earlier one."""
    pair = transport.memory_pair

    def install(edit):
        sent = []

        def edited_pair():
            ch_cloud, ch_csp, transcript = pair()
            return _Edited(ch_cloud, sent, edit), _Edited(ch_csp, sent, edit), transcript

        monkeypatch.setattr(transport, "memory_pair", edited_pair)
        return sent
    return install


@pytest.fixture
def one_worker_pool(monkeypatch):
    """A one-worker pool for paillier.fan_out, whatever the machine's CPU
    count: a batch's first half runs on the calling thread, its second half
    on the worker."""
    pool = ThreadPoolExecutor(1, initializer=paillier._mark_worker)
    monkeypatch.setattr(paillier, "_pool", pool)
    monkeypatch.setattr(paillier, "_workers", 1)
    yield pool
    pool.shutdown()


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, note) wraps owner.name from now on: every call, on
    any thread, first appends note(*args) to the list that spy returns; by
    default (calling thread, args)."""
    def install(owner, name, note=lambda *args: (threading.current_thread(), args)):
        notes, real = [], getattr(owner, name)

        def wrapper(*args):
            notes.append(note(*args))
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)
        return notes
    return install


@pytest.fixture
def kernel_calls(spy):
    """(modulus, limb count, exponent bound, base) of every mpn_sec_powm call
    from the start of the test on, on any thread."""
    return spy(paillier._gmp, "mpn_sec_powm", lambda rp, bp, bn, ep, enb, mp, n, tp: (
        int.from_bytes(mp, "little"), n, enb, int.from_bytes(bp, "little")))


@pytest.fixture
def bounded():
    """bounded(fn, seconds, csp_join=5): fn() on a daemon thread, its result
    returned or its exception raised here. The test fails (by pytest.fail,
    which python -O keeps) where fn is still running after `seconds`, or
    where a party thread named "csp" that started meanwhile is alive
    `csp_join` seconds after fn ends."""
    def run(fn, seconds, csp_join=5):
        out, before = [], set(threading.enumerate())

        def target():
            try:
                out.append((fn(), None))
            except BaseException as exc:
                out.append((None, exc))

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(seconds)
        if runner.is_alive():
            pytest.fail(f"still running after {seconds} s")
        for t in set(threading.enumerate()) - before:
            if t.name == "csp":
                t.join(timeout=csp_join)
                if t.is_alive():
                    pytest.fail(f"a CSP thread is still running {csp_join} s after its run")
        result, exc = out[0]
        if exc is not None:
            raise exc
        return result
    return run
