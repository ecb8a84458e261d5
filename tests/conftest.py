import random
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
