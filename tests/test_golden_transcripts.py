"""Known-answer tests: the exact bytes of whole protocol runs.

Each case runs a protocol with payload recording on and hashes, per message
in order, its direction, phase, framed length and payload. The constants
were recorded before garbling moved from byte labels to integer labels;
any change to tables, labels, OT messages or ciphertexts moves them.
"""

import hashlib

import numpy as np
import pytest

from blindboost.encoding import Dataset, fold_labels
from blindboost.protocol import HE_GC, SECSH_GC, ProtocolConfig, run_learning, transport
from blindboost.protocol.stump_select import confidential_ds_select
from blindboost.protocol.transcript import Transcript

BOOST_GOLDEN = {
    (HE_GC, "dealer", "half"):
        "96a329663150eaad95aaf8dfa3f14374ed9fab5ea6a312dedd7b78f7c5a1a362",
    (HE_GC, "dealer", "classic"):
        "9c0f46b782e2c0e988e0632f6bc2a814a703cf8eeeb8c5bcf54e1b7d6c8acf74",
    (HE_GC, "base", "half"):
        "8aea30bbdedff4bed9a68a13261a3f339e1d2f0ae84f8b8b126ba3d3cef29c20",
    (HE_GC, "base", "classic"):
        "e24ca51026e016304a2f2d9b0bf9312ae9f6af96386f0cd451681207f7917ce8",
    (SECSH_GC, "dealer", "half"):
        "989b610fb776ec3ca2045be58172c7a8150015becdd0dd9aaaf1ab3c2e7fddbb",
    (SECSH_GC, "dealer", "classic"):
        "72261b2bef4aa2f22a881a5d4553801992c4001d36705b9b3115d9ef8b11402a",
    (SECSH_GC, "base", "half"):
        "af5efc5ffe6c78bf46140eb8e3fc6222a8380f2728f79e3737452568bf095011",
    (SECSH_GC, "base", "classic"):
        "1e8fa16a6e90fe9d334b67f5f18f5610b1184ad9fe6c15b44307b4bb272f7393",
}
STUMP_GOLDEN = "b2c3ec7c627a528a3485437173e845303559d4e302efa1f47a4c7c387ba5c2e5"


@pytest.fixture
def recording(monkeypatch):
    """Every in-memory channel pair keeps its payloads."""
    pair = transport.memory_pair
    monkeypatch.setattr(transport, "memory_pair",
                        lambda: pair(Transcript(keep_payloads=True)))


def transcript_digest(t: Transcript) -> str:
    assert len(t.payloads) == len(t.messages)
    h = hashlib.sha256()
    for (direction, phase, nbytes), payload in zip(t.messages, t.payloads):
        h.update(f"{direction}|{phase}|{nbytes}|".encode())
        h.update(payload)
    return h.hexdigest()


def _dataset(n, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=n) > 0, 1, -1).astype(np.int8)
    return Dataset(X, y)


@pytest.mark.parametrize("construction,ot_mode,scheme", sorted(BOOST_GOLDEN))
def test_boost_transcript_bytes(recording, construction, ot_mode, scheme):
    cfg = ProtocolConfig(construction=construction, tau=2, p_max=8,
                         ot_mode=ot_mode, gc_scheme=scheme)
    _, t = run_learning(cfg, fold_labels(_dataset(11, 4, seed=71)))
    assert transcript_digest(t) == BOOST_GOLDEN[construction, ot_mode, scheme]


def test_stump_selection_transcript_bytes(recording):
    cfg = ProtocolConfig(construction=HE_GC, tau=3, p_max=3, ot_mode="dealer")
    res = confidential_ds_select(cfg, _dataset(24, 3, seed=72), s=8)
    assert transcript_digest(res.transcript) == STUMP_GOLDEN
