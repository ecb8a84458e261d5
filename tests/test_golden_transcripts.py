"""Known-answer tests: the exact bytes of whole protocol runs.

Each case runs a protocol with payload recording on and hashes, per message
in order, its direction, phase, framed length and payload. Any change to
tables, labels, OT messages or ciphertexts moves the constants; a change
that re-records them must show that the models did not move.
"""

import hashlib

import numpy as np
import pytest

from blindboost.encoding import Dataset, fold_labels
from blindboost.protocol import HE_GC, SECSH_GC, ProtocolConfig, run_learning
from blindboost.protocol.stump_select import confidential_ds_select
from blindboost.protocol.transcript import Transcript

BOOST_GOLDEN = {
    (HE_GC, "dealer"):
        "0ff110598e8dcf53f8c6dd8a4ec3743213296b96cc45d27ab6bfa7862bff449b",
    (HE_GC, "base"):
        "af4cd013e7df77b05b6457a73cf7051a4fae4a26062c76a6cb74d6880f14afe0",
    (SECSH_GC, "dealer"):
        "d3f64faca816e680942830fefa82ee9ac2506986e4a965a0c2fff45e85eab938",
    (SECSH_GC, "base"):
        "19b6cccd9c3afe2304f4a1966c0bf1ff5b023e227fb9e9489e987f2f7d43a891",
}
STUMP_GOLDEN = "851a81e9045611c3f8fdd3ae001c6e6917ea441453b8cd51b68ac49de62a51a1"
# The model that run selects: SHA-256 of its (48, 24) uint8 error vectors,
# its indices and its alphas, recorded when stump selection still ran its
# own circuit; a re-recorded STUMP_GOLDEN must leave them as they are.
STUMP_MODEL = ("a3ef78babb20fea2391d6b3adc703a0663d30ab58daec7b36ea1aa734926998a",
               [9, 7, 41], [1.5677471079645748, 0.9485599924429406, 0.66750053336617])


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


@pytest.mark.parametrize("construction,ot_mode", sorted(BOOST_GOLDEN))
def test_boost_transcript_bytes(recording, construction, ot_mode):
    cfg = ProtocolConfig(construction=construction, tau=2, p_max=8, ot_mode=ot_mode)
    _, t = run_learning(cfg, fold_labels(_dataset(11, 4, seed=71)))
    assert transcript_digest(t) == BOOST_GOLDEN[construction, ot_mode]


def test_stump_selection_transcript_bytes(recording):
    cfg = ProtocolConfig(construction=HE_GC, tau=3, p_max=3, ot_mode="dealer")
    res = confidential_ds_select(cfg, _dataset(24, 3, seed=72), s=8)
    errors, indices, alphas = STUMP_MODEL
    assert res.error_vectors.dtype == np.uint8 and res.error_vectors.shape == (48, 24)
    assert hashlib.sha256(res.error_vectors.tobytes()).hexdigest() == errors
    assert res.selected_indices == indices
    assert res.alphas == pytest.approx(alphas, rel=1e-12, abs=0)
    assert transcript_digest(res.transcript) == STUMP_GOLDEN
