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
        "6e1f8e51416c9ff25fb7a13d2e164f334c529c0319417e562ddd74cf56ab6802",
    (HE_GC, "base"):
        "25a273c93dd9d6b59bdcc9f191f4a14c45195f0e62a04976e9779b6177b7aaac",
    (SECSH_GC, "dealer"):
        "eed9400dc08f0d90f574679037a78d8e4fe9f3f2fd240b95cd7b69498d8a3c78",
    (SECSH_GC, "base"):
        "86174649ee9a7ce5d34ae17e21b1d3e8a8258a702df4e5cc5dcef5ee4f2b48cd",
}
STUMP_GOLDEN = "fe4c84a178b786dabf952d0ec3ea18995d95ca0d14d3f06e9d0b801f6308134f"
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
