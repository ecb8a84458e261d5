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
        "d757322a3bfd1bbc06fd67b5f99fb94e352e11756e82ebf504f4cf2578c80b6a",
    (HE_GC, "base"):
        "164cc43acc6c81193bf93ef50c06dc86b741dce791f42c01c792437458980ab4",
    (SECSH_GC, "dealer"):
        "4e55b1512eb6be8be84c01f2150094e45b37fdb9c9e2288192b069c55210c2ce",
    (SECSH_GC, "base"):
        "61cb604ed5b3ecc20f05a776f9665a4b004054ff776c68861240be3fdc4ce9a5",
}
STUMP_GOLDEN = "97528b9ee32c2b6ed0e86d1dabe7d2b99005e5d0d59d65c7dbc686d49c5dfa4a"
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
