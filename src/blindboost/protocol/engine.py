"""Protocol orchestration: setup, the learning run, and model reassembly."""

import json
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .. import paillier, shares
from ..boosting import BoostedModel, LinearClassifier
from ..encoding import FixedPointParams, FoldedMatrix, encode_array
from ..errors import PartMismatch, PartyTimeout, PoolExhaustedWarning, TransportClosed
from .config import HE_GC, ProtocolConfig, stream
from .parties import CloudParty, CSPParty
from . import transport


JOIN_TIMEOUT_S = 600


def run_pair(cloud_main, csp_main, ch_cloud, ch_csp):
    """Run `csp_main()` on a worker thread and `cloud_main()` on this one;
    returns (Cloud's result, CSP's result).

    A failing party closes its end (`ch_cloud` or `ch_csp`), so a peer
    waiting on recv wakes up. The root cause is raised: Cloud's own error
    when Cloud failed first, CSP's when Cloud only saw the channel close. A
    CSP thread still running JOIN_TIMEOUT_S seconds after Cloud's part ended
    raises PartyTimeout: the run never returns a partial result.
    """
    errors, results = [], []

    def csp_wrapped():
        try:
            results.append(csp_main())
        except BaseException as exc:  # propagated after join
            errors.append(exc)
            ch_csp.close()  # unblock a peer waiting on recv

    worker = threading.Thread(target=csp_wrapped, name="csp", daemon=True)
    worker.start()
    try:
        cloud_result = cloud_main()
    except BaseException as exc:
        ch_cloud.close()  # unblock a CSP waiting on recv
        worker.join(timeout=JOIN_TIMEOUT_S)
        if errors and isinstance(exc, TransportClosed):
            raise errors[0]  # CSP failed first and closed its end
        raise
    worker.join(timeout=JOIN_TIMEOUT_S)
    if errors:
        raise errors[0]
    if worker.is_alive():
        raise PartyTimeout(f"the CSP thread is still running {JOIN_TIMEOUT_S} s "
                           f"after Cloud finished")
    return cloud_result, results[0]


def encrypt_submissions(cfg: ProtocolConfig, rows):
    """CSP's key pair, and the users' encryptions of `rows` under it: HE+GC's
    and stump selection's data set-up."""
    kp = paillier.keygen(cfg.key_bits, stream(cfg.seeds.csp, b"keyg"))
    return kp, paillier.encrypt_matrix(kp.public, rows, stream(cfg.seeds.data, b"user"))


def setup(cfg: ProtocolConfig, folded: FoldedMatrix):
    """Distribute the training data and keys; returns (CloudParty, CSPParty).

    The user role (encrypting or splitting the submissions) is simulated
    here, seeded by cfg.seeds.data.
    """
    Z = np.asarray(folded.Z, dtype=np.float64)
    n, dim = Z.shape
    fp = FixedPointParams.for_dimension(dim, cfg.precision_bits)
    zq = encode_array(Z, fp)

    if cfg.construction == HE_GC:
        kp, enc_data = encrypt_submissions(cfg, zq)
        cloud = CloudParty(cfg, fp, n, dim, enc_data=enc_data,
                           csp_public=kp.public)
        csp = CSPParty(cfg, fp, n, dim, keypair=kp)
    else:
        kp = paillier.keygen(cfg.key_bits, stream(cfg.seeds.cloud, b"keyg"))
        pair = shares.split(zq, fp.ring_bits, np.random.default_rng(cfg.seeds.data))
        cloud = CloudParty(cfg, fp, n, dim, own_keypair=kp, z0=pair.part0)
        csp = CSPParty(cfg, fp, n, dim, cloud_public=kp.public, z1=pair.part1)
    return cloud, csp


@dataclass
class DistributedModel:
    """The two model halves plus the acceptance bitmap over the tried pool."""

    construction: str
    cloud_part: list   # (trial index, classifier vector) for accepted trials
    csp_part: list     # (trial index, alpha, flipped)
    acceptance: list   # per-trial accept bit
    fp: FixedPointParams

    def to_json(self) -> str:
        return json.dumps({
            "construction": self.construction,
            "cloud_part": [[t, w.tolist()] for t, w in self.cloud_part],
            "csp_part": [[t, a, int(f)] for t, a, f in self.csp_part],
            "acceptance": [int(a) for a in self.acceptance],
            "fixed_point": {"precision_bits": self.fp.precision_bits,
                            "ring_bits": self.fp.ring_bits},
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DistributedModel":
        d = json.loads(text)
        return cls(construction=d["construction"],
                   cloud_part=[(t, np.asarray(w)) for t, w in d["cloud_part"]],
                   csp_part=[(t, a, bool(f)) for t, a, f in d["csp_part"]],
                   acceptance=[bool(a) for a in d["acceptance"]],
                   fp=FixedPointParams(**d["fixed_point"]))


def collect_model(cfg: ProtocolConfig, cloud: CloudParty, csp: CSPParty) -> DistributedModel:
    cloud_part = [(t + 1, cloud.tried_w[t]) for t, acc in enumerate(cloud.acceptance)
                  if acc]
    return DistributedModel(construction=cfg.construction,
                            cloud_part=cloud_part,
                            csp_part=list(csp.accepted),
                            acceptance=list(cloud.acceptance),
                            fp=cloud.fp)


def reconstruct_model(dm: DistributedModel) -> BoostedModel:
    """Recombine the parts the data owner downloads from the two parties."""
    cloud_idx = [t for t, _ in dm.cloud_part]
    csp_idx = [t for t, _, _ in dm.csp_part]
    if cloud_idx != csp_idx:
        raise PartMismatch(f"cloud holds trials {cloud_idx}, csp holds {csp_idx}")
    classifiers = []
    alphas = []
    for (_, w), (_, a, flipped) in zip(dm.cloud_part, dm.csp_part):
        classifiers.append(LinearClassifier(w=-w if flipped else np.asarray(w)))
        alphas.append(a)
    return BoostedModel(kind="rlc", classifiers=classifiers, alphas=alphas,
                        fixed_point=dm.fp)


def run_learning(cfg: ProtocolConfig, folded: FoldedMatrix,
                 transport_kind: str = "memory", with_parties: bool = False):
    """Full two-party run; returns (DistributedModel, Transcript).

    The parties run concurrently in two threads and communicate only via the
    chosen transport. `with_parties` additionally returns the two party
    objects, with what each holds at the end of the run.
    """
    if transport_kind not in ("memory", "socket"):
        raise ValueError(f"unknown transport {transport_kind!r}")
    cloud, csp = setup(cfg, folded)
    make_pair = transport.memory_pair if transport_kind == "memory" else transport.socket_pair
    ch_cloud, ch_csp, transcript = make_pair()
    if cfg.construction == HE_GC:  # the users' encrypted submissions
        transcript.party("user").encryptions += cloud.n * cloud.dim

    try:
        run_pair(lambda: cloud.run(ch_cloud), lambda: csp.run(ch_csp), ch_cloud, ch_csp)
    finally:  # also when a party fails or the CSP thread times out
        ch_cloud.close()
        ch_csp.close()
    transcript.validate_phase_order()
    if len(csp.accepted) < cfg.tau:
        warnings.warn(f"only {len(csp.accepted)}/{cfg.tau} classifiers accepted "
                      f"in {len(cloud.tried_w)} tries", PoolExhaustedWarning, stacklevel=2)
    model = collect_model(cfg, cloud, csp)
    if with_parties:
        return model, transcript, cloud, csp
    return model, transcript

