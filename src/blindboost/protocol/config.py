"""Protocol configuration and seed discipline."""

import random
from dataclasses import dataclass, field

from ..errors import ConfigInvalid, ModeNotPermittedInSecureProfile
from ..ot import GROUPS

HE_GC = "he-gc"
SECSH_GC = "secsh-gc"


# the stream tags each role draws: the parties' in parties.Side and
# engine's key generation, the users' in engine.encrypt_submissions and
# engine.setup's SecSh+GC share split
_ROLE_TAGS = {"cloud": (b"keyg", b"mask", b"encr", b"ot_r"),
              "csp": (b"keyg", b"mask", b"encr", b"ot_s"),
              "data": (b"user", b"shar")}


@dataclass(frozen=True)
class Seeds:
    """The role seeds of a run. Two roles must never draw the same stream,
    or one could recompute the other's secrets (CSP, say, Cloud's HE+GC
    mask stream, and so strip lambda from each u + lambda it decrypts):
    role seeds under which two roles' stream seeds meet are refused."""

    cloud: int = 1
    csp: int = 2
    data: int = 3

    def __post_init__(self):
        owner = {}
        for role, tags in _ROLE_TAGS.items():
            seed = getattr(self, role)
            for tag in tags:
                # random.Random seeds from the absolute value of an int
                met = owner.setdefault(abs(seed ^ int.from_bytes(tag, "big")), role)
                if met != role:
                    raise ConfigInvalid(f"{self}: {role}'s {tag.decode()} stream is one "
                                        f"of {met}'s streams")

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        """The role seeds of one run seed. They differ above bit 31 and
        stream's tags are below 2^31, so no two (role, tag) streams meet."""
        return cls(cloud=seed, csp=seed + (1 << 32), data=seed + (2 << 32))


def stream(seed: int, tag: bytes) -> random.Random:
    """The protocols' one source of randomness: the stream of role `tag`
    (four ASCII bytes, read big-endian) XOR `seed`."""
    return random.Random(seed ^ int.from_bytes(tag, "big"))


@dataclass(frozen=True)
class ProtocolConfig:
    construction: str
    tau: int
    p_max: int
    precision_bits: int = 7
    key_bits: int = 512
    ot_mode: str = "base"
    ot_group: str = "modp-768"
    seeds: Seeds = field(default_factory=Seeds)
    secure_profile: bool = False

    def __post_init__(self):
        if self.construction not in (HE_GC, SECSH_GC):
            raise ConfigInvalid(f"unknown construction {self.construction!r}")
        if self.tau < 1 or self.p_max < self.tau:
            raise ConfigInvalid("need p_max >= tau >= 1")
        if self.ot_mode not in ("base", "dealer"):
            raise ConfigInvalid(f"unknown OT mode {self.ot_mode!r}")
        if self.ot_group not in GROUPS:
            raise ConfigInvalid(f"unknown OT group {self.ot_group!r}")
        if self.key_bits not in (512, 1024, 2048):
            raise ConfigInvalid("key_bits must be 512, 1024 or 2048")
        if self.secure_profile:
            if self.ot_mode == "dealer":
                raise ModeNotPermittedInSecureProfile(
                    "dealer OT is a test mode; secure profile requires base OT")
            if self.key_bits < 2048:
                raise ConfigInvalid("secure profile requires 2048-bit keys")
            if self.ot_group != "modp-2048":
                raise ConfigInvalid("secure profile requires the modp-2048 OT group")


def paper_faithful(construction: str, tau: int, p_max: int,
                   seeds: Seeds = Seeds()) -> ProtocolConfig:
    """2048-bit keys, 2048-bit OT group, base OT."""
    return ProtocolConfig(construction=construction, tau=tau, p_max=p_max,
                          key_bits=2048, ot_group="modp-2048",
                          seeds=seeds, secure_profile=True)
