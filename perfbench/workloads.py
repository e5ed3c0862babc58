"""The four workloads: one certified dflab pipeline call each, with its gate.

Every call runs at the default scale (n_max 7, t_max 12) and returns the
reasons it failed (empty when it passed) and a digest of the per-(k, t)
dimension tables it computed.  A call fails when it raises (counted by
the caller), returns ``partial`` or ``pass = false``, reports
``certified = false``, or computes dims tables whose digest differs from
the frozen one below.  The dims tables do not depend on p or on the units
a, b, so one digest per workload holds for every seed.
"""

from __future__ import annotations

import hashlib
import json

# dflab functions are called through their modules, so the traced run,
# which rebinds module attributes, sees these calls too
from dflab import complexes, koszul, simplicial
from dflab.expected import EXPECTED
from dflab.scenarios import SCENARIOS, ScenarioConfig

# sha256 of the canonical JSON of {section: {k: {t: dim}}}, first 16 digits
REFERENCE_DIGESTS = {
    "cube": "6200eb8d2070214c",
    "cross3": "5c923535fe37bdf5",
    "filtration": "fbd26691680c082e",
    "engines": "dddeec4a97f18879",
}

ENGINES_TRUNCATION = 5  # gamma level; the complex is then truncated at 4
ENGINES_RANKS = EXPECTED["tor_square"]["value"] + [0, 0]


def dims_digest(per_degree: dict) -> str:
    """Digest of every homology report's per-(k, t) dims in ``per_degree``."""
    tables = {
        section: {k: d["dims"] for k, d in report.items()}
        for section, report in per_degree.items()
        if all(isinstance(d, dict) and "dims" in d for d in report.values())
    }
    text = json.dumps(tables, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _scenario(name: str):
    def call(cfg: ScenarioConfig):
        res = SCENARIOS[name](cfg)
        reasons = []
        if res.partial:
            reasons.append("partial")
        if not res.passed:
            reasons.append("pass = false")
        if res.computed.get("certified") is False:
            reasons.append("certified = false")
        return reasons, dims_digest(res.per_degree)

    return call


def _engines(cfg: ScenarioConfig):
    ring = cfg.ring()
    GP = simplicial.gamma(koszul.regular_sequence_resolution(ring), ENGINES_TRUNCATION)
    N = simplicial.normalize(simplicial.diagonal_tensor([GP, GP]))
    N = complexes.truncate(N, ENGINES_TRUNCATION - 1)
    reasons = []
    if not complexes.engines_agree(N, cfg.t_max):
        reasons.append("engines_agree = false")
    rep = complexes.homology_graded(N, cfg.t_max)
    ks = range(len(ENGINES_RANKS))
    if rep.rank_vector(ks) != ENGINES_RANKS:
        reasons.append(f"ranks {rep.rank_vector(ks)} != {ENGINES_RANKS}")
    if not rep.euler_ok or any(rep.degrees[k].ri_rank is None for k in ks):
        reasons.append("certified = false")
    return reasons, dims_digest({"graded": rep.to_dict()["per_degree"]})


WORKLOADS = {
    "cube": _scenario("gk"),
    "cross3": _scenario("cross3"),
    "filtration": _scenario("check-l31"),
    "engines": _engines,
}


def check_call(workload: str, cfg: ScenarioConfig):
    """Run one pipeline call; return (failure reasons, dims digest)."""
    reasons, digest = WORKLOADS[workload](cfg)
    if digest != REFERENCE_DIGESTS[workload]:
        reasons.append(f"dims digest {digest} != {REFERENCE_DIGESTS[workload]}")
    return reasons, digest
