"""Golden determinism contract across executor backends.

A backend decides only *where* a trial runs, never its payload — so
serial, fork-pool and file-queue-worker runs of the same campaign must
merge to byte-identical manifests (modulo wall-clock
noise, which is exactly what :func:`manifest_fingerprint` strips) and
identical merged metric sections.
"""

import hashlib
import json

import pytest

from repro.campaign.runner import CampaignSpec, run_campaign
from repro.obs.manifest import load_manifest, manifest_fingerprint
from repro.service.jobs import Execution

#: Every backend must match the first entry (serial in-process) exactly.
BACKEND_MATRIX = [
    ("inline", dict(jobs=0, backend="inline")),
    ("fork", dict(jobs=2, backend="fork")),
    ("queue", dict(jobs=2, backend="queue")),
]


def run_backend(tmp_path, name, overrides, queue_worker):
    kwargs = dict(overrides)
    if kwargs.get("backend") == "queue":
        kwargs["queue_dir"] = str(tmp_path / f"queue-{name}")
        queue_worker(kwargs["queue_dir"])
    spec = CampaignSpec(
        experiment_id="E9",
        seeds=list(range(8)),
        execution=Execution(cache_dir=str(tmp_path / f"cache-{name}"), **kwargs),
    )
    return run_campaign(spec, progress=False)


@pytest.mark.slow
def test_all_backends_merge_byte_identically(tmp_path, queue_worker):
    """ISSUE acceptance: E9 --seeds 8 under every backend, one answer."""
    fingerprints = {}
    metrics_sections = {}
    rendered = {}
    for name, overrides in BACKEND_MATRIX:
        result = run_backend(tmp_path, name, overrides, queue_worker)
        assert result.total == 8 and result.ran == 8 and not result.cancelled
        manifest = load_manifest(result.manifest_path)
        fingerprints[name] = manifest_fingerprint(manifest)
        metrics_sections[name] = json.dumps(
            manifest["metrics"], sort_keys=True
        )
        rendered[name] = result.rendered

    reference = fingerprints["inline"]
    # pin the answer itself: a drift that hits every backend alike fails
    assert hashlib.sha256(reference.encode()).hexdigest() == (
        "ff2ee62194a95bbe91a09edd1471d4a91c9aea2fd34d2c9e618f779bf149f202"
    )
    for name, fingerprint in fingerprints.items():
        assert fingerprint == reference, f"{name} diverged from serial"
    reference_metrics = metrics_sections["inline"]
    for name, section in metrics_sections.items():
        assert section == reference_metrics, f"{name} metrics diverged"
    # the human-facing report is identical too
    reference_rendered = rendered["inline"]
    for name, text in rendered.items():
        assert text == reference_rendered, f"{name} rendering diverged"


def test_fork_and_inline_agree_on_cheap_campaign(tmp_path):
    """Fast (tier-1 default) slice of the golden contract: E7, 4 seeds."""
    fingerprints = []
    for name, overrides in (BACKEND_MATRIX[0], BACKEND_MATRIX[1]):
        spec = CampaignSpec(
            experiment_id="E7",
            seeds=[1, 2, 3, 4],
            execution=Execution(cache_dir=str(tmp_path / f"cache-{name}"), **overrides),
        )
        result = run_campaign(spec, progress=False)
        fingerprints.append(manifest_fingerprint(load_manifest(result.manifest_path)))
    assert fingerprints[0] == fingerprints[1]
