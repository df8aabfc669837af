"""Pool == in-process at every process cap.

``ShardWorkerPool`` runs ``min(units, usable cores)`` processes and deals
the units onto them, so the same network is planned by one process
hosting every unit, by two, or by one per unit depending on the host.
The core count is patched here, so none of this depends on the machine:
at each cap the pool differential's scenario (``test_shard_pool_
differential.py``, the fiber-cut round and the post-repair round
included) must fingerprint like in-process planning, and after
``sync_workers`` every unit's plant digest must equal its controller's.
"""

import pytest

from repro.shard import network as shard_network
from repro.shard import workers as shard_workers
from repro.fingerprint import outcome_fingerprint
from repro.shard.workers import ShardWorkerPool
from tests.test_shard_pool_differential import _run_deployment


@pytest.fixture(scope="module")
def in_process():
    return {
        mode: outcome_fingerprint(_run_deployment(mode, "inprocess")[0])
        for mode in ("sharded", "monolithic")
    }


@pytest.mark.parametrize(
    "mode, cores, processes",
    [
        ("sharded", 1, 1),
        ("sharded", 2, 2),
        ("sharded", 8, 3),  # R00, R01 and express: one process each
        ("monolithic", 2, 1),
    ],
)
def test_pool_plans_like_in_process_at_every_process_cap(
    mode, cores, processes, in_process, monkeypatch
):
    monkeypatch.setattr(shard_workers, "_usable_cores", lambda: cores)
    pools = []

    class Recorded(ShardWorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(shard_network, "ShardWorkerPool", Recorded)
    orders, audits, mirror_ok = _run_deployment(mode, "pool")
    assert outcome_fingerprint(orders) == in_process[mode]
    assert all(audits.values()), audits
    assert mirror_ok and all(mirror_ok.values()), mirror_ok
    [pool] = pools
    hosts = {id(pool.process_of(recipe)) for recipe in pool.recipes()}
    assert len(hosts) == processes
