"""Documents written before the removal of the scan ``jobs`` option,
the cross-solve LQN warm start and the greedy bounds screening still
load.

Such documents carry ``"jobs"`` on every result and the counters
``lqn_warm_starts``, ``lqn_warm_distance`` and ``lqn_bounds_skips``.
Those names are dropped on load; any other unknown counter is still
refused.
"""

import json
import sqlite3

import pytest

from repro.campaign import CampaignReport, ResultStore, run_campaign
from repro.core.progress import RETIRED_COUNTERS, ScanCounters
from repro.core.sweep import SweepEngine, SweepPoint, SweepResult
from tests.campaign.conftest import TINY_PROBS, make_spec, mixed_spec
from tests.campaign.conftest import tiny_mama, tiny_system

#: ``ScanCounters.to_dict()`` as written before the removal.
LEGACY_COUNTERS = {
    "states_visited": 64, "app_states_visited": 8,
    "knowledge_cache_hits": 40, "fault_graph_evaluations": 24,
    "decision_leaves": 0, "distinct_configurations": 3,
    "scan_seconds": 0.01, "lqn_seconds": 0.02, "lqn_solves": 2,
    "lqn_cache_hits": 1, "lqn_unconverged": 0, "lqn_batch_max": 2,
    "lqn_warm_starts": 0, "lqn_warm_distance": 0, "lqn_bounds_skips": 0,
    "sweep_points": 1, "scan_cache_hits": 0, "kernel_batches": 0,
    "kernel_instructions": 0, "bdd_nodes": 0, "bdd_cache_hits": 0,
    "enumerated_mass": 0.0,
}


def legacy(document):
    """Rewrite a current document into its pre-removal form: retired
    counters on every counters object, ``"jobs"`` on every analysis and
    sweep result."""
    if isinstance(document, list):
        return [legacy(item) for item in document]
    if not isinstance(document, dict):
        return document
    document = {key: legacy(value) for key, value in document.items()}
    if "states_visited" in document:
        document.update({name: 3 for name in RETIRED_COUNTERS})
    if "method" in document and ("records" in document or "points" in document):
        document["jobs"] = 2
    return document


class TestCounters:
    def test_legacy_document_loads(self):
        counters = ScanCounters.from_dict(LEGACY_COUNTERS)
        expected = {
            name: value for name, value in LEGACY_COUNTERS.items()
            if name not in RETIRED_COUNTERS
        }
        assert counters.to_dict() == expected

    def test_other_unknown_fields_are_still_refused(self):
        with pytest.raises(ValueError, match="lqn_mystery"):
            ScanCounters.from_dict({**LEGACY_COUNTERS, "lqn_mystery": 1})


class TestLegacyStore:
    def test_resume_and_report_over_legacy_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        spec = mixed_spec()
        with ResultStore(path) as store:
            first = run_campaign(make_spec(spec.workloads[:1]), store)
        assert first.solved > 0
        # Rewrite every committed row into the pre-removal format.
        with sqlite3.connect(path) as connection:
            rows = connection.execute(
                "SELECT key, document FROM points"
            ).fetchall()
            for key, document in rows:
                connection.execute(
                    "UPDATE points SET document = ? WHERE key = ?",
                    (json.dumps(legacy(json.loads(document))), key),
                )
        with ResultStore(path) as store:
            stored = next(iter(store.rows(kind="solve"))).document
            assert stored["counters"]["lqn_bounds_skips"] == 3
            assert stored["record"]["result"]["jobs"] == 2
            resumed = run_campaign(spec, store)
            report = CampaignReport.from_store(store)
        assert resumed.store_hits == first.total
        assert resumed.solved == resumed.total - first.total
        assert resumed.ok
        assert len(report.solve_rows) == store_solve_count(path)
        assert "lqn_warm_starts" not in report.counters.to_dict()


def store_solve_count(path):
    with ResultStore(path) as store:
        return store.count(kind="solve")


class TestLegacySweepExport:
    def test_sweep_document_with_jobs_loads(self):
        engine = SweepEngine(
            tiny_system(), {"central": tiny_mama()},
            base_failure_probs=TINY_PROBS,
        )
        result = engine.run([
            SweepPoint(name="central", architecture="central"),
            SweepPoint(name="perfect"),
        ])
        document = legacy(json.loads(json.dumps(result.to_dict())))
        assert document["jobs"] == 2
        assert document["counters"]["lqn_warm_distance"] == 3
        assert SweepResult.from_dict(document) == result
