"""The victim-search audit stays runnable and leaves the run unchanged.

``tools/victim_cost.py`` is run by hand; this test runs it for one
measured interval of ``figure2`` so it cannot rot, and checks that an
audited run is the same simulation as an unaudited one.
"""

import os
import sys
from dataclasses import replace

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import victim_cost  # noqa: E402

from repro.bufmgr.costbased import BenefitModel, CostBasedPool  # noqa: E402


def test_one_interval_audit_reports_every_figure(monkeypatch):
    spec = replace(victim_cost.WORKLOADS["figure2"], intervals=1)
    monkeypatch.setitem(victim_cost.WORKLOADS, "figure2", spec)
    monkeypatch.setattr(victim_cost, "EVERY", 5)
    select = CostBasedPool.__dict__["_select_victim"]
    benefit_at = BenefitModel.__dict__["benefit_at"]
    summary = victim_cost.audit("figure2", 0)
    assert CostBasedPool.__dict__["_select_victim"] is select
    assert BenefitModel.__dict__["benefit_at"] is benefit_at
    assert summary["evictions"] > 0
    assert summary["sampled"] == summary["evictions"] // 5
    assert summary["pricings_per_eviction"] > 0.0
    assert 0 <= summary["victim_is_min"] <= summary["sampled"]
    for rule in ("global_tau", "threshold"):
        stats = summary[rule]
        assert 0 <= stats["p50"] <= stats["p90"] <= stats["max"]
    plain = spec.build(0)
    plain.warm()
    plain.activate()
    before = victim_cost.level_accesses(plain)
    plain.run(1)
    after = victim_cost.level_accesses(plain)
    assert summary["accesses"] == {
        level: after[level] - before[level] for level in after
    }
    text = victim_cost.report(summary)
    assert "pricings per eviction" in text
    assert "(a) global-tau bound" in text and "(b) threshold walk" in text
