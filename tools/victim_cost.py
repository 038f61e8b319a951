#!/usr/bin/env python
"""Victim-search cost audit: ``python tools/victim_cost.py --workload evict-16n``.

Runs one of the ``perf/`` workloads (warm-up, activation, then the
workload's measured intervals) and, at every :data:`EVERY`-th eviction
of the measured phase, prices every page of the evicting pool at the
eviction's instant.  From those prices it prints:

* the pricings today's victim search (``CostBasedPool._select_victim``)
  makes per eviction, counted over every eviction of the measured
  phase;
* the share of sampled evictions whose victim is the brute-force
  minimum (a victim whose benefit ties the minimum counts);
* the share of last copies among the pool pages, the victims and the
  brute-force minima;
* how far the pool's stored estimate of the brute-force minimum lies
  above its price (median ratio): the staleness that hides it;
* the pages the exact-victim plan of ROADMAP item 1 would price at the
  same evictions, assuming fresh keys, under two stop rules:

  (a) *global-τ bound*: pages that are not last copies are keyed by
      their exact benefit ``keep · h_L``; last copies by the lower
      bound ``lc · h_G``.  Keys are popped in order and every popped
      last copy is priced, until the next key reaches the best exact
      price;
  (b) *threshold walk*: the not-last-copy minimum seeds the best
      price; the last copies are walked in two orders at once, by
      ``keep · h_L`` and by ``lc · h_G``, and every page met is
      priced, until the sum of the next key of each order reaches the
      best exact price.

Here ``keep = max(remote − local, 0)`` and ``lc = max(disk − remote,
0)`` are the pool's cost spreads, ``h_L`` the pool's LRU-2 heat and
``h_G`` the cluster-wide heat; the sum of the two terms is exactly
``BenefitModel.benefit_at``, which the audit checks page by page.

Columns (a) and (b) price the plan on *today's* trajectory: the pools
the audit prices are the ones today's ``REVALIDATE`` search left
behind, since it, not the plan, picked every earlier victim.  On
``evict-16n`` that search keeps evicting last copies, so the pool's
not-last-copy minimum almost always undercuts every last-copy bound
and both columns read 0.00; a run whose victims the plan itself picks
prices far more (ROADMAP item 1).
Pricing reads heat, costs and the directory and writes nothing, so the
audited run is the same simulation as an unaudited one.

Usage::

    python tools/victim_cost.py [--workload NAME] [--seed N]
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perf"))

# workloads puts the checkout's src/ on the import path first.
from workloads import WORKLOADS  # noqa: E402

from repro.bufmgr.costbased import BenefitModel, CostBasedPool  # noqa: E402
from repro.bufmgr.costs import LEVEL_ORDER  # noqa: E402

#: Sampling stride: every 40th eviction is priced in full.
EVERY = 40


class VictimAudit:
    """Counts victim-search pricings and prices sampled evictions in full.

    :meth:`install` wraps ``CostBasedPool._select_victim`` and
    ``BenefitModel.benefit_at`` on their classes; :meth:`uninstall`
    restores them.  Both are looked up at every call, so the wrappers
    may be installed on a running simulation.
    """

    def __init__(self):
        #: Victim searches while installed.
        self.evictions = 0
        #: ``benefit_at`` calls made inside those searches.
        self.pricings = 0
        #: One dict per sampled eviction (see :meth:`_price_pool`).
        self.samples: List[Dict] = []
        self._in_search = False
        self._saved = []

    def install(self) -> None:
        select = CostBasedPool.__dict__["_select_victim"]
        benefit_at = BenefitModel.__dict__["benefit_at"]
        self._saved = [(CostBasedPool, "_select_victim", select),
                       (BenefitModel, "benefit_at", benefit_at)]
        audit = self

        def counted_benefit_at(model, page_id, now):
            if audit._in_search:
                audit.pricings += 1
            return benefit_at(model, page_id, now)

        def audited_select(pool):
            audit.evictions += 1
            sample = None
            if audit.evictions % EVERY == 0:
                sample = audit._price_pool(pool, benefit_at)
            audit._in_search = True
            try:
                victim = select(pool)
            finally:
                audit._in_search = False
            if sample is not None:
                sample["victim_is_min"] = (
                    sample["benefit"][victim] == sample["min"]
                )
                sample["victim_last"] = sample["last"][victim]
                del sample["benefit"], sample["last"]
                audit.samples.append(sample)
            return victim

        CostBasedPool._select_victim = audited_select
        BenefitModel.benefit_at = counted_benefit_at

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    @staticmethod
    def _price_pool(pool, benefit_at) -> Dict:
        """Price every page of ``pool``; count what each stop rule prices."""
        model = pool.model
        now = model.clock()
        costs = model.costs
        keep = costs.cost_remote - costs.cost_local
        keep = keep if keep > 0.0 else 0.0
        lc = costs.cost_disk - costs.cost_remote
        lc = lc if lc > 0.0 else 0.0
        local_heat = model.local_heat.heat
        global_heat = model.global_heat.heat
        is_last = model._is_last_copy
        node_id = model.node_id
        benefit, last = {}, {}
        local_terms, global_terms = [], []
        best_not_last = math.inf
        for page_id in pool.page_ids():
            local = local_heat(page_id, now) * keep
            value = local
            if is_last(page_id, node_id):
                glob = global_heat(page_id, now) * lc
                value += glob
                local_terms.append((local, page_id))
                global_terms.append((glob, page_id))
                last[page_id] = True
            else:
                best_not_last = min(best_not_last, value)
                last[page_id] = False
            if value != benefit_at(model, page_id, now):
                raise AssertionError(
                    f"page {page_id}: audit price {value!r} differs from "
                    "BenefitModel.benefit_at"
                )
            benefit[page_id] = value
        minimum = min(benefit.values())
        min_page = min(benefit, key=lambda p: (benefit[p], p))
        stored = pool._price[min_page]
        return {
            "benefit": benefit,
            "last": last,
            "min": minimum,
            "pool": len(benefit),
            "last_copies": len(global_terms),
            "min_last": last[min_page],
            "min_stale": stored / minimum if minimum > 0.0 else 1.0,
            "global_tau": _global_tau_pricings(
                best_not_last, global_terms, benefit
            ),
            "threshold": _threshold_pricings(
                best_not_last, local_terms, global_terms, benefit
            ),
        }


def _global_tau_pricings(best: float, global_terms, benefit) -> int:
    """Last copies rule (a) prices before its next key reaches ``best``.

    ``best`` starts at the smallest not-last-copy key, which is exact;
    keys of pages that are not last copies never lie below it, so only
    the last-copy keys ``lc · h_G`` need walking.
    """
    priced = 0
    for key, page_id in sorted(global_terms):
        if key >= best:
            break
        priced += 1
        best = min(best, benefit[page_id])
    return priced


def _threshold_pricings(best: float, local_terms, global_terms,
                        benefit) -> int:
    """Distinct last copies the threshold walk (b) prices."""
    by_local = sorted(local_terms)
    by_global = sorted(global_terms)
    seen = set()
    for depth in range(len(by_local)):
        if by_local[depth][0] + by_global[depth][0] >= best:
            break
        for page_id in (by_local[depth][1], by_global[depth][1]):
            if page_id not in seen:
                seen.add(page_id)
                best = min(best, benefit[page_id])
    return len(seen)


def _nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def level_accesses(sim) -> Dict[str, int]:
    """Page accesses the cost observer has counted, per level."""
    costs = sim.cluster.costs
    return {level.value: costs.observations(level) for level in LEVEL_ORDER}


def audit(workload: str, seed: int) -> Dict:
    """Run ``workload`` under a :class:`VictimAudit`; summarize it."""
    spec = WORKLOADS[workload]
    sim = spec.build(seed)
    sim.warm()
    sim.activate()
    before = level_accesses(sim)
    tracker = VictimAudit()
    tracker.install()
    try:
        sim.run(spec.intervals)
    finally:
        tracker.uninstall()
    after = level_accesses(sim)
    samples = tracker.samples
    summary = {
        "workload": workload,
        "seed": seed,
        "intervals": spec.intervals,
        "every": EVERY,
        "accesses": {
            level: after[level] - before[level] for level in after
        },
        "evictions": tracker.evictions,
        "pricings_per_eviction": (
            tracker.pricings / tracker.evictions if tracker.evictions else 0.0
        ),
        "sampled": len(samples),
        "victim_is_min": sum(s["victim_is_min"] for s in samples),
    }
    if samples:
        summary["last_copy_pages"] = (
            sum(s["last_copies"] for s in samples)
            / sum(s["pool"] for s in samples)
        )
        summary["last_copy_victims"] = (
            sum(s["victim_last"] for s in samples) / len(samples)
        )
        summary["last_copy_minima"] = (
            sum(s["min_last"] for s in samples) / len(samples)
        )
        summary["min_stale"] = _nearest_rank(
            [s["min_stale"] for s in samples], 0.5
        )
        for rule in ("global_tau", "threshold"):
            counts = [s[rule] for s in samples]
            summary[rule] = {
                "mean": sum(counts) / len(counts),
                "p50": _nearest_rank(counts, 0.5),
                "p90": _nearest_rank(counts, 0.9),
                "max": max(counts),
            }
    return summary


def report(summary: Dict) -> str:
    """The audit summary as printed lines."""
    lines = [
        f"{summary['workload']} seed {summary['seed']}: "
        f"{summary['intervals']} measured intervals, "
        f"{sum(summary['accesses'].values())} accesses, "
        f"{summary['evictions']} evictions, {summary['sampled']} sampled "
        f"(every {summary['every']}th)",
        f"today's victim search: {summary['pricings_per_eviction']:.2f} "
        "pricings per eviction",
    ]
    sampled = summary["sampled"]
    if not sampled:
        lines.append("no eviction sampled")
        return "\n".join(lines) + "\n"
    lines += [
        f"victim is the brute-force minimum: {summary['victim_is_min']} "
        f"of {sampled} ({100.0 * summary['victim_is_min'] / sampled:.1f}%)",
        f"last copies: {100.0 * summary['last_copy_pages']:.1f}% of pool "
        f"pages, {100.0 * summary['last_copy_victims']:.1f}% of victims, "
        f"{100.0 * summary['last_copy_minima']:.1f}% of minima",
        f"stored estimate of the minimum / its price: median "
        f"{summary['min_stale']:.3g}",
        "item 1 plan, fresh keys: pages priced per eviction "
        "(mean / p50 / p90 / max)",
    ]
    for rule, label in (("global_tau", "(a) global-tau bound"),
                        ("threshold", "(b) threshold walk")):
        s = summary[rule]
        lines.append(
            f"  {label:22s} {s['mean']:6.2f} / {s['p50']:g} / "
            f"{s['p90']:g} / {s['max']:g}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Price every pool page at sampled evictions."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="evict-16n")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    summary = audit(args.workload, args.seed)
    sys.stdout.write(report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
