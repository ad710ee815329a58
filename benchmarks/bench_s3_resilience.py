"""S3 -- resilience: accepted traffic and latency as links degrade.

The paper argues the go-back-N link layer makes an xpipes network
usable over unreliable wires; this bench quantifies "usable".  A fault
campaign (:mod:`repro.faults`, docs/RESILIENCE.md) sweeps the per-link
bit/flit error rate from 0 toward saturation and records the accepted
traffic and the latency of what still completes -- the degradation
curve the error-control comparison in F10 takes as given.  Two more
rows exercise the campaign machinery proper: a stuck-at window (BER
forced to 1.0, which the build-time config deliberately rejects) and a
transient dead link with the recovery machinery armed (NI transaction
timeout + retry, sender resync), which must come back without losing
transactions or tripping the progress watchdog.

Every spec is a frozen :class:`~repro.faults.CampaignSpec` run through
:func:`~repro.faults.run_campaign`, so ``python -m repro figures
--jobs N --cache DIR`` parallelizes and memoizes the sweep like any
other figure.  ``main`` runs the regular sweep and the dense one
(``s3_resilience_dense``, ~17 s sequential).

Each point is a Monte-Carlo batch of ``REPLICAS`` seed-varied lanes
(one compiled network, time-multiplexed; see docs/BATCHING.md), so the
curve's accepted-rate and latency columns are means with 95%
confidence half-widths -- emitted both in the table and in
``results/BENCH_s3.json`` / ``results/BENCH_s3_dense.json``.
"""

from benchmarks._common import emit, emit_json

from repro.core.config import LinkConfig
from repro.faults import (
    CampaignSpec,
    FaultCampaign,
    FaultWindow,
    render_campaign,
)
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh

RATE = 0.05
REPLICAS = 8  # Monte-Carlo lanes per point
BERS = (0.0, 0.01, 0.05, 0.1, 0.2)
DENSE_BERS = (0.0, 0.005, 0.01, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4)
CORNER = "link.sw_0_0.p*"  # every link leaving the corner switch


def builder_for(ber: float, recovery: bool = False) -> TopologyNocBuilder:
    cfg = NocBuildConfig(
        link=LinkConfig(error_rate=ber),
        ni_txn_timeout=300 if recovery else None,
        ni_txn_retries=1 if recovery else 0,
        link_resync_timeout=40 if recovery else None,
    )
    return TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2, config=cfg)


def sweep_specs(bers):
    specs = [
        CampaignSpec(builder=builder_for(ber), rate=RATE, label=f"ber={ber}")
        for ber in bers
    ]
    specs.append(
        CampaignSpec(
            builder=builder_for(0.0),
            windows=(FaultWindow(CORNER, start=400, duration=300, mode="stuck"),),
            rate=RATE,
            label="stuck 300cyc",
        )
    )
    specs.append(
        CampaignSpec(
            builder=builder_for(0.0, recovery=True),
            windows=(FaultWindow(CORNER, start=400, duration=400, mode="dead"),),
            rate=RATE,
            label="dead 400cyc +recovery",
        )
    )
    return specs


def run_sweep(bers, runner):
    return FaultCampaign(sweep_specs(bers), runner=runner, replicas=REPLICAS).run()


def check_and_emit(results, bers, figure: str) -> None:
    n = len(bers)
    curve, stuck, dead = results[:n], results[n], results[n + 1]
    rows = [
        f"S3: resilience under link faults (2x2 mesh, rate {RATE} per core)",
        render_campaign(results),
    ]
    emit(figure, rows)
    emit_json(f"BENCH_{figure.replace('_resilience', '')}", {
        "bench": figure,
        "rate": RATE,
        "bers": list(bers),
        "replicas": results[0].replicas,
        "points": [
            {
                "label": r.label,
                "accepted_rate": r.accepted_rate,
                "mean_latency": r.mean_latency,
                "p95_latency": r.p95_latency,
                "errors_injected": r.errors_injected,
                "flits_dropped": r.flits_dropped,
                "retransmissions": r.retransmissions,
                "failed": r.failed,
                "no_progress": r.no_progress,
                "replicas": r.replicas,
                "ci95": r.ci95,
            }
            for r in results
        ],
    })

    # Nothing in the sweep may wedge: the campaigns all finish and the
    # watchdog never has to intervene.
    assert not any(r.no_progress for r in results), "a campaign stopped making progress"

    # Degradation curve shape: errors and retransmissions grow with BER,
    # accepted traffic falls, surviving-packet latency rises.  (Even at
    # BER 0 a few retransmissions remain: full downstream queues NACK
    # for backpressure -- see docs/PROTOCOL.md -- so the comparison is
    # relative, not against zero.)
    assert curve[0].errors_injected == 0
    assert curve[-1].errors_injected > curve[1].errors_injected > 0
    assert curve[-1].retransmissions > curve[1].retransmissions > curve[0].retransmissions
    assert curve[0].accepted_rate > 0.8 * 2 * RATE, "error-free fabric should accept the load"
    assert curve[-1].accepted_rate < curve[0].accepted_rate, (
        "saturating BER must cost accepted traffic"
    )
    assert curve[-1].mean_latency > curve[0].mean_latency, (
        "retransmission rounds must show up in latency"
    )

    # Stuck-at window: every flit on the faulted links corrupted, yet
    # go-back-N still delivers (exactly-once, in order -- so nothing
    # fails, it just costs retransmissions).
    assert stuck.errors_injected > 0 and stuck.retransmissions > 0
    assert stuck.failed == 0

    # Dead link with recovery armed: flits are dropped outright, the
    # resync timer and NI timeout/retry bring the fabric back.
    assert dead.flits_dropped > 0
    assert dead.completed > 0 and not dead.no_progress


def main(runner):
    check_and_emit(run_sweep(BERS, runner), BERS, "s3_resilience")
    check_and_emit(run_sweep(DENSE_BERS, runner), DENSE_BERS, "s3_resilience_dense")
