"""Robustness under injected faults: campaigns, watchdogs, timeouts.

The paper's pitch is a NoC "designed for pipelined, unreliable links";
this package is where that claim gets stress-tested (docs/RESILIENCE.md
is the guide):

* :class:`FaultInjector` / :class:`FaultWindow` -- scripted and
  randomized fault schedules (burst errors, stuck-at links, transient
  dead links, per-direction overrides) applied to a built NoC's links;
* :class:`ProgressWatchdog` / :class:`NoProgressError` -- runtime
  livelock/deadlock/starvation detection with an occupancy snapshot
  for diagnosis;
* :class:`CampaignSpec` / :func:`run_campaign` / :class:`FaultCampaign`
  -- the measurement harness (N seed-varied replica lanes over one
  build, N defaulting to 1), ExperimentRunner-cacheable and exposed as
  ``python -m repro faults``.

End-to-end transaction timeouts live with the NI itself
(``NiConfig.txn_timeout`` / ``txn_retries``) and sender resync with the
go-back-N sender (``GoBackNSender.resync_timeout``); this package is
what exercises them.
"""

from repro.faults.campaign import (
    CampaignResult,
    CampaignSpec,
    FaultCampaign,
    ReplicatedCampaign,
    campaign_checkpoint_path,
    checkpoint_options_from_env,
    render_campaign,
    replicas_from_env,
    run_campaign,
)
from repro.faults.injector import (
    FAULT_MODES,
    FaultInjector,
    FaultWindow,
    randomized_windows,
)
from repro.faults.watchdog import NoProgressError, ProgressWatchdog

__all__ = [
    "FAULT_MODES",
    "CampaignResult",
    "CampaignSpec",
    "FaultCampaign",
    "FaultInjector",
    "FaultWindow",
    "NoProgressError",
    "ProgressWatchdog",
    "ReplicatedCampaign",
    "campaign_checkpoint_path",
    "checkpoint_options_from_env",
    "randomized_windows",
    "render_campaign",
    "replicas_from_env",
    "run_campaign",
]
