"""Runtime layer (S17-S19): running workloads on APIM and comparing to GPU.

- :mod:`repro.runtime.executor` — run one workload on one engine
  configuration, score quality, roll up latency/energy/EDP.
- :mod:`repro.runtime.comparison` — APIM-vs-GPU at a dataset size
  (tile-measured APIM cost extrapolated; analytic GPU baseline).
- :mod:`repro.runtime.tuner` — the paper's adaptive accuracy controller
  (start at 32 relax bits, back off in 4-bit steps until QoS holds).
- :mod:`repro.runtime.supervisor` — retries with deterministic-jitter
  backoff, per-run deadlines, per-key circuit breakers.
- :mod:`repro.runtime.checkpoint` — write-ahead JSONL campaign journal
  with torn-tail recovery and resume.
- :mod:`repro.runtime.chaos` — deterministic runtime fault injection and
  the recovery-yield campaign around it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "campaign": ("TERMINAL_STATUSES", "CampaignPoint", "CampaignResult",
                 "point_key", "run_campaign"),
    "chaos": ("ChaosInjector", "ChaosOutcome", "ChaosPolicy", "chaos_table",
              "run_chaos_campaign"),
    "checkpoint": ("CheckpointJournal", "load_journal", "recover"),
    "comparison": ("ComparisonHarness", "ComparisonResult"),
    "executor": ("APIMExecutor", "ExecutionResult"),
    "supervisor": ("CircuitBreaker", "ManualClock", "RetryPolicy",
                   "RunReport", "Supervisor"),
    "trace": ("ChromeTraceWriter",),
    "tuner": ("AdaptiveTuner", "TuningResult", "TuningTrial"),
})

__all__ = [
    "APIMExecutor",
    "ExecutionResult",
    "ComparisonHarness",
    "ComparisonResult",
    "AdaptiveTuner",
    "TuningResult",
    "TuningTrial",
    "run_campaign",
    "CampaignResult",
    "CampaignPoint",
    "TERMINAL_STATUSES",
    "point_key",
    "Supervisor",
    "RetryPolicy",
    "RunReport",
    "CircuitBreaker",
    "ManualClock",
    "CheckpointJournal",
    "load_journal",
    "recover",
    "ChaosPolicy",
    "ChaosInjector",
    "ChaosOutcome",
    "run_chaos_campaign",
    "chaos_table",
    "ChromeTraceWriter",
]
