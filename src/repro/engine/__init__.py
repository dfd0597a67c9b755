"""repro.engine -- a batched, parallel kernel-execution engine.

The serving layer the ROADMAP's north star asks for: instead of the
one-shot ``gendp-simulate`` flow (compile a DPMap program, run one
workload, exit), the engine accepts many independent DP jobs, batches
them onto the DPAx tile geometry, reuses compiled programs through an
LRU cache, and fans batches out across host cores -- the host-side
mirror of how DPAx's 16 integer PE arrays process independent tasks
concurrently (Section 3.1 of the paper).

Module map (one concern each):

- :mod:`repro.engine.jobs`     -- job records and result envelopes
- :mod:`repro.engine.cache`    -- LRU compiled-program cache
- :mod:`repro.engine.batcher`  -- kernel/size-bin batch packing
- :mod:`repro.engine.runners`  -- per-kernel functional execution
- :mod:`repro.engine.lowering` -- compiled programs lowered to Python cells
- :mod:`repro.engine.executor` -- process-pool / inline batch backends
- :mod:`repro.engine.breaker`  -- per-kernel circuit breaker
- :mod:`repro.engine.dlq`     -- dead-letter queue for failed jobs
- :mod:`repro.engine.metrics`  -- counters and latency histograms
- :mod:`repro.engine.service`  -- the ``Engine`` front door

See ``docs/engine.md`` for the job lifecycle and
``docs/reliability.md`` for the failure model and hardening knobs;
:mod:`repro.faults` drives every failure seam deliberately.
"""

from repro.engine.breaker import CircuitBreaker
from repro.engine.dlq import DeadLetter, DeadLetterQueue
from repro.engine.jobs import Job, JobResult, make_job
from repro.engine.service import BackpressureError, Engine, EngineConfig

__all__ = [
    "BackpressureError",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "Engine",
    "EngineConfig",
    "Job",
    "JobResult",
    "make_job",
]
