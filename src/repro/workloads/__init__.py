"""Workload substrate: jobs, workflows, traces and generators.

This package provides everything the evaluation consumes:

* :mod:`repro.workloads.job` — the :class:`Job` record and :class:`Trace`
  container shared by every emulated system.
* :mod:`repro.workloads.workflow` — DAG workflows (dependencies, levels,
  critical path) built on :mod:`networkx`.
* :mod:`repro.workloads.swf` — a reader/writer for the Standard Workload
  Format used by the Parallel Workloads Archive, so real traces can be
  dropped in where the paper used NASA iPSC and SDSC BLUE.
* :mod:`repro.workloads.traces` — seeded synthetic stand-ins for the two
  archive traces, calibrated to the utilization/size/count figures the
  paper reports (see DESIGN.md §2 for the substitution argument).
* :mod:`repro.workloads.montage` — the Montage-1000 workflow generator.
* :mod:`repro.workloads.archive` — a catalog of synthetic stand-ins for
  further Parallel Workloads Archive logs spanning the 24.4%-86.5%
  utilization range the paper quotes.
* :mod:`repro.workloads.pegasus` — the other classic Pegasus workflows
  (CyberShake, Epigenomics, LIGO Inspiral, SIPHT).
* :mod:`repro.workloads.workflowgen` — generic DAG workload recipes.
* :mod:`repro.workloads.stats` — workload statistics.
* :mod:`repro.workloads.store` — the process-wide content-keyed
  :class:`TraceStore` that deduplicates generation across sweep points
  and (forked) orchestrator pool workers.
"""

from repro.workloads.archive import (
    ARCHIVE,
    archive_names,
    utilization_family,
)
from repro.workloads.job import Job, JobState, Trace, TraceArrays
from repro.workloads.store import TraceStore, default_store, paper_trace
from repro.workloads.montage import (
    MontageSpec,
    generate_montage,
    montage_family,
    montage_spec_for_size,
)
from repro.workloads.pegasus import PEGASUS_GENERATORS, PegasusSpec, generate_pegasus
from repro.workloads.swf import parse_swf, parse_swf_file, write_swf
from repro.workloads.traces import (
    HTCTraceSpec,
    generate_htc_trace,
    generate_nasa_ipsc,
    generate_sdsc_blue,
)
from repro.workloads.workflow import Workflow

__all__ = [
    "ARCHIVE",
    "HTCTraceSpec",
    "PEGASUS_GENERATORS",
    "PegasusSpec",
    "Job",
    "JobState",
    "MontageSpec",
    "Trace",
    "TraceArrays",
    "TraceStore",
    "Workflow",
    "default_store",
    "paper_trace",
    "archive_names",
    "generate_htc_trace",
    "generate_montage",
    "generate_pegasus",
    "montage_family",
    "montage_spec_for_size",
    "generate_nasa_ipsc",
    "generate_sdsc_blue",
    "parse_swf",
    "utilization_family",
    "parse_swf_file",
    "write_swf",
]
