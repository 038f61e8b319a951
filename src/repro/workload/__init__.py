"""Multiclass synthetic workloads: specs, Zipf sampling, generators,
and trace record/replay."""

from repro.workload.generator import NullSink, WorkloadGenerator, WorkloadSink
from repro.workload.presets import oltp_dss_mix
from repro.workload.spec import (
    ClassSpec,
    WorkloadSpec,
    partition_pages,
    shared_pages,
)
from repro.workload.trace import TraceRecord, TraceRecorder, TraceReplayer
from repro.workload.zipf import ZipfPagePicker, ZipfSampler

__all__ = [
    "ClassSpec",
    "NullSink",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayer",
    "WorkloadGenerator",
    "WorkloadSink",
    "WorkloadSpec",
    "ZipfPagePicker",
    "ZipfSampler",
    "oltp_dss_mix",
    "partition_pages",
    "shared_pages",
]
