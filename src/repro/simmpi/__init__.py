"""In-process SPMD substrate with MPI-like communicators.

The SION layer (like the original SIONlib) needs MPI only for metadata
exchange around collective open/close.  This package provides those
semantics — communicators, point-to-point messages, and the standard
collectives — over Python threads, so parallel programs can be executed
deterministically in a single process:

>>> from repro.simmpi import run_spmd
>>> def program(comm):
...     return comm.allreduce(comm.rank)
>>> run_spmd(4, program)
[6, 6, 6, 6]
"""

from repro.simmpi.bulk import BulkComm, run_spmd_bulk
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, COMM_NULL, Comm
from repro.simmpi.proc import ProcComm, run_spmd_proc
from repro.simmpi.runner import (
    ENGINES,
    default_bulk_nworkers,
    normalize_engine,
    run_spmd,
    spmd_context,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "COMM_NULL",
    "BulkComm",
    "Comm",
    "ENGINES",
    "ProcComm",
    "default_bulk_nworkers",
    "normalize_engine",
    "run_spmd",
    "run_spmd_bulk",
    "run_spmd_proc",
    "spmd_context",
]
