"""Operators: dense baseline, neuron-aware sparse, generic sparse baselines."""

from repro.operators.dense import dense_gemv, dense_gemv_work
from repro.operators.neuron_aware import (
    CpuNeuronGemv,
    gather_cols_gemv,
    gather_rows_gemv,
    neuron_gemv_work,
    scatter_to_dense,
)
from repro.operators.sparse_baselines import (
    CsrMatrix,
    csr_from_row_sparse,
    csr_spmv,
    csr_work,
    pit_gemv,
    pit_work,
)

__all__ = [
    "CpuNeuronGemv",
    "CsrMatrix",
    "csr_from_row_sparse",
    "csr_spmv",
    "csr_work",
    "dense_gemv",
    "dense_gemv_work",
    "gather_cols_gemv",
    "gather_rows_gemv",
    "neuron_gemv_work",
    "pit_gemv",
    "pit_work",
    "scatter_to_dense",
]
