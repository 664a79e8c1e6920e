"""Sparse Vector-Matrix Multiplication (spmv): ``y = A @ x``, CSR format.

Paper §IV-A: "multiplies a vector and a sparse matrix to produce a new
vector.  It is useful as metric to measure performance in cases of load
imbalance."  §V-A: the OpenCL version loses to Serial; even the Opt
version only reaches 1.25× — the ragged rows defeat the job manager's
balance, the ``x`` gathers defeat coalescing, and without the special
sparse data structures the paper deliberately avoids (§IV-B, [16][17])
the kernel "can only partially exploit the available bandwidth".

The matrix is generated with log-normal row lengths; the imbalance
coefficient the models consume is *measured from the generated matrix*,
not assumed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.dtypes import I32
from ..ir.nodes import AccessPattern, Kernel as IrKernel, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import SingleKernelMixin, alloc_mapped


class SpMV(SingleKernelMixin, Benchmark):
    """CSR sparse matrix-vector product, one row per work-item."""

    name = "spmv"
    description = "CSR y = A x; ragged rows stress load balance"

    DEFAULT_ROWS = 1 << 15
    MEAN_NNZ_PER_ROW = 24.0

    def setup(self) -> None:
        self.rows = max(256, int(self.DEFAULT_ROWS * self.scale))
        self.cols = self.rows
        self.row_lengths, indptr, indices, data, self.x = self.shared_draws(
            (self.rows, self.cols, self.MEAN_NNZ_PER_ROW), self._draw
        )
        self.nnz = int(self.row_lengths.sum())
        self.matrix = sp.csr_matrix((data, indices, indptr), shape=(self.rows, self.cols))

    def _draw(self) -> tuple[np.ndarray, ...]:
        # log-normal row lengths: a few heavy rows, many light ones
        lengths = self.rng.lognormal(mean=np.log(self.MEAN_NNZ_PER_ROW), sigma=0.9, size=self.rows)
        lengths = np.maximum(lengths.astype(np.int64), 1)
        lengths = np.minimum(lengths, self.cols)
        indptr = np.zeros(self.rows + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.concatenate(
            [self.rng.choice(self.cols, size=int(l), replace=False) for l in lengths]
        ).astype(np.int32)
        data = self.rng.standard_normal(int(lengths.sum()))
        x = self.rng.standard_normal(self.cols)
        return lengths, indptr, indices, data, x

    def elements(self) -> int:
        return self.rows

    @property
    def imbalance_cv(self) -> float:
        """Measured coefficient of variation of the row lengths."""
        return float(self.row_lengths.std() / self.row_lengths.mean())

    @property
    def mean_nnz(self) -> float:
        return self.nnz / self.rows

    def reference_result(self) -> np.ndarray:
        return np.asarray(self.matrix @ self.x.astype(np.float64), dtype=self.ftype)

    def verify(self, result: np.ndarray) -> bool:
        rtol = 1e-3 if self.ftype == np.float32 else 1e-8
        return self._verify_against_reference(result, rtol=rtol, atol=rtol)

    def run_numpy(self) -> np.ndarray:
        return self.matrix @ self.x

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("spmv_csr")
        b.buffer("values", f, const=True)
        b.buffer("indices", I32, const=True)
        b.buffer("indptr", I32, const=True)
        b.buffer("x", f, const=True)
        b.buffer("y", f)
        b.int_ops(3)  # row id, bounds guard
        b.load(I32, param="indptr", count=2.0, scaling=Scaling.PER_ITEM)
        # ragged inner loop: trip is the *expected* nnz per row, data
        # dependent (static_trip=False: no compile-time remainder math)
        with b.loop(trip=self.mean_nnz, vectorizable=False, static_trip=False):
            b.load(I32, param="indices", sequential=True)
            b.load(f, param="values", sequential=True)
            # x[col]: data-dependent gather, never vector-loadable
            b.load(f, pattern=AccessPattern.GATHER, param="x", vectorizable=False)
            b.arith(OpKind.FMA, f, accumulates=True)
            b.int_ops(1)
        b.store(f, param="y", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=7.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        return (
            StreamSpec("values", float(self.nnz * fsize)),
            StreamSpec("indices", float(self.nnz * 4)),
            StreamSpec("indptr", float((self.rows + 1) * 4)),
            StreamSpec(
                "x",
                float(self.cols * fsize),
                touches_per_byte=max(self.nnz / self.cols, 1.0),
                pattern=AccessPattern.GATHER,
                access_bytes=float(fsize),
            ),
            StreamSpec("y", float(self.rows * fsize)),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(
            streams=self._streams(),
            imbalance_cv=self.imbalance_cv,
            elements=self.rows,
        )

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue):
        m = self.matrix
        return {
            "values": alloc_mapped(ctx, queue, data=np.asarray(m.data, dtype=self.ftype)),
            "indices": alloc_mapped(ctx, queue, data=np.asarray(m.indices, dtype=np.int32)),
            "indptr": alloc_mapped(ctx, queue, data=np.asarray(m.indptr, dtype=np.int32)),
            "x": alloc_mapped(ctx, queue, data=self.x),
            "out": alloc_mapped(ctx, queue, shape=self.rows, dtype=self.ftype),
        }

    def kernel_func(self):
        rows, cols = self.rows, self.cols

        def spmv_csr(values, indices, indptr, x, y):
            m = sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
            y[...] = m @ x

        return spmv_csr

    def tuning_space(self):
        # gathers forbid vectorizing compute; vector loads still help the
        # values/indices streams, and unrolling trims loop overhead
        for unroll in (1, 2, 4):
            options = CompileOptions(vector_loads=True, unroll=unroll, qualifiers=True)
            for local in (32, 64, 128, 256):
                yield options, local
