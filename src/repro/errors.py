"""Exception hierarchy for the ``repro`` library.

Two families live here:

* :class:`ReproError` — programming/model errors raised by the simulation
  infrastructure itself (invalid IR, bad calibration, misuse of the API).
* :class:`CLError` — the mini-OpenCL runtime's analogue of OpenCL error
  codes.  The paper's evaluation depends on two specific runtime failures
  (``CL_OUT_OF_RESOURCES`` for register-file exhaustion in Figure 2(b),
  and an internal compiler defect for the double-precision ``amcd``
  kernel), so the error surface mirrors the host API a Mali OpenCL
  programmer would see.
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all library errors.

    Pickles (the perf tier stores raised errors) by rebuilding from
    ``args`` and attributes, bypassing subclass ``__init__`` signatures.
    """

    def __reduce__(self):
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None)


class IRError(ReproError):
    """Raised for structurally invalid kernel IR."""


class CompilerError(ReproError):
    """Base class for kernel-compilation failures."""


class RegisterAllocationError(CompilerError):
    """Register demand exceeds what the compiler can spill around.

    The OpenCL runtime translates this into ``CL_OUT_OF_RESOURCES`` at
    launch time, matching the behaviour the paper reports for the
    double-precision optimized ``nbody`` and ``2dcon`` kernels.
    """

    def __init__(self, message: str, registers_required: int, register_limit: int):
        super().__init__(message)
        self.registers_required = registers_required
        self.register_limit = register_limit


class CompilerInternalError(CompilerError):
    """Models a defect inside the (closed-source) kernel compiler.

    The paper could not compile the double-precision ``amcd`` kernel at
    all: "a compiler issue that does not allow the correct termination of
    the compilation phase".  The driver quirk table raises this error for
    the same kernel signature.
    """


class CalibrationError(ReproError):
    """Raised when calibration constants violate a physical invariant."""


class CLError(ReproError):
    """An OpenCL-style runtime error with a symbolic status code."""

    #: symbolic status, e.g. ``"CL_OUT_OF_RESOURCES"``
    code: str = "CL_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(f"{self.code}: {message}" if message else self.code)


class CLInvalidValue(CLError):
    """Malformed argument to a host API call."""

    code = "CL_INVALID_VALUE"


class CLInvalidMemObject(CLError):
    """A buffer was released, mapped, or otherwise unusable."""

    code = "CL_INVALID_MEM_OBJECT"


class CLInvalidKernelArgs(CLError):
    """Kernel launched with unset or mismatched arguments."""

    code = "CL_INVALID_KERNEL_ARGS"


class CLInvalidWorkGroupSize(CLError):
    """Local size violates device limits or NDRange divisibility."""

    code = "CL_INVALID_WORK_GROUP_SIZE"


class CLOutOfResources(CLError):
    """Launch failed for lack of device resources (register file).

    The error behind the paper's missing double-precision optimized
    nbody/2dcon results (Figure 2(b)).
    """

    code = "CL_OUT_OF_RESOURCES"


class CLBuildProgramFailure(CLError):
    """``clBuildProgram`` failed (kernel rejected by the compiler)."""

    code = "CL_BUILD_PROGRAM_FAILURE"


class CLMapFailure(CLError):
    """``clEnqueueMapBuffer`` could not map the buffer."""

    code = "CL_MAP_FAILURE"
