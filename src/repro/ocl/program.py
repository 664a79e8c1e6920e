"""OpenCL program objects (``clCreateProgramWithSource``/``clBuildProgram``).

A real OpenCL program carries kernel *source*; this runtime carries,
per kernel, a :class:`KernelSpec` — the kernel's IR (what the compiler
model transforms and the GPU model prices), its functional NumPy
implementation (what actually computes the numbers, identical under
every compile option), and the workload traits of the problem instance
(footprints/imbalance for the cache and job-manager models).

Build semantics mirror the driver stack the paper used:

* the FP64 RNG compiler defect aborts the *build*
  (``CL_BUILD_PROGRAM_FAILURE`` — amcd in double precision);
* register-file exhaustion is only reported when the kernel is
  *launched* (``CL_OUT_OF_RESOURCES`` — optimized double-precision
  nbody/2dcon), exactly as the paper observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..compiler.options import CompileOptions
from ..compiler.pipeline import CompiledKernel, compile_kernel
from ..errors import (
    CLBuildProgramFailure,
    CLInvalidValue,
    CompilerInternalError,
    RegisterAllocationError,
)
from ..ir.nodes import Kernel as IrKernel
from ..workload import WorkloadTraits
from .context import Context
from .driver import platform_quirks


@dataclass(frozen=True)
class KernelSpec:
    """Everything the runtime needs to know about one kernel."""

    ir: IrKernel
    func: Callable[..., None]
    traits: WorkloadTraits

    @property
    def name(self) -> str:
        return self.ir.name


@dataclass
class _BuiltKernel:
    spec: KernelSpec
    compiled: CompiledKernel | None
    launch_error: RegisterAllocationError | None = None


class Program:
    """A program: kernel specs, built per :class:`CompileOptions`."""

    def __init__(self, context: Context, specs: list[KernelSpec] | dict[str, KernelSpec]):
        if isinstance(specs, dict):
            specs = list(specs.values())
        if not specs:
            raise CLInvalidValue("program needs at least one kernel")
        self.context = context
        self.specs: dict[str, KernelSpec] = {s.name: s for s in specs}
        self._built: dict[str, _BuiltKernel] = {}
        self.build_log: list[str] = []
        self.build_options: CompileOptions | None = None

    def build(self, options: CompileOptions | None = None, quirks=None) -> "Program":
        """``clBuildProgram``: compile every kernel under ``options``.

        ``quirks=None`` resolves to the context device's driver quirk
        table (the simulated driver version); pass ``()`` explicitly to
        model a defect-free driver.
        """
        options = options or CompileOptions()
        if quirks is None:
            quirks = platform_quirks(self.context.device.hardware)
        self._built.clear()
        self.build_log.clear()
        self.build_options = options
        for name, spec in self.specs.items():
            try:
                compiled = compile_kernel(spec.ir, options, quirks=quirks)
            except CompilerInternalError as exc:
                self.build_log.append(f"{name}: FAILED: {exc}")
                raise CLBuildProgramFailure(f"kernel {name!r}: {exc}") from exc
            except RegisterAllocationError as exc:
                # allocation failures surface at launch, not at build
                self.build_log.append(f"{name}: deferred launch failure: {exc}")
                self._built[name] = _BuiltKernel(spec=spec, compiled=None, launch_error=exc)
                continue
            self.build_log.extend(f"{name}: {line}" for line in compiled.log)
            self._built[name] = _BuiltKernel(spec=spec, compiled=compiled)
        return self

    def create_kernel(self, name: str) -> "Kernel":
        """``clCreateKernel``."""
        from .kernel import Kernel  # deferred: kernel imports program types

        if not self._built:
            raise CLInvalidValue("program must be built before creating kernels")
        if name not in self._built:
            raise CLInvalidValue(f"no kernel named {name!r} in program")
        return Kernel(self, name)

    def built_kernel(self, name: str) -> _BuiltKernel:
        return self._built[name]
