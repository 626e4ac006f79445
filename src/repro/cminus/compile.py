"""Compatibility alias: ``compiled_unit`` is :func:`~repro.cminus.vm.compiler.vm_unit`."""

from .vm.compiler import vm_unit

# perfbench/workloads.py imports this name to time the cold build's
# lowering; keep the alias until that import moves to ``vm_unit``.
compiled_unit = vm_unit
