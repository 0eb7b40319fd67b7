#!/usr/bin/env python
"""Bring your own kernel: the compiler, scheduler and command interface.

Everything needed to port a new computation onto APIM without touching the
simulator internals:

1. define a dataflow kernel once with :class:`KernelBuilder`;
2. run it exactly and approximately through :func:`evaluate`, with cost
   accounting for free;
3. schedule it onto a bounded lane count and inspect makespan/utilisation;
4. drop to the command interface: write a raw micro-program in APIM
   assembly and execute it on the structural simulator.

Run:  python examples/custom_kernels.py
"""

from __future__ import annotations

import numpy as np

from repro import APIMEngine, ApproxSpec
from repro.compiler import KernelBuilder, ListScheduler, evaluate, exact_reference
from repro.crossbar import BlockedCrossbar
from repro.crossbar.controller import MemoryController, assemble_program


def build_fir():
    """A 4-tap FIR filter: out[i] = sum_k h[k] * x_k[i], Q14 taps."""
    b = KernelBuilder("fir4")
    taps = [0.42, 0.31, 0.18, 0.09]
    terms = []
    for k, h in enumerate(taps):
        x = b.input(f"x{k}")
        coeff = b.const(int(h * (1 << 14)))
        terms.append(b.mul(coeff, x))
    acc = b.sum(terms, width=52)
    b.output("y", b.shr(acc, 14))
    return b.build()


def step_1_define_and_run() -> None:
    print("== 1. define once, run exact and approximate ==")
    kernel = build_fir()
    print(f"kernel {kernel.name!r}: {len(kernel)} nodes, "
          f"{kernel.arithmetic_ops()} arithmetic ops")
    rng = np.random.default_rng(0)
    inputs = {f"x{k}": rng.integers(0, 1 << 16, 4096) for k in range(4)}
    golden = exact_reference(kernel, inputs)["y"]

    engine = APIMEngine()
    exact = evaluate(kernel, engine, inputs)["y"]
    assert np.array_equal(exact, golden)
    print(f"exact run matches the golden reference "
          f"({engine.total_cost.cycles / 4096:.0f} cycles/sample)")

    approx_engine = APIMEngine(spec=ApproxSpec.last_stage(24))
    approx = evaluate(kernel, approx_engine, inputs)["y"].astype(np.float64)
    err = np.mean(np.abs(approx - golden) / np.maximum(np.abs(golden), 1))
    print(f"m=24 run: mean rel. error {err:.2e}, "
          f"{approx_engine.total_cost.cycles / 4096:.0f} cycles/sample")


def step_2_schedule() -> None:
    print("\n== 2. schedule onto bounded lanes ==")
    kernel = build_fir()
    for lanes in (1, 2, 4):
        schedule = ListScheduler(lanes=lanes).schedule(kernel)
        print(f"lanes={lanes}: makespan={schedule.makespan:5d} cycles "
              f"(critical path {schedule.critical_path}), "
              f"utilisation {schedule.utilization:.0%}")
    print("the four tap multiplies parallelise; the reduction is the "
          "dependence bound.")


def step_3_raw_commands() -> None:
    print("\n== 3. raw APIM assembly on the structural simulator ==")
    fabric = BlockedCrossbar(2, 16, 16)
    controller = MemoryController(fabric)
    program = """
    # copy a nibble between blocks with a free 2-bit shift,
    # then read both copies back
    WR b0 r1 0xB w4
    CPY b0 r1 -> b1 r6 w4 s2
    RD b0 r1 w4
    RD b1 r6 w6
    """
    reads = controller.run(assemble_program(program))
    print(f"read-back: source={reads[0]:#x}, shifted copy={reads[1]:#x} "
          f"(cycles: {fabric.cycles})")
    print("executed transcript:")
    for line in controller.transcript().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    step_1_define_and_run()
    step_2_schedule()
    step_3_raw_commands()
