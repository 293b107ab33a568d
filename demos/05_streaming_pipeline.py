"""The whole path at once: capture -> wire -> mailbox -> hold -> PD joint.

Runs the synthetic teleoperation harness and breaks the measured end-to-end
latency into the pieces an operator can actually change: transport,
zero-order hold, and closed-loop response. Then demonstrates the two knobs
that matter: network delay moves the budget one-for-one, and velocity
feedforward eats the control share.

Run:  python3 demos/05_streaming_pipeline.py   (~10 s)
"""

import numpy as np

from extremctl.pipeline import (
    PipelineConfig,
    fit_latency_line,
    latency_budget,
    run_pipeline,
    run_pipeline_sweep,
)


def show(label, budget):
    print(f"{label}:")
    print(f"  transport {budget.transport_ms:6.2f} ms   (capture -> control loop)")
    print(f"  hold      {budget.hold_ms:6.2f} ms   (half a control period)")
    print(f"  control   {budget.control_ms:6.2f} ms   (measured; theory "
          f"{budget.theory_control_ms:.2f})")
    print(f"  overall   {budget.overall_ms:6.2f} ms   vs component sum "
          f"{budget.components_sum_ms:.2f}")


# ===== 1. the baseline budget =====
config = PipelineConfig(duration_s=8.0, seed=5)
record = run_pipeline(config)
budget = latency_budget(record)
show("baseline (eta=0.9, clean network)", budget)

stale_ms = np.array(record.staleness_ns, dtype=float) / 1e6
print(f"\nmailbox staleness: mean {stale_ms.mean():.2f} ms, "
      f"max {stale_ms.max():.2f} ms  (capture period "
      f"{1e3 / config.capture_rate_hz:.2f} ms bounds it)")
print(f"frames emitted {record.frames_emitted}, consumed {len(record.consumed)} "
      "(latest-value semantics: never a backlog, only skips)")

# ===== 2. a slow link is visible, whole, in the overall number =====
slow = latency_budget(run_pipeline(PipelineConfig(duration_s=8.0, seed=5,
                                                  network_delay_s=0.03)))
print(f"\n+30 ms network delay: overall {budget.overall_ms:.2f} -> "
      f"{slow.overall_ms:.2f} ms (shift {slow.overall_ms - budget.overall_ms:.2f})")

# ===== 3. feedforward shrinks the control share =====
# The transport does not depend on eta: the sweep simulates it once and
# runs only the joint once per eta.
print("\n  eta   control_ms   overall_ms")
controls, overalls = [], []
for rec in run_pipeline_sweep(config, (0.0, 0.3, 0.6, 0.9)):
    b = latency_budget(rec)
    controls.append(b.control_ms)
    overalls.append(b.overall_ms)
    print(f"  {b.eta:3.1f}   {b.control_ms:10.2f}   {b.overall_ms:10.2f}")

fit = fit_latency_line(controls, overalls)
print(f"\noverall vs control: slope {fit.slope:.3f}, intercept "
      f"{fit.intercept_ms:.2f} ms, r^2 {fit.r_squared:.5f}")
print("(the intercept is the floor feedforward cannot touch: transport + hold)")
