#!/usr/bin/env python3
"""Grow a classifier through twenty feature-array extensions.

A synthetic month of cluster life: machine events keep introducing new
attribute values, so the feature array keeps widening. At every growth step
the carried model's input layer is zero-padded and fine-tuned (output layer
frozen, old columns' gradients damped); a fully-retrained comparator starts
from scratch each time. The epoch totals show why carrying the model wins.
"""

import logging
import tempfile

from covvsched.pipeline import ARM_FULLY_RETRAIN, ARM_GROWING, RunConfig, run_simulation
from covvsched.trace import SyntheticTraceConfig

logging.basicConfig(level=logging.WARNING)

with tempfile.TemporaryDirectory(prefix="growing-demo-") as out_dir:
    config = RunConfig(
        trace=SyntheticTraceConfig(
            node_count=100,
            attribute_count=6,
            values_per_attribute=8,
            task_count=12_000,
            constrained_fraction=0.4,
            restrictive_rate=30,          # engineered single-node tasks per 10k
            growth_schedule=tuple((2_000_000 + i * 2_000_000, 2) for i in range(10)),
            span_us=24_000_000,
            seed=7,
        ),
        seed=7,
        out_dir=out_dir,
    )

    result = run_simulation(config)

    print(f"{'step time':>10} {'features':>9} {'arm':<14} {'epochs':>6} {'accuracy':>9} {'group0 F1':>9}")
    for row in result.reports:
        f1 = "n/a" if row.group0_f1 is None else f"{row.group0_f1:.3f}"
        print(f"{row.step_time:>10} {row.features_count:>9} {row.model:<14} "
              f"{row.epochs:>6} {row.accuracy:>9.4f} {f1:>9}")

    print()
    for arm in (ARM_GROWING, ARM_FULLY_RETRAIN):
        stats = result.summary[arm]
        print(f"{arm}: {stats['total_epochs']} total epochs over {stats['steps']} steps "
              f"(mean accuracy {stats['mean_accuracy']:.4f})")

    growing = result.summary[ARM_GROWING]["total_epochs"]
    full = result.summary[ARM_FULLY_RETRAIN]["total_epochs"]
    print(f"\nepoch savings: {100 * (1 - growing / full):.0f}% fewer epochs by growing the model")
    print(f"reports written to {config.out_dir}")
