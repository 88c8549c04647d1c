"""Workload definitions shared by run.py and the worker.

Standard library only: ``run.py`` imports this without numpy.

Each workload is a closed loop: one client in one process starts the
next operation only after the previous one has finished. An operation
is one training iteration (``train.train_loop``, timed through its
``log_fn`` callback) or one full evaluation pass (manifest load,
``eval.cross_domain_eval``, ``eval.write_results``).
"""

# Inputs come from one of this many seeded variants (seed mod VARIANTS);
# reference.json holds the expected outputs of each.
VARIANTS = 32

# set-up runs measured per untraced run (the measured process is one)
SETUP_SAMPLES = 5

# a measuring run times at least this many ops, so that op_ms_tail (the
# highest percentile with ten samples beyond it) is never the maximum
TAIL_MIN_OPS = 21

# Host-speed calibration. The shared host's speed changes by up to a
# third over seconds to minutes, and CPU time changes with it. After
# each operation the measured process times a fixed reference loop
# (three float64 (2000, 128) @ (128, 128) products) CAL_REPS times, and
# reports the op's CPU time scaled by REF_CAL_MS over the loop's time
# beside the op; each set-up process does the same with SETUP_CAL_REPS
# loops right after its set-up. REF_CAL_MS is the loop's time on the
# machine the baseline was taken on, so there the scale is about 1.
REF_CAL_MS = 5.0
CAL_REPS = 4
SETUP_CAL_REPS = 20

# training losses are compared against the reference to this tolerance:
# |got - want| <= ATOL + RTOL * |want|, on the values train_loop logs
# (six decimals)
LOSS_ATOL = 1e-5
LOSS_RTOL = 1e-5

# the casiab protocol on the eval set: 3 probe conditions x 2 views x
# 1 other view
EVAL_CELLS = 6

TRAIN_DATA = {"identities": 20, "sequences": 6, "frames": 40}
EVAL_DATA = {"identities": 6, "frames": 60, "slant": 0.3}

WORKLOADS = {
    # toy network: per-op time is Python dispatch across the autodiff
    # graph, per-sequence descriptor loops and the 18 loss slots
    "train_toy": {
        "kind": "train", "preset": "toy", "batch": (4, 2, 20),
        "warmup": 3, "check_ops": 10, "block_reps": 5,
    },
    # casiab channel plan at a batch that fits in memory: large
    # broadcast matmuls, their backward, allocation and Adam
    "train_casiab": {
        "kind": "train", "preset": "casiab", "batch": (2, 2, 20),
        "warmup": 2, "check_ops": 3, "block_reps": 3,
    },
    # read side: checkpoint and manifest load, HOT with rotation,
    # descriptors, a no-grad forward and distances; 42 sequences, so a
    # 30-second run holds more than twenty passes
    "eval_casiab_xview": {
        "kind": "eval", "warmup": 1, "check_ops": 1,
    },
}

# training runs this many iterations nominally (the loop is stopped by
# the benchmark), so the learning-rate schedule does not depend on how
# long a run measures; checkpoints are saved at the preset's interval
TRAIN_ITERATIONS = 100000
