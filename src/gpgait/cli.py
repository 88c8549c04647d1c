"""Command-line entry points tying the pipeline together.

Commands: preprocess, train, eval, inspect, synth. Every command is
deterministic given (config, seed, inputs) when run single-threaded.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import checkpoint as ckpt
from . import eval as eval_mod
from . import hot as hot_mod
from . import pose_io, synth
from .config import build_run_config
from .errors import ConfigError, DataError, GpgaitError
from .hod import build_descriptors
from .pagcn import init_model
from .train import TrainSet, restore_training_state, train_loop
from .graph import mask_set


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("GPGAIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"GPGAIT_THREADS={env!r} is not an integer")
    return 1


def _parallel_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _unify(sequences, run_cfg, threads=1):
    if run_cfg.use_hot:
        hot_cfg = hot_mod.HotConfig(h_unif=run_cfg.h_unif, phi=run_cfg.phi)
        return _parallel_map(lambda s: hot_mod.apply_hot(s, hot_cfg),
                             sequences, threads)
    return [hot_mod.passthrough(s) for s in sequences]


def _load_with_roles(manifest_path):
    manifest = pose_io.load_manifest(manifest_path)
    return manifest, pose_io.load_sequences_with_roles(manifest)


def _run_config_from_args(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "no_hot", False):
        overrides["use_hot"] = False
    if getattr(args, "descriptors", None):
        overrides["branches"] = args.descriptors
    if getattr(args, "single_branch", False):
        overrides["branches"] = ("fused",)
    if getattr(args, "no_partition", False):
        overrides["use_masks"] = False
    if getattr(args, "normalization", None):
        overrides["normalization"] = args.normalization
    if getattr(args, "iterations", None):
        overrides["iterations"] = args.iterations
    if getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol
    if getattr(args, "metric", None):
        overrides["metric"] = args.metric
    cfg = build_run_config(preset=args.preset, config_file=args.config,
                           overrides=overrides)
    return cfg


# -- commands ----------------------------------------------------------


def cmd_preprocess(args) -> int:
    run_cfg = _run_config_from_args(args)
    threads = _threads_from(args)
    _manifest, with_roles = _load_with_roles(args.manifest)
    sequences = [s for s, _r in with_roles]
    os.makedirs(args.out, exist_ok=True)

    report_lines = []
    for seq in sequences:
        rep = pose_io.validate_sequence(seq)
        for issue in rep.issues:
            report_lines.append(
                f"{rep.seq_id}\tframe {issue.frame_index}\t{issue.kind}\t{issue.detail}")
    unified = _unify(sequences, run_cfg, threads)
    report_path = os.path.join(args.out, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        for seq, u in zip(sequences, unified):
            dropped = sorted(set(range(seq.num_frames)) - set(u.kept_frame_indices))
            if dropped:
                fh.write(f"{seq.seq_id}\tdropped_frames\t{dropped}\n")
        for line in report_lines:
            fh.write(line + "\n")

    hot_mod.save_unified(os.path.join(args.out, "unified.jsonl"), unified)
    tensors = {}
    for u in unified:
        desc = build_descriptors(u)
        tensors[f"{u.seq_id}/joint"] = desc.joint
        tensors[f"{u.seq_id}/bone"] = desc.bone
        tensors[f"{u.seq_id}/angle"] = desc.angle
    ckpt.save_container(os.path.join(args.out, "descriptors.gpgw"),
                        run_cfg.echo(), tensors)
    print(f"preprocessed {len(unified)} sequences -> {args.out}")
    return 0


def _train_entries(with_roles):
    train = [(s, r) for s, r in with_roles if r == "train"]
    if train:
        return [s for s, _ in train]
    # desk-scale manifests often carry only gallery/probe roles: train
    # on the gallery, keep probes held out
    gallery = [s for s, r in with_roles if r == "gallery"]
    if not gallery:
        raise DataError("manifest has no train or gallery entries to train on")
    return gallery


def cmd_train(args) -> int:
    run_cfg = _run_config_from_args(args)
    _manifest, with_roles = _load_with_roles(args.manifest)
    train_seqs = _train_entries(with_roles)
    threads = _threads_from(args)
    unified = _unify(train_seqs, run_cfg, threads)
    train_set = TrainSet.build(unified)
    net_cfg = run_cfg.network_config(num_classes=train_set.num_classes)
    train_cfg = run_cfg.train_config()

    model = None
    state = None
    sampler_state = None
    start = 0
    if args.resume:
        config, tensors = ckpt.load_container(args.resume)
        from .pagcn import NetworkConfig
        net_cfg = NetworkConfig.from_dict(config["network"])
        model = init_model(net_cfg, seed=train_cfg.seed)
        state = restore_training_state(model, tensors)
        sampler_state = config.get("sampler_state")
        start = state.step
    echo = run_cfg.echo()
    echo["manifest"] = os.path.abspath(args.manifest)
    _model, final = train_loop(train_set, net_cfg, train_cfg, args.out,
                               run_config=echo, model=model, state=state,
                               start_iteration=start, sampler_state=sampler_state,
                               log_fn=print if args.verbose else None)
    print(f"checkpoint: {final}")
    return 0


def cmd_eval(args) -> int:
    run_cfg = _run_config_from_args(args)
    manifest, with_roles = _load_with_roles(args.manifest)
    protocol = run_cfg.protocol or manifest.protocol
    result = eval_mod.cross_domain_eval(args.checkpoint, with_roles, protocol,
                                        metric=run_cfg.metric)
    eval_mod.write_results(args.out, result)
    for condition in sorted(result.accuracies):
        print(f"rank1[{condition}] = {result.accuracies[condition]:.4f}")
    print(f"rank1[mean] = {result.mean:.4f}")
    return 0


def cmd_inspect(args) -> int:
    model, config = eval_mod.load_model_from_checkpoint(args.checkpoint)
    _manifest, with_roles = _load_with_roles(args.manifest)
    sequences = [s for s, _r in with_roles]
    if args.seq_id:
        matches = [s for s in sequences if s.seq_id == args.seq_id]
        if not matches:
            raise DataError(f"sequence {args.seq_id!r} not in manifest")
        seq = matches[0]
    else:
        seq = sequences[0]
    unified = eval_mod.unify_for_eval([seq], config)[0]
    eval_mod.heatmap_dump(model, unified, args.out)
    print(f"heatmap: {args.out}")
    if args.compare_unmasked:
        from .pagcn import with_masks
        ones = {name: np.ones_like(m) for name, m in mask_set().items()}
        unmasked = with_masks(model, ones)
        alt = args.out + ".unmasked"
        eval_mod.heatmap_dump(unmasked, unified, alt)
        print(f"heatmap (unmasked): {alt}")
    return 0


def _parse_camera(spec: str) -> synth.CameraSpec:
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"camera spec needs key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("scale", "tx", "ty", "slant", "jitter"):
            raise ConfigError(f"unknown camera key {key!r}")
        kwargs["jitter_sigma" if key == "jitter" else key] = float(value)
    return synth.CameraSpec(**kwargs)


def cmd_synth(args) -> int:
    cameras = [_parse_camera(c) for c in (args.camera or ["scale=1"])]
    manifest = synth.generate_dataset(
        args.out, args.identities, args.sequences, cameras, args.frames,
        args.seed if args.seed is not None else 0, protocol=args.protocol)
    print(f"manifest: {manifest}")
    return 0


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgait",
        description="pose-based gait recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_default=None):
        p.add_argument("--config", help="config file (dotted.key = value)")
        p.add_argument("--preset", default=preset_default,
                       help="casiab | oumvlp | gait3d | grew | toy")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (env GPGAIT_THREADS)")

    def ablations(p):
        p.add_argument("--no-hot", action="store_true",
                       help="skip pose normalization (ablation)")
        p.add_argument("--descriptors",
                       help="comma list of branches: joint,bone,angle")
        p.add_argument("--single-branch", action="store_true",
                       help="fuse descriptors into one branch (ablation)")
        p.add_argument("--no-partition", action="store_true",
                       help="replace partition masks with all-ones (ablation)")
        p.add_argument("--normalization",
                       choices=("hot", "spine_unit", "dataset_independent"))

    p = sub.add_parser("preprocess", help="normalize sequences, cache descriptors")
    common(p)
    ablations(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    common(p)
    ablations(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="gallery/probe rank-1 evaluation")
    common(p)
    ablations(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True, help="target dataset manifest")
    p.add_argument("--out", required=True, help="results file")
    p.add_argument("--protocol",
                   choices=("casiab", "oumvlp", "gait3d", "grew", "simple"))
    p.add_argument("--metric", choices=("euclidean", "cosine"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect", help="dump per-keypoint feature heatmap")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seq-id", help="sequence to inspect (default: first)")
    p.add_argument("--out", required=True)
    p.add_argument("--compare-unmasked", action="store_true",
                   help="also dump with partition masks disabled")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, default=20)
    p.add_argument("--sequences", type=int, default=6)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--camera", action="append",
                   help="scale=1,tx=0,ty=0,slant=0,jitter=0 (repeatable)")
    p.add_argument("--protocol", default="simple",
                   choices=("casiab", "oumvlp", "gait3d", "grew", "simple"))
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GpgaitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
