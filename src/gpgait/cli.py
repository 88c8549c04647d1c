"""Command-line entry points tying the pipeline together.

Commands: preprocess, train, eval, inspect, synth. Every command is
deterministic given (config, seed, inputs) with BLAS on one thread, and
accepts only the flags it reads. Exit codes: 0 success, 2 config error,
3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import eval as eval_mod
from . import pose_io, synth
from .config import METRICS, PROTOCOLS, build_run_config
from .errors import ConfigError, DataError, EmptySequenceError, GpgaitError
from .graph import mask_set
from .hot import unify_sequences
from .train import TrainSet, restore_training_state, sampler_rng, train_loop


def _unify(sequences, run_cfg, _threads=None):
    # _threads: the worker-thread count perfbench/worker.py still passes; ignored
    return unify_sequences(sequences, run_cfg.hot_config())


def _load_with_roles(manifest_path):
    manifest = pose_io.load_manifest(manifest_path)
    return manifest, pose_io.load_sequences_with_roles(manifest)


def _run_config_from_args(args):
    """RunConfig from the flags of one command; flags the command does
    not accept read as unset."""
    def flag(name):
        return getattr(args, name, None)

    overrides = {"seed": flag("seed")}
    if flag("no_hot"):
        overrides["use_hot"] = False
    if flag("descriptors") and flag("single_branch"):
        raise ConfigError("--single-branch and --descriptors cannot be given "
                          "together: each sets the branches")
    if flag("descriptors"):
        overrides["branches"] = args.descriptors
    if flag("single_branch"):
        overrides["branches"] = ("fused",)
    if flag("no_partition"):
        overrides["use_masks"] = False
    for name in ("iterations", "protocol", "metric"):
        if flag(name) is not None:
            overrides[name] = flag(name)
    return build_run_config(preset=flag("preset"), config_file=flag("config"),
                            overrides=overrides)


# -- commands ----------------------------------------------------------


def cmd_preprocess(args) -> int:
    run_cfg = _run_config_from_args(args)
    _manifest, with_roles = _load_with_roles(args.manifest)
    sequences = [s for s, _r in with_roles]
    os.makedirs(args.out, exist_ok=True)

    # every sequence is normalized on its own, so the report lists the
    # frames HOT drops from each, those of a sequence left with no frame
    # too, before the first such sequence fails the command
    failure = None
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        for seq in sequences:
            for issue in pose_io.validate_sequence(seq).issues:
                fh.write(f"{seq.seq_id}\tframe {issue.frame_index}\t{issue.kind}"
                         f"\t{issue.detail}\n")
        for seq in sequences:
            try:
                kept = _unify([seq], run_cfg)[0].kept_frame_indices
            except EmptySequenceError as e:
                kept, failure = [], failure or e
            dropped = sorted(set(range(seq.num_frames)) - set(kept))
            if dropped:
                fh.write(f"{seq.seq_id}\tdropped_frames\t{dropped}\n")
    if failure:
        raise failure
    print(f"preprocessed {len(sequences)} sequences -> {args.out}")
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


# the train arguments a resumed run accepts; every other one is a setting,
# which the checkpoint records
_RESUME_ARGS = ("command", "fn", "manifest", "out", "resume", "verbose")


def cmd_train(args) -> int:
    model = state = sampler_state = None
    if args.resume:
        given = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                 if name not in _RESUME_ARGS and value is not None and value is not False]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be given with --resume: "
                              "the resumed run takes every setting from its checkpoint")
        run_cfg, model, header, tensors = eval_mod.load_checkpoint(args.resume)
        state = restore_training_state(model, tensors)
        sampler_state = header.get("sampler_state")
        sampler_rng(0, sampler_state, args.resume)   # refuse a bad one up front
    else:
        run_cfg = _run_config_from_args(args)
    _manifest, with_roles = _load_with_roles(args.manifest)
    train_set = TrainSet.build(_unify(_train_entries(with_roles), run_cfg))
    net_cfg = (model.config if model else
               run_cfg.network_config(num_classes=train_set.num_classes))
    header = dict(run_cfg.echo(), manifest=os.path.abspath(args.manifest))
    _model, final = train_loop(train_set, net_cfg, run_cfg.train_config(), args.out,
                               run_config=header, model=model, state=state,
                               sampler_state=sampler_state,
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
    run_cfg, model = eval_mod.load_checkpoint(args.checkpoint)[:2]
    _manifest, with_roles = _load_with_roles(args.manifest)
    sequences = [s for s, _r in with_roles]
    if args.seq_id:
        matches = [s for s in sequences if s.seq_id == args.seq_id]
        if not matches:
            raise DataError(f"sequence {args.seq_id!r} not in manifest")
        seq = matches[0]
    else:
        seq = sequences[0]
    unified = _unify([seq], run_cfg)[0]
    eval_mod.heatmap_dump(model, unified, args.out)
    print(f"heatmap: {args.out}")
    if args.compare_unmasked:
        unmasked = dataclasses.replace(
            model, masks=mask_set(model.config.partition_overrides, False))
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
        try:
            kwargs["jitter_sigma" if key == "jitter" else key] = float(value)
        except ValueError as e:
            raise ConfigError(f"camera {key} must be a number, "
                              f"got {value.strip()!r}") from e
    return synth.CameraSpec(**kwargs)


def cmd_synth(args) -> int:
    cameras = [_parse_camera(c) for c in (args.camera or ["scale=1"])]
    manifest = synth.generate_dataset(
        args.out, args.identities, args.sequences, cameras, args.frames,
        args.seed, protocol=args.protocol)
    print(f"manifest: {manifest}")
    return 0


# -- argument parsing ---------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpgait",
        description="pose-based gait recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flag(p):
        p.add_argument("--config", help="config file (dotted.key = value)")

    def no_hot_flag(p):
        p.add_argument("--no-hot", action="store_true",
                       help="skip pose normalization (ablation)")

    p = sub.add_parser("preprocess",
                       help="validate sequences, report dropped frames")
    config_flag(p)
    no_hot_flag(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for report.txt")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    config_flag(p)
    p.add_argument("--preset", help="casiab | oumvlp | gait3d | grew | toy")
    p.add_argument("--seed", type=int)
    no_hot_flag(p)
    p.add_argument("--descriptors",
                   help="comma list of branches: joint,bone,angle")
    p.add_argument("--single-branch", action="store_true",
                   help="fuse descriptors into one branch (ablation)")
    p.add_argument("--no-partition", action="store_true",
                   help="replace partition masks with all-ones (ablation)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--iterations", type=int)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="gallery/probe rank-1 evaluation")
    config_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True, help="target dataset manifest")
    p.add_argument("--out", required=True, help="results file")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--metric", choices=METRICS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect", help="dump per-keypoint feature heatmap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seq-id", help="sequence to inspect (default: first)")
    p.add_argument("--out", required=True)
    p.add_argument("--compare-unmasked", action="store_true",
                   help="also dump with partition masks disabled")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--identities", type=int, default=20)
    p.add_argument("--sequences", type=int, default=6)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--camera", action="append",
                   help="scale=1,tx=0,ty=0,slant=0,jitter=0 (repeatable)")
    p.add_argument("--protocol", default="simple", choices=PROTOCOLS)
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
