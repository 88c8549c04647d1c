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

import numpy as np

from . import checkpoint as ckpt
from . import eval as eval_mod
from . import pose_io, synth
from .config import KEY_MAP, build_run_config, parse_config_file
from .errors import ConfigError, DataError, GpgaitError
from .pagcn import NetworkConfig, init_model, with_masks
from .train import TrainSet, restore_training_state, train_loop
from .graph import mask_set


def _unify(sequences, run_cfg, _threads=None):
    # _threads: the worker-thread count perfbench/worker.py still passes; ignored
    return eval_mod.unify_for_eval(sequences, run_cfg.echo())


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


# flags whose setting a resumed run takes from the checkpoint instead:
# (argument, flag, RunConfig field)
_RESUME_FLAGS = (
    ("no_hot", "--no-hot", "use_hot"),
    ("descriptors", "--descriptors", "branches"),
    ("single_branch", "--single-branch", "branches"),
    ("no_partition", "--no-partition", "use_masks"),
)


def _warn_resume_overrides(args, run_cfg, resumed: dict):
    """One stderr warning for each network or normalization setting,
    given by a flag or a ``network.*``/``hot.*``/``graph.partition.*``
    key of the config file, that differs from the resumed checkpoint's;
    the checkpoint's value is the one used."""
    kept = dataclasses.asdict(NetworkConfig.from_dict(resumed["network"]))
    kept.update((k, resumed[k]) for k in eval_mod.HOT_KEYS if k in resumed)
    given = [(flag, field, getattr(run_cfg, field))
             for arg, flag, field in _RESUME_FLAGS if getattr(args, arg)]
    if args.config:
        keys = {field: key for key, field in KEY_MAP.items()}
        given += [(keys.get(field, "graph.partition.*"), field, value)
                  for field, value in parse_config_file(args.config).items()]
    for name, field, value in given:
        if field in kept and value != kept[field]:
            print(f"warning: {name} sets {field} = {value!r}, but the resumed "
                  f"checkpoint has {kept[field]!r}; using the checkpoint's",
                  file=sys.stderr)


# -- commands ----------------------------------------------------------


def cmd_preprocess(args) -> int:
    run_cfg = _run_config_from_args(args)
    _manifest, with_roles = _load_with_roles(args.manifest)
    sequences = [s for s, _r in with_roles]
    os.makedirs(args.out, exist_ok=True)

    # validation lines go out before normalization, which fails on a
    # sequence with no usable frame: they are what explains the failure
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        for seq in sequences:
            for issue in pose_io.validate_sequence(seq).issues:
                fh.write(f"{seq.seq_id}\tframe {issue.frame_index}\t{issue.kind}"
                         f"\t{issue.detail}\n")
        unified = eval_mod.unify_for_eval(sequences, run_cfg.echo())
        for seq, u in zip(sequences, unified):
            dropped = sorted(set(range(seq.num_frames)) - set(u.kept_frame_indices))
            if dropped:
                fh.write(f"{seq.seq_id}\tdropped_frames\t{dropped}\n")
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
    header = run_cfg.echo()
    if args.resume:
        resumed, tensors = ckpt.load_container(args.resume)
        _warn_resume_overrides(args, run_cfg, resumed)
        # normalize as the checkpoint was trained, as eval does
        header.update({k: resumed[k] for k in eval_mod.HOT_KEYS if k in resumed})
    train_set = TrainSet.build(
        eval_mod.unify_for_eval(_train_entries(with_roles), header))
    net_cfg = run_cfg.network_config(num_classes=train_set.num_classes)
    train_cfg = run_cfg.train_config()

    model = None
    state = None
    sampler_state = None
    start = 0
    if args.resume:
        net_cfg = NetworkConfig.from_dict(resumed["network"])
        model = init_model(net_cfg, seed=train_cfg.seed)
        state = restore_training_state(model, tensors)
        sampler_state = resumed.get("sampler_state")
        start = state.step
    header["manifest"] = os.path.abspath(args.manifest)
    _model, final = train_loop(train_set, net_cfg, train_cfg, args.out,
                               run_config=header, model=model, state=state,
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
    p.add_argument("--protocol",
                   choices=("casiab", "oumvlp", "gait3d", "grew", "simple"))
    p.add_argument("--metric", choices=("euclidean", "cosine"))
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
