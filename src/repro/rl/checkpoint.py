"""Checkpointing.

Two levels:

* :func:`save_agent` / :func:`load_agent` — policy + value weights
  only, for deploying a trained agent;
* :func:`save_training_state` / :func:`load_training_state` — the full
  trainer state needed to *resume* a run bit-identically: weights,
  Adam first/second moments and step counter, the trainer's RNG stream,
  the iteration counter, the accumulated ``TrainingHistory``, and the
  curriculum sampler's position.  Restoring only the weights (the old
  behavior) silently reinitialized the optimizer moments and RNG, so a
  "resumed" run diverged from an uninterrupted one.

Observation layout: spec-conditioned agents (``EnvConfig.
machine_features``) read observations extended by the machine
descriptor block, so their input layers are wider.  Archives written
for such agents record the layout in their metadata; archives from
default-layout agents carry none and are byte-layout-identical to
pre-registry checkpoints.  Loading a legacy (unconditioned) archive
into a spec-conditioned agent zero-pads the input weight rows of the
machine block — the padded network computes exactly what the legacy
network computed, ignoring the machine inputs until training moves the
new weights.  The reverse (a machine-conditioned archive into a
narrower agent) cannot be reconciled and raises.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..env.features import feature_size
from ..machine.spec import MACHINE_FEATURE_SIZE
from .agent import ActorCritic
from .ppo import IterationStats, PPOTrainer


def _observation_layout(config) -> dict:
    """The archive metadata describing an agent's observation layout."""
    return {
        "feature_size": feature_size(config),
        "machine_features": bool(config.machine_features),
        "machine_feature_size": MACHINE_FEATURE_SIZE,
        "machine": config.machine,
    }


def _machine_fingerprint(spec) -> dict:
    """A JSON-able structural identity of one machine spec.

    Field-by-field (via ``dataclasses.asdict``), not by registry name:
    two differently named but identical specs compare equal, and
    anonymous :func:`~repro.machine.registry.scaled_spec` variants are
    identified exactly.  Normalized through a JSON round-trip so a
    fingerprint computed live compares equal to one read back from an
    archive (tuples become lists either way).
    """
    from dataclasses import asdict

    return json.loads(json.dumps(asdict(spec)))


def _validate_machines(trainer: PPOTrainer, metadata: dict) -> None:
    """Reject resuming onto different hardware than the state was
    trained on — like the sampler-kind check, silently collecting on
    another machine (or dropping a round-robin schedule) would diverge
    from the uninterrupted run.

    States for the default (paper-Xeon) *spec* record nothing —
    byte-compatibility with pre-registry archives — so the gate is
    structural: a differently *named* registration of the identical
    hardware counts as the default and resumes interchangeably.
    """
    from ..machine.spec import XEON_E5_2680_V4

    saved_schedule = metadata.get("machines")
    current_schedule = (
        [_machine_fingerprint(spec) for spec in trainer.machines]
        if trainer.machines
        else None
    )
    if saved_schedule != current_schedule:
        raise ValueError(
            "training state was saved with a different round-robin "
            "machine schedule than the trainer's — resuming would "
            "silently collect on different hardware; construct the "
            "trainer with the same --machine value it was saved with"
        )
    config = trainer.env.config
    saved_machine = metadata.get("machine")
    current_machine = (
        _machine_fingerprint(config.machine_spec())
        if config.machine_spec() != XEON_E5_2680_V4
        else None
    )
    if saved_machine != current_machine:
        raise ValueError(
            "training state was saved for a different target machine "
            "than the trainer's — resuming would silently time rewards "
            "on different hardware; construct the trainer with the "
            "same --machine it was saved with"
        )


def _input_pad_for(agent_config, metadata: dict | None) -> int:
    """Zero-pad rows needed to lift an archive into ``agent_config``.

    A legacy archive (no layout metadata, or one recorded without
    machine features) loaded into a spec-conditioned agent pads the
    machine block's input rows with zeros; matching layouts pad
    nothing.  A conditioned archive into an unconditioned agent has no
    sound narrowing and raises.
    """
    layout = (metadata or {}).get("observation")
    saved_conditioned = bool(layout and layout.get("machine_features"))
    if saved_conditioned and not agent_config.machine_features:
        raise ValueError(
            "checkpoint was saved by a machine-conditioned agent "
            "(machine_features=True) and cannot load into an agent "
            "without the machine block; construct the agent with "
            "EnvConfig(machine_features=True)"
        )
    if agent_config.machine_features and not saved_conditioned:
        return MACHINE_FEATURE_SIZE
    return 0


def _collect_parameters(
    arrays: dict[str, np.ndarray], prefix: str, parameters
) -> None:
    """Stage ``parameters`` into ``arrays`` as ``<prefix>_<i>`` entries."""
    for index, parameter in enumerate(parameters):
        arrays[f"{prefix}_{index}"] = parameter.data


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write an npz archive atomically (temp file + rename).

    The per-iteration training-state snapshot overwrites its previous
    self; a kill landing mid-write must never leave a truncated archive
    as the only resumable state.  The finished archive's SHA-256 lands
    in a ``.sha256`` sidecar (the archive's own bytes are untouched), so
    a *torn* write that still renamed is caught on load.
    """
    from ..fault.atomic import finalize_atomic

    if path.suffix != ".npz":
        # np.savez appends .npz to extension-less paths; mirror that so
        # the rename target matches what callers will later np.load.
        path = path.with_name(path.name + ".npz")
    temporary = path.with_name(path.name + ".tmp.npz")
    np.savez_compressed(temporary, **arrays)
    finalize_atomic(temporary, path)


def _verified_load(path: str | Path):
    """``np.load`` behind the checksum sidecar (legacy files skip it).

    Raises :class:`~repro.fault.atomic.CorruptArtifactError` on a
    mismatch — a clear message naming the file, instead of numpy's
    zipfile errors on a truncated archive.
    """
    from ..fault.atomic import verify_checksum

    path = Path(path)
    if path.suffix != ".npz" and not path.exists():
        # mirror np.savez's extension append for the sidecar lookup
        with_suffix = path.with_name(path.name + ".npz")
        if with_suffix.exists():
            path = with_suffix
    verify_checksum(path)
    return np.load(path)


def save_agent(agent: ActorCritic, path: str | Path) -> None:
    """Serialize policy + value parameters to an npz archive.

    Spec-conditioned agents additionally record their observation
    layout; default-layout agents write exactly the keys they always
    did, so their archives stay interchangeable with pre-registry ones.
    """
    arrays: dict[str, np.ndarray] = {}
    _collect_parameters(arrays, "policy", agent.policy.parameters())
    _collect_parameters(arrays, "value", agent.value.parameters())
    config = getattr(agent, "config", None)
    if config is not None and config.machine_features:
        metadata = {"observation": _observation_layout(config)}
        arrays["metadata_json"] = np.array(json.dumps(metadata))
    _atomic_savez(Path(path), arrays)


def _padded(array: np.ndarray, target_shape: tuple, pad: int, label: str):
    """Zero-pad a legacy input-weight array up to ``target_shape``.

    Only the input axis (axis 0) may differ, by exactly the machine
    block width — the block is appended at the *end* of the feature
    vector, so the new rows go at the end too and start at zero: the
    padded layer ignores the machine inputs, reproducing the legacy
    network's outputs bit-for-bit on the legacy feature prefix.
    """
    if (
        pad
        and array.ndim == len(target_shape)
        and array.shape[0] + pad == target_shape[0]
        and array.shape[1:] == tuple(target_shape[1:])
    ):
        padding = np.zeros((pad, *array.shape[1:]), dtype=array.dtype)
        return np.concatenate([array, padding], axis=0)
    raise ValueError(
        f"{label}: checkpoint shape {array.shape} != model shape "
        f"{tuple(target_shape)}"
    )


def _restore_parameters(
    archive, prefix: str, parameters, input_pad: int = 0
) -> None:
    """Copy ``<prefix>_<i>`` arrays over ``parameters``.

    Shapes must match, except that with ``input_pad`` a legacy input
    weight may be ``input_pad`` rows short — it is zero-padded (see
    :func:`_padded`)."""
    for index, parameter in enumerate(parameters):
        array = archive[f"{prefix}_{index}"]
        if parameter.data.shape != array.shape:
            array = _padded(
                array,
                parameter.data.shape,
                input_pad,
                f"{prefix} parameter {index}",
            )
        parameter.data = array.copy()


def _archive_metadata(archive) -> dict | None:
    if "metadata_json" not in archive:
        return None
    return json.loads(str(archive["metadata_json"]))


def load_agent(agent: ActorCritic, path: str | Path) -> None:
    """Restore parameters saved by :func:`save_agent`.

    Shapes must match — except for the zero-padded legacy path: an
    archive saved without machine features loads into a
    spec-conditioned agent with the machine block's input weights
    initialized to zero.
    """
    archive = _verified_load(path)
    pad = _input_pad_for(agent.config, _archive_metadata(archive))
    _restore_parameters(archive, "policy", agent.policy.parameters(), pad)
    _restore_parameters(archive, "value", agent.value.parameters(), pad)


# ---------------------------------------------------------------------------
# Full training state (resumable runs)
# ---------------------------------------------------------------------------

#: Bumped on any layout change of the training-state archive.
TRAINING_STATE_VERSION = 1


def save_training_state(trainer: PPOTrainer, path: str | Path) -> None:
    """Serialize everything needed to resume ``trainer`` bit-identically.

    The archive holds the agent weights, the Adam moments (``m``/``v``
    per parameter) and step counter, the trainer RNG's bit-generator
    state, the iteration counter, the full ``TrainingHistory``, and —
    when the sampler exposes ``state_dict`` (e.g.
    :class:`~repro.datasets.generator.CurriculumSampler`) — the
    curriculum position.
    """
    arrays: dict[str, np.ndarray] = {}
    agent = trainer.agent
    _collect_parameters(arrays, "policy", agent.policy.parameters())
    _collect_parameters(arrays, "value", agent.value.parameters())
    optimizer = trainer.optimizer
    for index, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
        arrays[f"adam_m_{index}"] = m
        arrays[f"adam_v_{index}"] = v
    metadata = {
        "version": TRAINING_STATE_VERSION,
        "adam_t": optimizer._t,
        "iteration": trainer.iteration,
        "sampler_kind": type(trainer.sampler).__name__,
        "rng_state": trainer.rng.bit_generator.state,
        "history": [vars(stats) for stats in trainer.history.iterations],
    }
    config = getattr(agent, "config", None)
    if config is not None and config.machine_features:
        # Layout recorded only for the extended observation: default
        # states keep the exact metadata keys they always had.
        metadata["observation"] = _observation_layout(config)
    from ..machine.spec import XEON_E5_2680_V4

    env_config = trainer.env.config
    # Structural gate (not by name): only hardware differing from the
    # paper Xeon is recorded, so default states keep their exact
    # pre-registry metadata keys whatever the spec happens to be named.
    if env_config.machine_spec() != XEON_E5_2680_V4:
        metadata["machine"] = _machine_fingerprint(
            env_config.machine_spec()
        )
    if trainer.machines:
        metadata["machines"] = [
            _machine_fingerprint(spec) for spec in trainer.machines
        ]
    sampler_state = getattr(trainer.sampler, "state_dict", None)
    if callable(sampler_state):
        # Recorded even when empty: a state-aware sampler saved with no
        # position (e.g. mixed without curriculum) must still be
        # distinguishable on load from one saved *with* a position.
        metadata["sampler_state"] = sampler_state()
    arrays["metadata_json"] = np.array(json.dumps(metadata))
    _atomic_savez(Path(path), arrays)


def load_training_state(trainer: PPOTrainer, path: str | Path) -> dict:
    """Restore a state saved by :func:`save_training_state`.

    ``trainer`` must be constructed exactly as the saved one (same
    config, agent architecture, sampler kind); afterwards, calling
    ``trainer.train(n)`` continues the run as if it had never stopped.
    Returns the archive's metadata dict.
    """
    archive = _verified_load(path)
    if "metadata_json" not in archive:
        raise ValueError(
            f"{path} is not a training state (no metadata); it looks "
            "like a weights-only checkpoint — resumable states are the "
            ".state.npz files written next to the weights"
        )
    metadata = json.loads(str(archive["metadata_json"]))
    version = metadata.get("version")
    if version != TRAINING_STATE_VERSION:
        raise ValueError(
            f"training-state version {version} != supported "
            f"{TRAINING_STATE_VERSION}"
        )
    saved_kind = metadata.get("sampler_kind")
    current_kind = type(trainer.sampler).__name__
    if saved_kind is not None and saved_kind != current_kind:
        raise ValueError(
            f"training state was saved with a {saved_kind} sampler but "
            f"the trainer has a {current_kind} — resuming on a different "
            "corpus would silently diverge; construct the trainer with "
            "the same --dataset/--curriculum it was saved with"
        )
    _validate_machines(trainer, metadata)
    pad = _input_pad_for(trainer.agent.config, metadata)
    _restore_parameters(
        archive, "policy", trainer.agent.policy.parameters(), pad
    )
    _restore_parameters(
        archive, "value", trainer.agent.value.parameters(), pad
    )
    optimizer = trainer.optimizer
    for index, parameter in enumerate(optimizer.parameters):
        for prefix, store in (("adam_m", optimizer._m), ("adam_v", optimizer._v)):
            array = archive[f"{prefix}_{index}"]
            if array.shape != parameter.data.shape:
                # Legacy layout: zero moments for the machine block's
                # padded weights, like any freshly added parameter row.
                array = _padded(
                    array, parameter.data.shape, pad, f"{prefix}_{index}"
                )
            store[index] = array.copy()
    optimizer._t = int(metadata["adam_t"])
    trainer.rng.bit_generator.state = metadata["rng_state"]
    trainer.iteration = int(metadata["iteration"])
    trainer.history.iterations = [
        IterationStats(**stats) for stats in metadata["history"]
    ]
    sampler_state = metadata.get("sampler_state")
    if sampler_state is not None:
        load_state = getattr(trainer.sampler, "load_state_dict", None)
        if not callable(load_state):
            raise ValueError(
                "checkpoint carries a curriculum sampler state but the "
                "trainer's sampler has no load_state_dict — construct "
                "the trainer with the same sampler kind it was saved with"
            )
        load_state(sampler_state)
    return metadata
