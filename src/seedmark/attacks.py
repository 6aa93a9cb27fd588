"""Model extraction attacks and blurring methods.

Extraction attacks query a victim model and train a surrogate on the
responses (hard labels or full confidence vectors). Blurring methods
post-process an extracted model to obscure inherited behavior. Both are
used by the simulated adversary and, during key-set generation, by the
model owner.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, SpecError
from .nnet import Model, ModelSpec, TrainConfig, init_model, predict, forward, train
from .rng import derive_seed, stream
from .serialize import model_digest


@dataclass(frozen=True)
class ExtractionConfig:
    kind: str  # an ATTACKS token; recorded as the attack id in provenance
    surrogate_spec: ModelSpec
    train_cfg: TrainConfig
    query_budget_fraction: float = 1.0
    distill_temperature: float = None
    frozen_layers: int = None

    def __post_init__(self):
        if self.kind not in ATTACKS:
            raise ConfigError(f"unknown attack {self.kind!r}")
        if not 0 < self.query_budget_fraction <= 1:
            raise ConfigError("query_budget_fraction must be in (0, 1]")
        if self.kind == "DIS":
            if self.distill_temperature is None or self.distill_temperature <= 0:
                raise ConfigError("DIS requires a positive distill_temperature")
        elif self.distill_temperature is not None:
            raise ConfigError("distill_temperature only applies to DIS")
        if self.kind == "TRL":
            if self.frozen_layers is None or self.frozen_layers < 0:
                raise ConfigError("TRL requires frozen_layers >= 0")
        elif self.frozen_layers is not None:
            raise ConfigError("frozen_layers only applies to TRL")


def _sample_queries(train_inputs, fraction, seed):
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    n = len(train_inputs)
    count = int(round(n * fraction))
    if count < 1:
        raise InputError("query budget yields zero samples")
    idx = stream(seed, "attack/queries").permutation(n)[:count]
    return train_inputs[idx]


def _extracted(surrogate: Model, victim: Model, cfg: ExtractionConfig) -> Model:
    prov = surrogate.provenance.extended(
        "extracted", attack=cfg.kind, victim=model_digest(victim)
    )
    return Model(surrogate.spec, surrogate.weights, prov)


def extract_retraining(victim: Model, train_inputs, cfg: ExtractionConfig) -> Model:
    """Query hard labels, train a fresh surrogate on them."""
    queries = _sample_queries(train_inputs, cfg.query_budget_fraction, cfg.train_cfg.seed)
    labels = predict(victim, queries)
    surrogate = init_model(cfg.surrogate_spec, derive_seed(cfg.train_cfg.seed, "surrogate-init"))
    return _extracted(train(surrogate, queries, labels, cfg.train_cfg), victim, cfg)


def extract_distillation(victim: Model, train_inputs, cfg: ExtractionConfig) -> Model:
    """Train on the victim's full confidence vectors at the distillation temperature."""
    queries = _sample_queries(train_inputs, cfg.query_budget_fraction, cfg.train_cfg.seed)
    soft_targets = forward(victim, queries)
    train_cfg = replace(cfg.train_cfg, loss="soft", temperature=cfg.distill_temperature)
    surrogate = init_model(cfg.surrogate_spec, derive_seed(cfg.train_cfg.seed, "surrogate-init"))
    return _extracted(train(surrogate, queries, soft_targets, train_cfg), victim, cfg)


def extract_transfer(victim: Model, train_inputs, cfg: ExtractionConfig, pretrained: Model = None) -> Model:
    """Fine-tune a pretrained model on victim hard labels, freezing early layers."""
    if pretrained is None:
        raise ConfigError("TRL requires a pretrained model")
    if pretrained.spec != cfg.surrogate_spec:
        raise SpecError("pretrained model spec does not match surrogate_spec")
    if cfg.frozen_layers >= pretrained.spec.dense_count:
        raise SpecError(
            f"frozen_layers={cfg.frozen_layers} leaves nothing to fine-tune "
            f"({pretrained.spec.dense_count} dense layers)"
        )
    queries = _sample_queries(train_inputs, cfg.query_budget_fraction, cfg.train_cfg.seed)
    labels = predict(victim, queries)
    tuned = train(pretrained, queries, labels, cfg.train_cfg, frozen_dense=cfg.frozen_layers)
    return _extracted(tuned, victim, cfg)


def extract_copycat(victim: Model, probe_inputs, cfg: ExtractionConfig) -> Model:
    """Label random probes with the victim's argmax and train a surrogate on them."""
    probes = np.asarray(probe_inputs, dtype=np.float64)
    if len(probes) == 0:
        raise InputError("copycat requires at least one probe input")
    labels = predict(victim, probes)
    surrogate = init_model(cfg.surrogate_spec, derive_seed(cfg.train_cfg.seed, "surrogate-init"))
    return _extracted(train(surrogate, probes, labels, cfg.train_cfg), victim, cfg)


# Every extraction attack, by its token. CAR is retraining with a surrogate
# of another architecture family.
ATTACKS = {
    "RET": extract_retraining,
    "DIS": extract_distillation,
    "TRL": extract_transfer,
    "CAR": extract_retraining,
    "CC": extract_copycat,
}


def extract(victim: Model, train_inputs, cfg: ExtractionConfig, pretrained: Model = None) -> Model:
    """Run the attack cfg.kind names. `pretrained` is required for TRL."""
    extra = {} if pretrained is None else {"pretrained": pretrained}
    return ATTACKS[cfg.kind](victim, train_inputs, cfg, **extra)


def blur_prune(model: Model, sparsity: float) -> Model:
    """Zero the floor(sparsity * count) smallest-magnitude dense weights globally.

    Biases are untouched. Ties resolve by flattened position, ascending."""
    if not 0 <= sparsity < 1:
        raise ConfigError("sparsity must be in [0, 1)")
    mats = [w for w, _ in model.weights]
    flat = np.concatenate([w.ravel() for w in mats])
    k = int(np.floor(sparsity * flat.size))
    if k > 0:
        order = np.lexsort((np.arange(flat.size), np.abs(flat)))
        flat[order[:k]] = 0.0
    new_weights = []
    offset = 0
    for (w, b) in model.weights:
        new_w = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
        new_weights.append((new_w, b.copy()))
    prov = model.provenance.extended(
        "blurred", method="WP", sparsity=sparsity, parent=model_digest(model)
    )
    return Model(model.spec, tuple(new_weights), prov)


def blur_quantize(model: Model, bits: int) -> Model:
    """Snap each layer's weights and biases to 2**bits levels spanning [min, max].

    Layers whose values are all equal pass through unchanged."""
    if not 1 <= bits <= 16:
        raise ConfigError("bits must be in [1, 16]")
    levels = (1 << bits) - 1
    new_weights = []
    for w, b in model.weights:
        lo = min(w.min(), b.min())
        hi = max(w.max(), b.max())
        if hi == lo:
            new_weights.append((w.copy(), b.copy()))
            continue
        step = (hi - lo) / levels
        snap = lambda a: lo + np.rint((a - lo) / step) * step
        new_weights.append((snap(w), snap(b)))
    prov = model.provenance.extended(
        "blurred", method="WQ", bits=bits, parent=model_digest(model)
    )
    return Model(model.spec, tuple(new_weights), prov)

