"""Model extraction attacks and blurring methods.

Extraction attacks query a victim model and train a surrogate on the
responses (hard labels or full confidence vectors). Blurring methods
post-process an extracted model to obscure inherited behavior. Both are
used by the simulated adversary and, during key-set generation, by the
model owner.
"""

from dataclasses import replace

import numpy as np

from .errors import INTEGER, NUMBER, ConfigError, InputError, check, within
from .nnet import Model, TrainConfig, forward, predict, train
from .rng import stream
from .serialize import model_digest

# Every extraction attack token. The attacks differ only in their queries,
# their targets and their starting network; `harness.build_attacked_model`
# picks those for each token.
ATTACKS = ("RET", "DIS", "TRL", "CAR", "CC")


def sample_queries(train_inputs, fraction, seed):
    """round(fraction * N) distinct rows of `train_inputs`, in shuffled order."""
    check("query fraction", fraction, within("(0, 1]", NUMBER), InputError)
    train_inputs = np.asarray(train_inputs, dtype=np.float64)
    n = len(train_inputs)
    count = int(round(n * fraction))
    if count < 1:
        raise InputError("query budget yields zero samples")
    idx = stream(seed, "attack/queries").permutation(n)[:count]
    return train_inputs[idx]


def extract(victim: Model, queries, surrogate: Model, train_cfg: TrainConfig, attack: str,
            temperature: float = None, frozen_dense: int = 0) -> Model:
    """Train `surrogate` on the victim's answers to `queries`.

    The answers are hard labels, or with `temperature` the full confidence
    vectors, trained at that temperature (their shape picks the loss). The
    first `frozen_dense` dense layers keep their weights. `attack` is
    recorded as the attack id in provenance."""
    if len(queries) == 0:
        raise InputError("extraction requires at least one query")
    if temperature is None:
        targets = predict(victim, queries)
    else:
        targets = forward(victim, queries)
        train_cfg = replace(train_cfg, temperature=temperature)
    trained = train(surrogate, queries, targets, train_cfg, frozen_dense=frozen_dense)
    record = dict(attack=attack, victim=model_digest(victim), stage="extracted")
    return Model(trained.spec, trained.params, trained.provenance + (record,))


def blur_prune(model: Model, sparsity: float) -> Model:
    """Zero the floor(sparsity * count) smallest-magnitude dense weights globally.

    Biases are untouched. Ties resolve by flattened position, ascending."""
    check("sparsity", sparsity, within("[0, 1)", NUMBER), ConfigError)
    params = model.params.copy()
    # each dense weight's index in params, ascending: layer by layer, row-major
    pos = np.concatenate([w.ravel() for w, _ in model.spec.layer_views(np.arange(params.size))])
    k = int(np.floor(sparsity * pos.size))
    order = np.lexsort((pos, np.abs(params[pos])))
    params[pos[order[:k]]] = 0.0
    record = dict(method="WP", sparsity=sparsity, parent=model_digest(model), stage="blurred")
    return Model(model.spec, params, model.provenance + (record,))


def blur_quantize(model: Model, bits: int) -> Model:
    """Snap each layer's weights and biases to 2**bits levels spanning [min, max].

    Level k of L is lo*(1 - k/L) + hi*(k/L), so the end levels are exactly lo
    and hi, and quantizing again at the same bits changes nothing. Layers
    whose values are all equal pass through unchanged. A layer whose step
    (hi - lo)/L is not a normal float, because its range overflows or the
    step underflows, raises InputError: its levels would not be k/L apart."""
    check("bits", bits, within("[1, 16]", INTEGER), ConfigError)
    levels = (1 << bits) - 1
    params = model.params.copy()
    for i, (w, b) in enumerate(model.spec.layer_views(params)):
        # Python floats, whose arithmetic overflows and underflows without a warning
        lo, hi = float(min(w.min(), b.min())), float(max(w.max(), b.max()))
        if hi == lo:
            continue
        step = (hi - lo) / levels
        if not np.finfo(np.float64).tiny <= step < np.inf:
            raise InputError(f"WQ cannot quantize dense layer {i} at {bits} bits: its values "
                             f"span [{lo!r}, {hi!r}], a level step of {step!r}")
        for a in (w, b):
            t = np.rint((a - lo) / step) / levels  # level k as k/L
            a[...] = lo * (1 - t) + hi * t
    record = dict(method="WQ", bits=bits, parent=model_digest(model), stage="blurred")
    return Model(model.spec, params, model.provenance + (record,))

