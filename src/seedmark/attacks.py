"""Model extraction attack tokens, query sampling and blurring methods.

An extraction attack queries a victim model and trains a surrogate on the
answers (hard labels, or full confidence vectors for DIS); that training
is a `nnet.train_jobs` job, which `harness.build_attacked_models` builds.
Blurring methods post-process an extracted model to obscure inherited
behavior. Both are used by the simulated adversary and, during key-set
generation, by the model owner.
"""

import numpy as np

from .errors import INTEGER, NUMBER, ConfigError, InputError, check, within
from .nnet import Model
from .rng import stream
from .serialize import model_digest

# Every extraction attack token. The attacks differ only in their queries,
# their targets and their starting network; `harness.build_attacked_models`
# picks those for each token and trains every surrogate in one `train_jobs` call.
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

