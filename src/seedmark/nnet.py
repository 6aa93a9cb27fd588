"""Minimal deterministic feed-forward network engine.

Dense layers with relu/tanh activations and an implicit softmax head.
Everything is float64 numpy, fully analytic gradients, no ML runtime.
All randomness comes from per-purpose streams in :mod:`seedmark.rng`,
so identical (spec, seed) always reproduces bit-identical weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, SpecError
from .rng import stream

ACTIVATIONS = ("relu", "tanh")

# Adam's moment decay rates and denominator guard; training always uses Adam.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Activation:
    kind: str  # relu | tanh


@dataclass(frozen=True)
class ModelSpec:
    """Layer list ending in a dense layer into `output_classes` (softmax implied)."""

    layers: tuple
    output_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        self.validate()

    def validate(self):
        denses = [l for l in self.layers if isinstance(l, Dense)]
        if not denses:
            raise SpecError("spec needs at least one dense layer")
        if self.output_classes < 2:
            raise SpecError(f"output_classes must be >= 2, got {self.output_classes}")
        cur = None
        for layer in self.layers:
            if isinstance(layer, Dense):
                if layer.in_dim < 1 or layer.out_dim < 1:
                    raise SpecError(f"non-positive dense dims: {layer}")
                if cur is not None and layer.in_dim != cur:
                    raise SpecError(
                        f"dense dimension mismatch: expected in_dim {cur}, got {layer.in_dim}"
                    )
                cur = layer.out_dim
            elif isinstance(layer, Activation):
                if layer.kind not in ACTIVATIONS:
                    raise SpecError(f"unknown activation {layer.kind!r}")
            else:
                raise SpecError(f"unknown layer type {layer!r}")
        if not isinstance(self.layers[-1], Dense):
            raise SpecError("final layer must be dense")
        if cur != self.output_classes:
            raise SpecError(
                f"final dense out_dim {cur} != output_classes {self.output_classes}"
            )

    @property
    def input_dim(self) -> int:
        return next(l for l in self.layers if isinstance(l, Dense)).in_dim

    @property
    def dense_count(self) -> int:
        return sum(isinstance(l, Dense) for l in self.layers)


def mlp_spec(in_dim, hidden, classes, activation="relu") -> ModelSpec:
    """Fully-connected spec: in_dim -> hidden... -> classes with one activation kind."""
    layers = []
    cur = in_dim
    for width in hidden:
        layers.append(Dense(cur, width))
        layers.append(Activation(activation))
        cur = width
    layers.append(Dense(cur, classes))
    return ModelSpec(tuple(layers), classes)


# Named topology families used by the evaluation harness. Family A is the
# default "protected" shape; B shares the activation but not the structure;
# C shares the structure but not the activation.
FAMILY_DEFAULTS = {
    "A": dict(hidden=(64, 64), activation="relu"),
    "B": dict(hidden=(48, 48, 48), activation="relu"),
    "C": dict(hidden=(64, 64), activation="tanh"),
}


def family_spec(name, in_dim, classes) -> ModelSpec:
    if name not in FAMILY_DEFAULTS:
        raise SpecError(f"unknown family {name!r}, expected one of {sorted(FAMILY_DEFAULTS)}")
    family = FAMILY_DEFAULTS[name]
    return mlp_spec(in_dim, family["hidden"], classes, family["activation"])


@dataclass(frozen=True)
class Provenance:
    """Where a model came from: master seed plus an append-only stage history."""

    seed: int
    kind: str = "initialized"  # initialized | trained-fresh | extracted | blurred
    history: tuple = ()

    def extended(self, kind, **record):
        return Provenance(self.seed, kind, self.history + (dict(record, stage=kind),))


@dataclass(frozen=True)
class Model:
    spec: ModelSpec
    weights: tuple  # one (W, b) pair per dense layer
    provenance: Provenance

    def __post_init__(self):
        denses = [l for l in self.spec.layers if isinstance(l, Dense)]
        if len(self.weights) != len(denses):
            raise SpecError("weight count does not match dense layer count")
        for (w, b), layer in zip(self.weights, denses):
            if w.shape != (layer.in_dim, layer.out_dim) or b.shape != (layer.out_dim,):
                raise SpecError(
                    f"weight shape {w.shape}/{b.shape} does not match {layer}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise SpecError("non-finite weight values")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-2
    seed: int = 0
    loss: str = "hard"  # hard | soft
    temperature: float = 1.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise SpecError("epochs and batch_size must be positive")
        if self.learning_rate < 0:
            raise SpecError("learning_rate must be non-negative")
        if self.loss not in ("hard", "soft"):
            raise SpecError(f"unknown loss {self.loss!r}")
        if self.temperature <= 0:
            raise SpecError("temperature must be positive")


def init_model(spec: ModelSpec, seed: int) -> Model:
    """Glorot-uniform weights (bound sqrt(6/(in+out))), zero biases."""
    spec.validate()
    rng = stream(seed, "init")
    weights = []
    for layer in spec.layers:
        if not isinstance(layer, Dense):
            continue
        bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        w = rng.uniform(-bound, bound, size=(layer.in_dim, layer.out_dim))
        b = np.zeros(layer.out_dim)
        weights.append((w, b))
    return Model(spec, tuple(weights), Provenance(seed, "initialized", ({"stage": "init", "seed": seed},)))


def _check_inputs(model: Model, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise InputError(
            f"expected inputs of dim {model.spec.input_dim}, got shape {x.shape}"
        )
    return x


def _forward_trace(layers, weights, x: np.ndarray):
    """Run the layer stack, returning logits plus each layer's input (for backprop)."""
    traces = []
    wi = 0
    a = x
    for layer in layers:
        traces.append(a)
        if isinstance(layer, Dense):
            w, b = weights[wi]
            a = a @ w + b
            wi += 1
        elif layer.kind == "relu":
            a = np.maximum(a, 0.0)
        else:  # tanh
            a = np.tanh(a)
    return a, traces


def logits(model: Model, inputs) -> np.ndarray:
    x = _check_inputs(model, inputs)
    z, _ = _forward_trace(model.spec.layers, model.weights, x)
    return z


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: Model, inputs) -> np.ndarray:
    """Confidence vectors: softmax over the final logits, rows summing to 1."""
    return softmax(logits(model, inputs))


def predict(model: Model, inputs) -> np.ndarray:
    """Argmax labels; ties broken toward the lowest class index."""
    return np.argmax(forward(model, inputs), axis=-1)


def _target_matrix(model, targets, loss):
    k = model.spec.output_classes
    targets = np.asarray(targets)
    if loss == "hard":
        if targets.ndim != 1:
            raise InputError("hard-label loss expects a 1-D label vector")
        if targets.min() < 0 or targets.max() >= k:
            raise InputError(f"labels out of range [0, {k})")
        t = np.zeros((len(targets), k))
        t[np.arange(len(targets)), targets.astype(int)] = 1.0
        return t
    if targets.ndim != 2 or targets.shape[1] != k:
        raise InputError(f"soft-label loss expects an (N, {k}) target matrix")
    return targets.astype(np.float64)


def _backprop(layers, weights, traces, delta, out=None, stop=None):
    """Propagate dL/dlogits back through the stack.

    Returns (param grads, input grads). With `out` (one (gW, gb) pair of
    arrays per dense layer) the param grads are written into it. With
    `stop` (a dense-layer index) it returns right after that layer's param
    grads, leaving the layers below it and the input grads (None) unformed."""
    grads = [None] * len(weights) if out is None else out
    wi = len(weights)
    for i in reversed(range(len(layers))):
        layer, a_in = layers[i], traces[i]
        if isinstance(layer, Dense):
            wi -= 1
            w, _ = weights[wi]
            if out is None:
                grads[wi] = (a_in.T @ delta, delta.sum(axis=0))
            else:
                gw, gb = out[wi]
                np.matmul(a_in.T, delta, out=gw)
                np.add.reduce(delta, axis=0, out=gb)
            if wi == stop:
                return grads, None
            delta = delta @ w.T
        elif layer.kind == "relu":
            delta = delta * (a_in > 0.0)
        else:  # tanh' = 1 - y**2, y being this layer's output (the next layer's input)
            delta = delta * (1.0 - traces[i + 1] ** 2)
    return grads, delta


def loss_and_param_grads(model: Model, inputs, targets, loss="hard", temperature=1.0):
    """Mean cross-entropy and exact analytic gradients for every weight tensor.

    Soft-label mode divides the model's logits by `temperature` before the
    softmax (the target distribution is used as given).
    """
    x = _check_inputs(model, inputs)
    t = _target_matrix(model, targets, loss)
    if len(t) != len(x):
        raise InputError("input/target batch size mismatch")
    return _loss_and_grads(model.spec.layers, model.weights, x, t, loss, temperature)


def _loss_and_grads(layers, weights, x, t, loss, temperature, out=None, stop=None):
    z, traces = _forward_trace(layers, weights, x)
    scale = temperature if loss == "soft" else 1.0
    p = softmax(z / scale)
    n = len(x)
    logp = np.log(np.maximum(p, 1e-300))
    loss_value = -(t * logp).sum() / n
    delta = (p - t) / (n * scale)
    grads, _ = _backprop(layers, weights, traces, delta, out, stop)
    return loss_value, tuple(grads)


def input_gradient(model: Model, inputs, target_label) -> np.ndarray:
    """Gradient of hard-label cross-entropy w.r.t. the input vector(s)."""
    single = np.asarray(inputs).ndim == 1
    x = _check_inputs(model, inputs)
    labels = np.atleast_1d(np.asarray(target_label, dtype=int))
    t = _target_matrix(model, labels, "hard")
    if len(t) != len(x):
        raise InputError("input/label batch size mismatch")
    z, traces = _forward_trace(model.spec.layers, model.weights, x)
    p = softmax(z)
    delta = p - t  # per-sample loss, no batch averaging
    _, dx = _backprop(model.spec.layers, model.weights, traces, delta)
    return dx[0] if single else dx


def _layer_views(buf, weights):
    """(W, b) views into flat `buf`, laid out layer by layer like `weights`."""
    views, offset = [], 0
    for w, b in weights:
        wv = buf[offset : offset + w.size].reshape(w.shape)
        offset += w.size
        views.append((wv, buf[offset : offset + b.size]))
        offset += b.size
    return views


def train(model: Model, features, targets, cfg: TrainConfig, frozen_dense=0) -> Model:
    """Mini-batch Adam training; returns a new model, input model untouched.

    Batch order is a pure function of cfg.seed. `frozen_dense` leaves the
    first k dense layers' weights untouched (transfer-learning support);
    backprop stops at the first trainable layer, so no gradient is formed
    for the frozen layers or the inputs.

    All parameters live in one flat buffer (the returned model's weights
    are views of it), so each step is one optimizer update over the
    trainable tail of that buffer. The update applies the same elementwise
    operations in the same order as a per-tensor loop, so the weights are
    bit-identical to it.
    """
    x = _check_inputs(model, features)
    if frozen_dense >= len(model.weights):
        raise SpecError(
            f"frozen_dense={frozen_dense} would freeze all {len(model.weights)} dense layers"
        )
    params = np.concatenate([a.ravel() for wb in model.weights for a in wb], dtype=np.float64)
    weights = _layer_views(params, model.weights)
    grad = np.empty_like(params)
    grads = _layer_views(grad, model.weights)
    first = sum(w.size + b.size for w, b in model.weights[:frozen_dense])
    p, g = params[first:], grad[first:]
    shuffler = stream(cfg.seed, "shuffle")
    t = _target_matrix(model, targets, cfg.loss)
    if len(t) != len(x):
        raise InputError("input/target batch size mismatch")
    n = len(x)
    lr, b1, b2 = cfg.learning_rate, ADAM_BETA1, ADAM_BETA2
    m, v = np.zeros_like(p), np.zeros_like(p)
    tmp1, tmp2 = np.empty_like(p), np.empty_like(p)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffler.permutation(n)
            xs, ts = x[order], t[order]
            for bi, start in enumerate(range(0, n, cfg.batch_size)):
                end = start + cfg.batch_size
                loss_value, _ = _loss_and_grads(
                    model.spec.layers, weights, xs[start:end], ts[start:end], cfg.loss,
                    cfg.temperature, out=grads, stop=frozen_dense,
                )
                if not np.isfinite(loss_value):
                    raise DivergenceError(epoch, bi)
                step += 1
                # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
                m *= b1
                m += np.multiply(g, 1 - b1, out=tmp1)
                v *= b2
                np.multiply(g, g, out=tmp2)
                tmp2 *= 1 - b2
                v += tmp2
                # p = p - lr*(m/c1) / (sqrt(v/c2) + eps)
                c1 = 1 - b1**step
                c2 = 1 - b2**step
                np.divide(m, c1, out=tmp1)
                tmp1 *= lr
                np.divide(v, c2, out=tmp2)
                np.sqrt(tmp2, out=tmp2)
                tmp2 += ADAM_EPS
                tmp1 /= tmp2
                p -= tmp1
    kind = "trained-fresh" if model.provenance.kind == "initialized" else model.provenance.kind
    prov = model.provenance.extended(
        kind,
        seed=cfg.seed,
        epochs=cfg.epochs,
        optimizer="adam",
        loss=cfg.loss,
    )
    return Model(model.spec, tuple(weights), prov)


def accuracy(model: Model, features, labels) -> float:
    return float(np.mean(predict(model, features) == np.asarray(labels)))
