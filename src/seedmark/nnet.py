"""Minimal deterministic feed-forward network engine.

Dense networks given by their layer widths and one activation (relu or
tanh) after every hidden layer, with an implicit softmax head.
Everything is float64 numpy, fully analytic gradients, no ML runtime.
All randomness comes from per-purpose streams in :mod:`seedmark.rng`,
so identical (spec, seed) always reproduces bit-identical weights.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated, ClassVar

import numpy as np

from .errors import (INTEGER, NUMBER, DivergenceError, InputError, Rule, SeedmarkError, SpecError,
                     among, check, check_field_types, each, within)
from .rng import stream

# Each activation, and its derivative in terms of the activation's output y.
# relu's mask y > 0 equals z > 0 for every float z, NaN and -0.0 included.
_ACTIVATE = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
_DERIVATIVE = {"relu": lambda y: y > 0.0, "tanh": lambda y: 1.0 - y**2}
ACTIVATIONS = tuple(_ACTIVATE)
_RECORD = Rule(lambda r: type(r) is dict and type(r.get("stage")) is str, "a stage record")
_PROVENANCE = Rule(lambda v: type(v) is tuple and all(map(_RECORD.ok, v)),
                   "a tuple of dicts, each with a string stage", _RECORD.ok)

# Adam's step size, moment decay rates and denominator guard; training always uses Adam.
ADAM_LEARNING_RATE = 1e-2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Dense stack `widths[0] -> widths[1] -> ... -> widths[-1]` classes.

    `activation` follows every hidden layer; the softmax head is implied."""

    widths: Annotated[tuple,  # (in_dim, *hidden, classes)
                      Rule(lambda v: len(v) >= 2, "at least an input and an output width"),
                      each(within("[1, inf)", INTEGER)),
                      Rule(lambda v: v[-1] >= 2, "a list ending in at least 2 classes")]
    activation: Annotated[str, among(ACTIVATIONS)] = "relu"

    def __post_init__(self):
        check_field_types(self, SpecError)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_classes(self) -> int:
        return self.widths[-1]

    @property
    def dense_count(self) -> int:
        return len(self.widths) - 1

    @property
    def param_count(self) -> int:
        """Length of a model's parameter vector: every dense layer's W and b."""
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.widths, self.widths[1:]))

    def layer_views(self, params) -> tuple:
        """(W, b) views into `params`, laid out W0, b0, W1, b1, ..., each W row-major.
        A stack of M vectors, an (M, P) array, gives (M, n_in, n_out) and (M, n_out) views."""
        views, offset, stack = [], 0, params.shape[:-1]
        for n_in, n_out in zip(self.widths, self.widths[1:]):
            end = offset + n_in * n_out
            views.append((params[..., offset:end].reshape(*stack, n_in, n_out),
                          params[..., end : end + n_out]))
            offset = end + n_out
        return tuple(views)


# Named topology families used by the evaluation harness. Family A is the
# default "protected" shape; B shares the activation but not the structure;
# C shares the structure but not the activation.
FAMILY_DEFAULTS = {
    "A": dict(hidden=(64, 64), activation="relu"),
    "B": dict(hidden=(48, 48, 48), activation="relu"),
    "C": dict(hidden=(64, 64), activation="tanh"),
}


def family_spec(name, in_dim, classes) -> ModelSpec:
    check("family", name, among(FAMILY_DEFAULTS), SpecError)
    family = FAMILY_DEFAULTS[name]
    return ModelSpec((in_dim, *family["hidden"], classes), family["activation"])


@dataclass(frozen=True, eq=False)  # arrays have no single == truth value
class Model:
    """A network whose parameters are one vector in `ModelSpec.layer_views`' layout:
    the vector `train` updates, a model file stores and `model_digest` hashes."""

    spec: ModelSpec
    params: np.ndarray  # C-contiguous float64, spec.param_count values
    provenance: tuple  # stage records, oldest first: dicts, each with a string "stage"

    def __post_init__(self):
        p, count = self.params, self.spec.param_count
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape == (count,)
                and p.flags.c_contiguous):
            got = (f"{p.dtype} array of shape {p.shape}, strides {p.strides}"
                   if isinstance(p, np.ndarray) else type(p).__name__)
            raise SpecError(f"params must be a C-contiguous float64 vector of {count} values, "
                            f"got {got}")
        if not np.isfinite(p).all():
            raise SpecError("params hold non-finite values")
        check("provenance", self.provenance, _PROVENANCE, SpecError)

    @cached_property
    def weights(self) -> tuple:  # one (W, b) pair of views into params per dense layer
        return self.spec.layer_views(self.params)


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, "[1, inf)"] = 10
    seed: int = 0
    temperature: Annotated[float, "(0, inf)"] = 1.0  # divides the logits before the softmax
    batch_size: ClassVar[int] = 32  # not settable, like Adam's constants above

    def __post_init__(self):
        check_field_types(self, SpecError)


def init_model(spec: ModelSpec, seed: int) -> Model:
    """Glorot-uniform weights (bound sqrt(6/(in+out))), zero biases."""
    rng = stream(seed, "init")
    params = np.zeros(spec.param_count)
    for w, _ in spec.layer_views(params):
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return Model(spec, params, ({"stage": "init", "seed": seed},))


def _check_inputs(model: Model, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.spec.input_dim:
        raise InputError(
            f"expected inputs of dim {model.spec.input_dim}, got shape {x.shape}"
        )
    return x


def _forward_trace(spec: ModelSpec, weights, x: np.ndarray):
    """Run the network, returning logits plus each dense layer's input (for backprop).
    A stack of M networks takes an (M, rows, in) `x`, (M, n_in, n_out) weights and
    (M, 1, n_out) biases."""
    activate = _ACTIVATE[spec.activation]
    inputs = [x]
    a = x @ weights[0][0] + weights[0][1]
    for w, b in weights[1:]:
        a = activate(a)
        inputs.append(a)
        a = a @ w + b
    return a, inputs


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward(model: Model, inputs) -> np.ndarray:
    """Confidence vectors: softmax over the final logits, rows summing to 1.
    InputError, naming the model's digest, if its forward pass overflows."""
    x = _check_inputs(model, inputs)
    with np.errstate(over="ignore", invalid="ignore"):
        p = softmax(_forward_trace(model.spec, model.weights, x)[0])
    if not np.isfinite(p).all():
        from .serialize import model_digest  # serialize imports this module
        raise InputError(f"model {model_digest(model)} gives non-finite confidences: "
                         "its forward pass overflows")
    return p


def predict(model: Model, inputs) -> np.ndarray:
    """Argmax labels; ties broken toward the lowest class index."""
    return np.argmax(forward(model, inputs), axis=-1)


def _target_matrix(model, targets, rows):
    """The (rows, k) target matrix. A 1-D vector is hard labels, each a whole
    number in [0, k); an (N, k) matrix is soft confidences, each in [0, 1]."""
    k = model.spec.output_classes
    targets = np.asarray(targets)
    if targets.ndim == 1:
        # isin also rejects fractions, NaN and inf, which astype(int) would truncate
        if not np.isin(targets, np.arange(k)).all():
            raise InputError(f"hard labels must be whole numbers in [0, {k})")
        t = np.zeros((len(targets), k))
        t[np.arange(len(targets)), targets.astype(int)] = 1.0
    elif targets.ndim == 2 and targets.shape[1] == k:
        t = targets.astype(np.float64)
        # bounded targets keep the loss finite whenever the softmax is (see `train`)
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise InputError("soft-label targets must lie in [0, 1]")
    else:
        raise InputError(f"targets must be a label vector or an (N, {k}) confidence matrix, "
                         f"got shape {targets.shape}")
    if len(t) != rows:
        raise InputError(f"{len(t)} targets for {rows} inputs")
    return t


def _backprop(spec: ModelSpec, weights, inputs, delta, out=None, stop=0):
    """Propagate dL/dlogits back through the stack.

    With `out` (one (gW, gb) pair of arrays per dense layer) it writes each
    layer's param grads into it, from the top down to dense layer `stop`,
    and forms nothing below that. Without `out` it forms no param grads and
    returns the input grads."""
    derivative = _DERIVATIVE[spec.activation]
    for i in reversed(range(len(weights))):
        if out is not None:
            gw, gb = out[i]
            np.matmul(inputs[i].mT, delta, out=gw)
            np.add.reduce(delta, axis=-2, out=gb)
            if i == stop:
                return
        delta = delta @ weights[i][0].mT
        if i:
            delta = delta * derivative(inputs[i])
    return delta


def loss_and_param_grads(model: Model, inputs, targets, temperature=1.0):
    """Mean cross-entropy and exact analytic gradients for every weight tensor.

    The targets' shape picks the loss (see `_target_matrix`); the model's
    logits are divided by `temperature` before the softmax.
    """
    check("temperature", temperature, within("(0, inf)", NUMBER), SpecError)
    x = _check_inputs(model, inputs)
    t = _target_matrix(model, targets, len(x))
    grads = tuple((np.empty(w.shape), np.empty(b.shape)) for w, b in model.weights)
    p = _softmax_and_grads(model.spec, model.weights, x, t, temperature, grads)
    return -(t * np.log(np.maximum(p, 1e-300))).sum() / len(x), grads


def _softmax_and_grads(spec, weights, x, t, scale, out, stop=0):
    """softmax(logits / scale); the mean cross-entropy's param grads are
    written into `out` (see `_backprop`). A stack's `scale` is (M, 1, 1)."""
    z, inputs = _forward_trace(spec, weights, x)
    p = softmax(z / scale)
    _backprop(spec, weights, inputs, (p - t) / (x.shape[-2] * scale), out, stop)
    return p


def input_gradient(model: Model, inputs, target_label) -> np.ndarray:
    """Gradient of hard-label cross-entropy w.r.t. the input vector(s)."""
    single = np.asarray(inputs).ndim == 1
    x = _check_inputs(model, inputs)
    labels = np.atleast_1d(np.asarray(target_label))
    if labels.ndim != 1:
        raise InputError(f"input_gradient expects class labels, got shape {labels.shape}")
    t = _target_matrix(model, labels, len(x))
    z, layer_inputs = _forward_trace(model.spec, model.weights, x)
    delta = softmax(z) - t  # per-sample loss, no batch averaging
    dx = _backprop(model.spec, model.weights, layer_inputs, delta)
    return dx[0] if single else dx


def train(model: Model, features, targets, cfg: TrainConfig, frozen_dense=0) -> Model:
    """Mini-batch Adam training; returns a new model, input model untouched.

    Batch order is a pure function of cfg.seed. `frozen_dense` leaves the
    first k dense layers' weights untouched (transfer-learning support);
    backprop stops at the first trainable layer, so no gradient is formed
    for the frozen layers or the inputs. This is `train_jobs` of one job.
    """
    return train_jobs([(model, features, targets, cfg, frozen_dense)])[0]


# The most models `train_jobs` stacks in one lockstep loop. A stack holds each
# model's rows, targets, parameters, gradient, Adam moments and temporaries at
# once, so this bounds training memory however many jobs share a group.
MAX_POPULATION = 16


def train_jobs(jobs) -> list:
    """`train` of each job, a tuple of its arguments (model, features, targets, cfg,
    frozen_dense), trained in lockstep: one stack per group of at most `MAX_POPULATION`
    jobs that share a spec, a row count, an epoch count and frozen layers. Returns the
    models in job order, each bit-identical to training it alone. A failure raises
    what training the jobs in turn would: the error of the first failing job, which no
    later job is trained past, and a `DivergenceError`'s `model` is that job's index."""
    jobs, groups, failure = list(jobs), {}, None
    for i, (model, features, targets, cfg, frozen_dense) in enumerate(jobs):
        try:
            x = _check_inputs(model, features)
            check("training row count", len(x), within("[1, inf)"), InputError)
            check("frozen_dense", frozen_dense,
                  within(f"[0, {model.spec.dense_count})", INTEGER), SpecError)
            _target_matrix(model, targets, len(x))
        except SeedmarkError as error:
            failure = (i, error)
            break
        jobs[i] = (model, x, targets, cfg)
        groups.setdefault((model.spec, len(x), cfg.epochs, frozen_dense), []).append(i)
    trained = [None] * len(jobs)
    for key, group in groups.items():
        for start in range(0, len(group), MAX_POPULATION):
            chunk = group[start : start + MAX_POPULATION]
            try:
                models = _train_population(*key, [jobs[i] for i in chunk])
            except DivergenceError as error:
                i = chunk[error.model]
                if failure is None or i < failure[0]:
                    failure = (i, DivergenceError(error.epoch, error.batch, i))
                continue
            for i, model in zip(chunk, models):
                trained[i] = model
    if failure:
        raise failure[1]
    return trained


def _train_population(spec, n, epochs, frozen_dense, jobs) -> tuple:
    """Train a checked `train_jobs` group of (model, rows, targets, cfg) jobs in lockstep.

    Their parameters are one (M, P) stack, and each step runs the forward pass, backprop
    and Adam update over the trainable tail of every row at once, each model with its own
    batch order and temperature. These apply the same operations to each row as training
    it alone, so each model's bytes equal its solo training's. Divergence raises the
    lowest-index diverging model's `DivergenceError`, with that index as its `model`."""
    models, xs, targets, cfgs = zip(*jobs)
    # every model's rows, and targets, one after another: model i's row r is row i * n + r
    x = np.concatenate(xs)
    t = np.concatenate([_target_matrix(m, tg, n) for m, tg in zip(models, targets)])
    params = np.stack([m.params for m in models])
    weights = tuple((w, b[:, None, :]) for w, b in spec.layer_views(params))
    grad = np.empty_like(params)
    grads = spec.layer_views(grad)
    first = sum(w.shape[-1] * (w.shape[-2] + 1) for w, _ in weights[:frozen_dense])
    p, g = params[:, first:], grad[:, first:]
    m, v = np.zeros_like(p), np.zeros_like(p)
    # Adam's temporary, allocated once: a fresh stack per step costs more than the step's math
    tmp = np.empty_like(p)
    scale = np.array([c.temperature for c in cfgs])[:, None, None]
    shufflers = [stream(c.seed, "shuffle") for c in cfgs]
    offsets = np.arange(0, len(jobs) * n, n)[:, None]
    top_bias_grad = grads[-1][1]
    diverged = {}  # model index -> (epoch, batch) of its first non-finite step
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = np.stack([s.permutation(n) for s in shufflers]) + offsets
            for bi, start in enumerate(range(0, n, TrainConfig.batch_size)):
                # each batch is gathered alone: an epoch's reordered copy of the rows
                # would hold the population's data twice over
                batch = order[:, start : start + TrainConfig.batch_size]
                _softmax_and_grads(spec, weights, x.take(batch, 0), t.take(batch, 0), scale,
                                   grads, frozen_dense)
                # the top bias gradient sums softmax - targets over the batch, so
                # it is NaN exactly when the softmax, and so the loss, is; a
                # Python loop over its few entries is cheaper than a ufunc call
                if not all(map(math.isfinite, top_bias_grad.ravel().tolist())):
                    for i in np.flatnonzero(~np.isfinite(top_bias_grad).all(axis=1)):
                        diverged.setdefault(int(i), (epoch, bi))
                    if 0 in diverged:  # no lower-index model can diverge before it
                        raise DivergenceError(*diverged[0], 0)
                step += 1
                # m and v decay toward g and g*g; p steps by their bias-corrected ratio.
                # Once m has read g, g is scratch: the next backprop rewrites all of it
                m *= ADAM_BETA1
                m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
                v *= ADAM_BETA2
                v += np.multiply(np.multiply(g, g, out=g), 1 - ADAM_BETA2, out=g)
                p -= np.divide(np.multiply(np.divide(m, 1 - ADAM_BETA1**step, out=tmp),
                                           ADAM_LEARNING_RATE, out=tmp),
                               np.add(np.sqrt(np.divide(v, 1 - ADAM_BETA2**step, out=g),
                                              out=g), ADAM_EPS, out=g), out=tmp)
    if diverged:
        first = min(diverged)
        raise DivergenceError(*diverged[first], first)
    return tuple(
        Model(spec, params[i], model.provenance + (dict(
            seed=cfg.seed, epochs=epochs, optimizer="adam",
            loss="soft" if np.ndim(tg) == 2 else "hard", stage="trained-fresh"),))
        for i, (model, tg, cfg) in enumerate(zip(models, targets, cfgs)))
