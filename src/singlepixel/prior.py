"""Untrained-generator reconstruction against the physics forward model.

The generator output O_0 is an object-plane intensity, scored by the data
term of `measurement.objective` (diffraction to the modulator, then the
differential pattern integration) plus a TV term:

    L(theta) = || encode(diffract(O_0)) - I ||^2 + tv_weight * TV(O_0)

The readings I are in units where an open aperture (O_0 = 1 everywhere)
reads m * N at the DC pattern and 0 at every other.  The gradient is exact
reverse mode: objective's dL/dO_0 plus the TV subgradient, then the net's
backward pass.

The fit is a fixed method, as in deep image prior: DEFAULT_ITERATIONS Adam
updates with the BASE_LR, DECAY_RATE, DECAY_STEPS, BETA1, BETA2 and ADAM_EPS
constants below, and a TV weight of DEFAULT_TV_WEIGHT unless one is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ReconResult, dgi_reconstruct
from .errors import NumericalError, ParameterError
from .field import IntensityImage
from .measurement import Measurement, objective
from .network import GeneratorNet
from .patterns import PatternSet
from .propagation import PropagationSpec
from .tvreg import check_tv_weight, tv_anisotropic, tv_subgradient

DEFAULT_TV_WEIGHT = 1e-10
DEFAULT_ITERATIONS = 300

# Adam (Kingma & Ba) with a stepped exponential learning-rate decay: the rate
# is BASE_LR * DECAY_RATE ** (t // DECAY_STEPS) after t completed updates.
BASE_LR = 0.05
DECAY_RATE = 0.9
DECAY_STEPS = 100
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam accumulators and the count of completed updates; the
    hyperparameters are the module constants above."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])

    def learning_rate(self, step: int | None = None) -> float:
        """Effective rate for the given completed-update count (default: now)."""
        t = self.step if step is None else step
        return BASE_LR * DECAY_RATE ** (t // DECAY_STEPS)

    def update(self, params, grads) -> None:
        lr = self.learning_rate()
        self.step += 1
        k = self.step
        c1 = 1.0 - BETA1**k
        c2 = 1.0 - BETA2**k
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            p -= lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + ADAM_EPS)


def loss_and_gradient(
    net: GeneratorNet,
    input_image: IntensityImage,
    meas: Measurement,
    pattern_set: PatternSet,
    prop: PropagationSpec,
    tv_weight: float = DEFAULT_TV_WEIGHT,
):
    """Physics-chain loss and its exact gradient w.r.t. every net parameter."""
    check_tv_weight(tv_weight)

    output = net.forward(input_image.values)
    if not np.all(np.isfinite(output)):
        raise NumericalError("non-finite generator output", stage="generate")

    # The sigmoid keeps O strictly positive, so objective's gradient through sqrt(O) holds.
    data_loss, g_output = objective(output, meas, pattern_set, prop)
    loss = data_loss + tv_weight * tv_anisotropic(output)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss", stage="loss")
    if tv_weight > 0:
        g_output = g_output + tv_weight * tv_subgradient(output)

    grads = net.backward(g_output)
    if not all(np.all(np.isfinite(g)) for g in grads):
        raise NumericalError("non-finite gradient", stage="gradient")
    return loss, grads


def reconstruct_untrained(
    meas: Measurement,
    pattern_set: PatternSet,
    prop: PropagationSpec,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    *,
    tv_weight: float | None = None,
    net: GeneratorNet | None = None,
) -> ReconResult:
    """Adam-optimize a freshly seeded generator against the measurements.

    The fixed network input is the DGI estimate of the diffracted image; the
    returned image is the generator output after the final update, and
    residual_history records the loss seen at every iteration.  A
    `tv_weight` of None is DEFAULT_TV_WEIGHT.

    Without `net`, the generator is a float32 net of the default channel
    plan: its layers run in float32 while its parameters, the Adam state and
    the whole physics chain (propagation, pattern projection and their
    adjoints) stay float64.  Pass `net=GeneratorNet(..., dtype=np.float64)`
    for an all-float64 run, or a net of another plan.
    """
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    if tv_weight is None:
        tv_weight = DEFAULT_TV_WEIGHT
    check_tv_weight(tv_weight)
    input_image = dgi_reconstruct(meas, pattern_set).image
    if net is None:
        net = GeneratorNet(seed=seed, dtype=np.float32)
    adam = AdamState.for_params(net.params)
    history = []
    for it in range(iterations):
        try:
            loss, grads = loss_and_gradient(net, input_image, meas, pattern_set, prop, tv_weight)
        except NumericalError as err:
            raise NumericalError(err.message, stage=err.stage, iteration=it) from err
        adam.update(net.params, grads)
        history.append(loss)
    final = IntensityImage(values=net.forward(input_image.values))
    return ReconResult(image=final, raw=final.values, residual_history=tuple(history))

