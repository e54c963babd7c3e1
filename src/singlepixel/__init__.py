"""Sub-diffraction single-pixel compressive imaging toolkit.

Simulates coherent diffraction with the angular-spectrum method, encodes
diffraction images with differential Walsh-Hadamard patterns into
single-element detector readouts, and reconstructs objects classically
(inverse Hadamard, differential ghost imaging, TV-regularized compressed
sensing) or with a physics-constrained untrained convolutional generator.
"""

from .classical import ReconResult, cstv_reconstruct, dgi_reconstruct, hspi_reconstruct
from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    InvalidFieldError,
    NumericalError,
    ParameterError,
    SinglePixelError,
)
from .field import IntensityImage, normalize
from .measurement import Measurement, measure, objective, read_measurement_csv, write_measurement_csv
from .metrics import snr, ssim
from .network import GeneratorNet
from .patterns import (
    PatternSet,
    fwht,
    load_patterns,
    save_patterns,
    walsh_hadamard_patterns,
)
from .pgm import read_pgm, write_pgm
from .prior import AdamState, loss_and_gradient, reconstruct_untrained
from .propagation import PropagationSpec, propagate, transfer_gradient
from .scenes import SceneSpec, build_scene, load_scene, parse_scene

__version__ = "0.1.0"
