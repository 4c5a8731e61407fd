"""Communication-efficient distributed Newton-type methods on a simulated parameter server."""

from .compressors import (CompressorSpec, bernoulli, bit_cost, compress,
                          compress_with_info, dithering, identity, natural,
                          omega, random_r)
from .data import (Dataset, Partition, dumps_libsvm, load_dataset,
                   parse_libsvm, partition, save_dataset, synth_artificial)
from .harness import (Budget, CommLedger, RunOptions, Trace, bits_to_reach,
                      run_experiment, verify_replicas)
from .linalg import solve_spd, sym_eig
from .methods import (Oracles, newton_step, ns_step, mn_step, reference_optimum,
                      solve_cubic_model)
from .problem import LossModel, Problem, loss_model, make_problem

__all__ = [
    "Budget", "CommLedger", "CompressorSpec", "Dataset", "LossModel",
    "Oracles", "Partition", "Problem", "RunOptions", "Trace", "bernoulli",
    "bit_cost", "bits_to_reach", "compress", "compress_with_info", "dithering",
    "dumps_libsvm", "identity", "load_dataset", "loss_model", "make_problem",
    "mn_step", "natural", "newton_step", "ns_step", "omega", "parse_libsvm",
    "partition", "random_r", "reference_optimum", "run_experiment",
    "save_dataset", "solve_cubic_model", "solve_spd", "sym_eig",
    "synth_artificial", "verify_replicas",
]

__version__ = "0.1.0"
