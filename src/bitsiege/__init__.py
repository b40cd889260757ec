"""Desk-scale simulator for semi-black-box bit-flip attacks on quantized networks."""

from .model import (Architecture, Conv2D, Dataset, Dense, Flatten, FloatModel, MaxPool,
                    ModelFormatError, ReLU, accuracy, forward_batch, load_dataset, load_model,
                    save_dataset, save_model)
from .quantize import (QuantModel, QuantParams, accuracy_quant, compute_scale, dequantize,
                       dequantize_model, flip_bit, load_qmodel, quantize, quantize_model,
                       save_qmodel)
from .recovery import PartialModel, simulate_recovery
from .reconstruct import ReconstructionMethod, oracle_min_abs, reconstruct_code, \
    reconstruct_model
from .attack import (AttackTrace, FL2R, FlipRecord, GradientBaseline, RandomBits, apply_flips,
                     evaluate_flips, load_trace, run_attack, save_trace, select_gradient_bits,
                     select_random_bits, select_vulnerable_bits)
from .synth import (SynthSpec, TrainConfig, TrainingDiverged, desk_architecture, gen_synthetic,
                    gradient, train)
