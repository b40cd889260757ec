import types

import bitsiege as bs

# What the pipeline, the CLI and the benchmark use; helpers only tests called are not exported.
PUBLIC = {
    "Architecture", "AttackTrace", "Conv2D", "Dataset", "Dense", "FL2R", "Flatten", "FlipRecord",
    "FloatModel", "GradientBaseline", "MaxPool", "ModelFormatError", "PartialModel", "QuantModel",
    "QuantParams", "RandomBits", "ReLU", "ReconstructionMethod", "SynthSpec", "TrainConfig",
    "TrainingDiverged", "accuracy", "accuracy_quant", "apply_flips", "compute_scale", "dequantize",
    "dequantize_model", "desk_architecture", "evaluate_flips", "flip_bit", "forward_batch",
    "gen_synthetic", "gradient", "load_dataset", "load_model", "load_qmodel", "load_trace",
    "oracle_min_abs", "quantize", "quantize_model", "reconstruct_code", "reconstruct_model",
    "run_attack", "save_dataset", "save_model", "save_qmodel", "save_trace",
    "select_gradient_bits", "select_random_bits", "select_vulnerable_bits", "simulate_recovery",
    "train",
}


def test_exported_names():
    exported = {n for n, v in vars(bs).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PUBLIC
