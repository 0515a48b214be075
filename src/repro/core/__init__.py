"""EasyScale core: ESTs, determinism levels, ElasticDDP, engine, checkpoints."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "checkpoint": ["Checkpoint", "CheckpointCorruptError"],
    "determinism": [
        "DeterminismConfig", "ScanReport", "scan_model", "allowed_gpu_heterogeneity",
        "determinism_from_label",
    ],
    "elastic_ddp": ["ElasticDDP"],
    "engine": ["EasyScaleEngine", "EasyScaleJobConfig", "WorkerAssignment"],
    "est": ["EasyScaleThread", "ESTContext", "est_rng"],
    "worker": ["EasyScaleWorker", "LocalStepResult"],
    "porting": ["PortedTrainingSession"],
    "selftest": ["SelfTestReport", "run_selftest"],
})
