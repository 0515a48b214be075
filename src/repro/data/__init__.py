"""Datasets, samplers, and elastic data loading."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "datasets": [
        "Dataset", "SyntheticImageDataset", "SyntheticDetectionDataset",
        "SyntheticRatingsDataset", "SyntheticQADataset", "build_dataset", "Subset",
        "train_eval_split",
    ],
    "sampler": ["DistributedSampler", "BatchPlan"],
    "dataloader": [
        "SharedDataLoader", "DataWorker", "QueuingBuffer", "LoaderTiming", "batch_rng_state",
    ],
    "transforms": [
        "compose", "default_image_augmentation", "gaussian_noise", "random_crop",
        "random_horizontal_flip",
    ],
})
