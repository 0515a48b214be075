"""The eight Table-1 workload models (scaled down, architecturally faithful)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    "resnet": ["ResNet", "BasicBlock", "Bottleneck", "resnet18_mini", "resnet50_mini"],
    "shufflenet": ["ShuffleNetV2", "channel_shuffle", "shufflenet_v2_mini"],
    "vgg": ["VGG", "vgg19_mini"],
    "yolo": ["YOLOv3Mini", "yolov3_mini"],
    "neumf": ["NeuMF", "neumf_mini"],
    "transformer": ["BertMini", "ElectraMini", "SwinMini", "bert_mini", "electra_mini", "swin_mini"],
    "registry": ["WORKLOADS", "TABLE1", "WorkloadSpec", "get_workload"],
})
