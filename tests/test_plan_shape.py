"""The plan's shape, pinned without its salts.

``repro plan --json`` of the Fig. 7 + Fig. 9 + relaxed Fig. 11 sweep
at the CLI smoke scale, projected onto what does not depend on a code
salt: the stats, each node's ``(kind, label, references, executable,
needed)`` in discovery order, and each merge group's ``(config,
benchmarks)``.  A refactor of the planner must leave this projection
alone; a salt change (which moves every digest) does not touch it.
"""

from repro.cli import _sweep_requests, build_parser
from repro.engine.planner import plan

#: The sweep whose shape is pinned, exactly as ``repro plan`` reads it.
COMMAND = [
    "plan", "compression.fig7", "compression.fig9", "perf.fig11",
    "--engine", "relaxed", "--no-cache", "--scale", "3.0517578125e-05",
]
REQUESTS = _sweep_requests(build_parser().parse_args(COMMAND))

STATS = {
    "experiments": 3,
    "points": 48,
    "predicted_point_hits": 0,
    "shared_nodes": 80,
    "shared_references": 128,
    "deduped_references": 48,
    "predicted_shared_hits": 0,
    "merge_groups": 2,
    "merged_nodes": 32,
    "planned_bulk_calls": 2,
    "unplanned_bulk_calls": 32,
}

#: ``(kind, label, references, executable, needed)`` per node.
NODES = [
    ("profile_tensor", "351.palm [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "351.palm [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "352.ep [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "352.ep [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "354.cg [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "354.cg [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "355.seismic [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "355.seismic [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "356.sp [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "356.sp [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "357.csp [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "357.csp [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "360.ilbdc [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "360.ilbdc [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "370.bt [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "370.bt [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "FF_HPGMG [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "FF_HPGMG [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "FF_Lulesh [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "FF_Lulesh [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "BigLSTM [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "BigLSTM [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "AlexNet [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "AlexNet [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "Inception_V2 [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "Inception_V2 [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "SqueezeNet [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "SqueezeNet [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "VGG16 [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "VGG16 [reference:scale=1/32768]", 2, True, True),
    ("profile_tensor", "ResNet50 [profile:scale=1/32768]", 3, True, True),
    ("profile_tensor", "ResNet50 [reference:scale=1/32768]", 2, True, True),
    ("entry_state", "351.palm dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "351.palm", 1, True, True),
    ("tape", "351.palm tape", 1, True, True),
    ("entry_state", "352.ep dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "352.ep", 1, True, True),
    ("tape", "352.ep tape", 1, True, True),
    ("entry_state", "354.cg dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "354.cg", 1, True, True),
    ("tape", "354.cg tape", 1, True, True),
    ("entry_state", "355.seismic dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "355.seismic", 1, True, True),
    ("tape", "355.seismic tape", 1, True, True),
    ("entry_state", "356.sp dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "356.sp", 1, True, True),
    ("tape", "356.sp tape", 1, True, True),
    ("entry_state", "357.csp dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "357.csp", 1, True, True),
    ("tape", "357.csp tape", 1, True, True),
    ("entry_state", "360.ilbdc dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "360.ilbdc", 1, True, True),
    ("tape", "360.ilbdc tape", 1, True, True),
    ("entry_state", "370.bt dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "370.bt", 1, True, True),
    ("tape", "370.bt tape", 1, True, True),
    ("entry_state", "FF_HPGMG dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "FF_HPGMG", 1, True, True),
    ("tape", "FF_HPGMG tape", 1, True, True),
    ("entry_state", "FF_Lulesh dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "FF_Lulesh", 1, True, True),
    ("tape", "FF_Lulesh tape", 1, True, True),
    ("entry_state", "BigLSTM dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "BigLSTM", 1, True, True),
    ("tape", "BigLSTM tape", 1, True, True),
    ("entry_state", "AlexNet dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "AlexNet", 1, True, True),
    ("tape", "AlexNet tape", 1, True, True),
    ("entry_state", "Inception_V2 dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "Inception_V2", 1, True, True),
    ("tape", "Inception_V2 tape", 1, True, True),
    ("entry_state", "SqueezeNet dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "SqueezeNet", 1, True, True),
    ("tape", "SqueezeNet tape", 1, True, True),
    ("entry_state", "VGG16 dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "VGG16", 1, True, True),
    ("tape", "VGG16 tape", 1, True, True),
    ("entry_state", "ResNet50 dump 5 [reference:scale=1/32768]", 1, True, True),
    ("trace", "ResNet50", 1, True, True),
    ("tape", "ResNet50 tape", 1, True, True),
]

GROUPS = [
    (
        "profile:scale=1/32768",
        [
            "351.palm", "352.ep", "354.cg", "355.seismic", "356.sp", "357.csp",
            "360.ilbdc", "370.bt", "FF_HPGMG", "FF_Lulesh", "BigLSTM", "AlexNet",
            "Inception_V2", "SqueezeNet", "VGG16", "ResNet50",
        ],
    ),
    (
        "reference:scale=1/32768",
        [
            "351.palm", "352.ep", "354.cg", "355.seismic", "356.sp", "357.csp",
            "360.ilbdc", "370.bt", "FF_HPGMG", "FF_Lulesh", "BigLSTM", "AlexNet",
            "Inception_V2", "SqueezeNet", "VGG16", "ResNet50",
        ],
    ),
]


def _projection(doc: dict) -> tuple:
    return (
        doc["stats"],
        [
            (n["kind"], n["label"], n["references"], n["executable"], n["needed"])
            for n in doc["nodes"]
        ],
        [(g["config"], g["benchmarks"]) for g in doc["merge_groups"]],
    )


def test_plan_shape_is_pinned():
    stats, nodes, groups = _projection(plan(REQUESTS).to_json())
    assert stats == STATS
    assert nodes == NODES
    assert groups == GROUPS


def test_every_dependency_is_a_node_of_the_plan():
    sweep_plan = plan(REQUESTS)
    consumed = [
        f"{dep.kind}/{dep.cache_key().digest}"
        for node in sweep_plan.shared.values()
        if node.executable
        for dep in node.spec.deps()
    ]
    # Each relaxed tape consumes one entry state, one profile tensor
    # and one trace; each trace consumes one entry state.
    tapes = [node for node in NODES if node[0] == "tape"]
    traces = [node for node in NODES if node[0] == "trace"]
    assert len(consumed) == 3 * len(tapes) + len(traces)
    assert [dep for dep in consumed if dep not in sweep_plan.shared] == []
