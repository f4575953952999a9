"""geoforge: a deterministic, formally verified generator of multimodal
plane-geometry problems with graded difficulty and verified solution paths."""

from .constructions import (
    BASE_GENERATORS,
    CONSTRUCTIONS,
    Scene,
    applicable_constructions,
    extend_scene,
    generate_base_scene,
    scene_from_doc,
)
from .dataset import scene_id_of
from .geometry import SceneGeometry
from .pipeline import (
    PipelineConfig,
    bootstrap,
    build_record,
    check_answer,
    curate_testset,
    generate,
    stats,
    verify,
)
from .reasoner import Budget, ReasoningGraph, SolutionStep, Transition, saturate
from .render import render_svg
from .rules import DEFAULT_RULES, RULES_BY_ID, Rule
from .sampler import (
    ReasoningPath,
    Rejected,
    TracebackRecord,
    formulate_problem,
    geo_explore,
    geo_explore_m,
    geo_explore_t,
    tier_of,
)
from .statements import (
    Predicate,
    Statement,
    canonicalize,
    parse_statement,
    serialize_statement,
)
from .translate import (
    ExternalBackend,
    TemplateBackend,
    connect_thinking,
    statement_nl,
    translate_steps,
)

__version__ = "0.1.0"
