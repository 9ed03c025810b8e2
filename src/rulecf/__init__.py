"""Rule-based explanations for black-box tabular classifiers.

A counterfactual search engine doubles as a consistency oracle: a candidate
rule whose box admits no good-outcome instance is globally consistent, and
when counterfactuals do exist, the components they violate tell the search
exactly how the rule must grow.
"""

from .cf_engine import (
    CfBudget,
    CfQuery,
    CfResult,
    Counterfactual,
    CounterfactualEngine,
    GoodAnchorError,
    distance,
    reduce_changes,
)
from .classifiers import (
    Classifier,
    ModelFormatError,
    NetClassifier,
    RuleClassifier,
    TreeClassifier,
    is_bad_score,
    load_model,
    parse_model,
)
from .consistency import (
    BruteForceOutcome,
    ConsistencyLevel,
    Level,
    brute_force_global_consistent,
)
from .dataio import IngestError, export_csv, format_rule, ingest_csv, load_rule_file
from .duality import (
    CfOutcome,
    CounterfactualOracle,
    cf_rules,
    dual_of,
    minimal_set_covers,
)
from .explainers import (
    ExplanationResult,
    ScoredRule,
    SearchParams,
    consistency_level,
    crossover,
    fitness,
    genetic_rule,
    genetic_rule_cf,
    greedy_rule_cf,
    mutate,
    rank_key,
    reduce_redundancy,
)
from .harness import (
    ALGORITHMS,
    ExperimentReport,
    MinimalRuleResult,
    RealCategory,
    SyntheticCategory,
    SyntheticSpec,
    categorize_real,
    categorize_synthetic,
    default_experiment_schema,
    gen_synthetic_classifier,
    minimal_rule_search,
    run_synthetic_experiment,
    synthetic_dataset,
)
from .schema import (
    Dataset,
    DatasetSchema,
    Direction,
    FeatureSchema,
    Instance,
    Rule,
    RuleComponent,
    SchemaError,
    all_components,
    geq,
    leq,
    make_schema,
    trivial_rule,
)

__version__ = "0.1.0"
