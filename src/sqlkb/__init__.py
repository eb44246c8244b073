"""Knowledge-base construction, dense retrieval, and evaluation for LLM text-to-SQL."""

# First, so that modules imported below can read it.
__version__ = "0.1.0"

from .dataset import (
    Dataset,
    DatabaseSchema,
    ExampleTriplet,
    Query,
    load_dataset,
    load_schema,
    render_schema,
)
from .knowledge_base import (
    KbBuildConfig,
    KnowledgeBase,
    KnowledgeEntry,
    expand_kb,
    init_kb,
    kb_stats,
    load_kb,
    save_kb,
    select_examples,
)
from .llm import CallLedger, LlmClient, LlmConfig
from .pipeline import (
    PipelineConfig,
    build_knowledge_prompt,
    build_sql_prompt,
    generate_sql,
    refine_knowledge,
    run_pipeline,
)
from .retriever import (
    EmbeddingProvider,
    KnowledgeIndex,
    ProjectionHead,
    StoredIndex,
    TrainingPair,
    build_index,
    embed,
    eval_retrieval,
    info_nce_loss,
    load_or_build_index,
    retrieve,
    retrieve_many,
    train_head,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    ExecutionResult,
    compute_ex,
    compute_ves,
    evaluate_run,
    execute_sql,
    execution_match,
    kb_coverage,
    knowledge_exact_match,
    knowledge_semantic_similarity,
)
