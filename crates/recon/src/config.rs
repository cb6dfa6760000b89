//! Reconciliation configuration and algorithm variants.

/// The ablation variants evaluated by the paper (and by experiments E3/E4).
/// Each adds one mechanism on top of the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Attribute similarity only: merge candidate pairs whose attribute
    /// score clears the threshold. Clusters are the transitive closure of
    /// those decisions (union-find) — the traditional record-linkage
    /// baseline.
    AttrOnly,
    /// Attribute similarity plus *static* association evidence: a pair's
    /// score is boosted by the attribute similarity of its associated
    /// neighbour pairs, computed once (no propagation of decisions).
    Context,
    /// Dependency-graph propagation: merge decisions re-activate neighbour
    /// pairs, whose association evidence now reflects the merge, until a
    /// fixed point. No attribute pooling.
    Propagation,
    /// Propagation plus *reference enrichment*: merged references pool
    /// their attribute values, so attribute scores are recomputed over the
    /// clusters' combined knowledge. The complete SEMEX algorithm.
    Full,
}

impl Variant {
    /// All variants in ascending order of machinery.
    pub const ALL: [Variant; 4] = [
        Variant::AttrOnly,
        Variant::Context,
        Variant::Propagation,
        Variant::Full,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Variant::AttrOnly => "attr-only",
            Variant::Context => "context",
            Variant::Propagation => "propagation",
            Variant::Full => "full",
        }
    }

    /// Whether the variant uses association evidence at all.
    pub fn uses_context(self) -> bool {
        !matches!(self, Variant::AttrOnly)
    }

    /// Whether merge decisions propagate through the dependency graph.
    pub fn propagates(self) -> bool {
        matches!(self, Variant::Propagation | Variant::Full)
    }

    /// Whether merged references pool attributes.
    pub fn enriches(self) -> bool {
        matches!(self, Variant::Full)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunables of the reconciliation engine. The defaults are calibrated on
/// the synthetic personal corpus and follow the paper's qualitative choices
/// (high merge threshold, moderate evidence weight).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconConfig {
    /// Combined score at or above which a candidate pair merges.
    pub threshold: f64,
    /// How strongly association evidence can lift a pair's score:
    /// `combined = attr + evidence_weight * evidence * (1 - attr)`.
    pub evidence_weight: f64,
    /// Neighbour-list cap when computing association evidence and
    /// propagating decisions (bounds worst-case fan-out).
    pub max_fanout: usize,
    /// Thread budget for the first scoring pass over the candidate pairs
    /// (the propagation worklist itself is sequential); 1 = sequential.
    /// Any value produces byte-identical clusters and merges. Defaults to
    /// the machine's available parallelism.
    pub threads: usize,
    /// User feedback (the demo's merge-correction affordance): pairs the
    /// user asserted to denote the same entity. Seeded into the clustering
    /// before any scoring, so their evidence propagates.
    pub must_link: Vec<(semex_store::ObjectId, semex_store::ObjectId)>,
    /// Pairs the user asserted to be different entities. No merge —
    /// direct or transitive — may ever join them.
    pub cannot_link: Vec<(semex_store::ObjectId, semex_store::ObjectId)>,
}

impl Default for ReconConfig {
    fn default() -> Self {
        ReconConfig {
            threshold: 0.82,
            evidence_weight: 0.45,
            max_fanout: 64,
            threads: default_threads(),
            must_link: Vec::new(),
            cannot_link: Vec::new(),
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

impl ReconConfig {
    /// Sequential configuration (deterministic timing, used by benches).
    pub fn sequential() -> Self {
        ReconConfig {
            threads: 1,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_ladder() {
        assert!(!Variant::AttrOnly.uses_context());
        assert!(Variant::Context.uses_context());
        assert!(!Variant::Context.propagates());
        assert!(Variant::Propagation.propagates());
        assert!(!Variant::Propagation.enriches());
        assert!(Variant::Full.enriches());
        assert_eq!(Variant::Full.to_string(), "full");
        assert_eq!(Variant::ALL.len(), 4);
    }

    #[test]
    fn defaults_sane() {
        let c = ReconConfig::default();
        assert!(c.threshold > 0.5 && c.threshold < 1.0);
        assert!(c.evidence_weight > 0.0 && c.evidence_weight < 1.0);
        assert!(c.threads >= 1, "available_parallelism is at least one");
        assert_eq!(ReconConfig::sequential().threads, 1);
    }
}
