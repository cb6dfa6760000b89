#![warn(missing_docs)]

//! SEMEX **reference reconciliation** — the system's core technical
//! contribution (Dong, Halevy & Madhavan, SIGMOD 2005).
//!
//! Extraction produces many *references* to each real-world entity: the same
//! person appears as `"Michael J. Carey"`, `"Carey, M."` and
//! `mcarey@ibm.com`; the same paper under truncated and typo'd titles.
//! Reconciliation decides which references denote the same entity and merges
//! them, turning the reference soup into a clean object graph.
//!
//! The algorithm follows the paper:
//!
//! 1. **Blocking** ([`blocking`]) — cheap candidate keys (name Soundex,
//!    e-mail local parts, rare title tokens) bound the pair space.
//! 2. **Attribute similarity** ([`score`]) — per-class comparators over the
//!    references' attribute values.
//! 3. **Dependency graph & propagation** ([`reconcile`]) — the similarity of
//!    two references depends on the similarity of their *associated*
//!    references (the authors of two papers, the venue of two papers, the
//!    publications of two people). Merge decisions propagate through this
//!    graph via a worklist until a fixed point.
//! 4. **Reference enrichment** — merged references pool their attribute
//!    values, enabling matches impossible for either reference alone
//!    (`"M. Carey" + mcarey@ibm.com` merges with `"Michael Carey"` only
//!    after one of them acquires the e-mail).
//!
//! Ablation [`Variant`]s keep the interface constant so the evaluation can
//! compare like with like, exactly as the paper's experiment section does:
//! [`Variant::AttrOnly`], [`Variant::Context`], [`Variant::Propagation`]
//! and [`Variant::Full`].
//!
//! ```
//! use semex_extract::{bibtex::extract_bibtex, ExtractContext};
//! use semex_recon::{reconcile, ReconConfig, Variant};
//! use semex_store::{SourceInfo, SourceKind, Store};
//!
//! let mut store = Store::with_builtin_model();
//! let src = store.register_source(SourceInfo::new("bib", SourceKind::Bibliography));
//! let mut ctx = ExtractContext::new(&mut store, src);
//! extract_bibtex(
//!     "@inproceedings{a, title={One Topic}, author={Michael Carey}, booktitle={V}, year=2004}\n\
//!      @inproceedings{b, title={Other Topic}, author={Michael J. Carey}, booktitle={V}, year=2005}",
//!     &mut ctx,
//! ).unwrap();
//! let person = store.model().class("Person").unwrap();
//! assert_eq!(store.class_count(person), 2);
//!
//! let report = reconcile(&mut store, Variant::Full, &ReconConfig::sequential());
//! assert_eq!(report.merges, 1);
//! assert_eq!(store.class_count(person), 1);
//! ```

//! The propagation fixed point is one worklist over the whole reference
//! graph, with a pooled-score memo that skips rescoring clusters that have
//! not changed since a candidate was last evaluated. When a pooled person
//! score is computed, a run-scoped memo over interned names and e-mails
//! answers every comparator pair it has seen before, so each distinct pair
//! is compared once per run. The first scoring pass over the blocked
//! candidate pairs is the parallel phase: it runs on
//! [`ReconConfig::threads`] workers, and any thread count produces
//! byte-identical clusters and merges.
//!
//! Incremental runs ([`reconcile_incremental_with`]) block the new
//! references against a persistent [`BlockingIndex`] and reconcile over a
//! local reference table of the candidates and their evidence neighbours,
//! indexed in the global reference order, so they merge exactly as a run
//! over the full table would, at a cost that follows the new references.

pub mod blocking;
mod config;
mod engine;
pub mod eval;
mod memo;
mod refs;
pub mod score;
mod union_find;
mod worklist;

pub use blocking::BlockingIndex;
pub use config::{ReconConfig, Variant};
pub use engine::{
    reconcile, reconcile_incremental, reconcile_incremental_with, ReconPhases, ReconReport,
};
pub use eval::{pair_metrics, Metrics};
pub use refs::{RefEntry, RefKind, RefTable};
pub use union_find::UnionFind;
