//! The epoch snapshot engine: reads run against immutable published
//! snapshots, never against the live master.
//!
//! The servicing writer is the only publisher. After applying a write batch
//! it clones the master's state into a [`Snapshot`](semex_core::Snapshot),
//! tags it with the next epoch number, and swaps it in behind an `Arc`.
//! Reader threads grab the current `Arc` under a briefly-held read lock and
//! then query entirely lock-free: a reader holding epoch N keeps a
//! consistent view of the whole platform (store *and* index) no matter how
//! many batches publish behind it, and two reads through the same grabbed
//! `Arc` can never observe different states — there is no torn epoch.
//!
//! Epochs are **event-sequence numbers**: each publication advances the
//! epoch by the number of store events the batch committed, so on a
//! journal-backed tenant the epoch always equals the journal's durable
//! sequence. That makes epochs survive eviction — a tenant recovered from
//! its journal reboots at exactly the epoch it was evicted at (see
//! [`SnapshotEngine::with_epoch`]), which is what lets the
//! eviction-equivalence suite demand byte-identical *epochs*, not just
//! results.

use semex_core::Snapshot;
use std::sync::{Arc, RwLock};

/// One published state: a consistent, immutable store+index pair tagged
/// with the epoch counter that identifies it on the wire.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Monotonic publication number (the boot state carries the durable
    /// event sequence recovered from the journal; 0 for a fresh space).
    pub epoch: u64,
    /// The state itself.
    pub snap: Snapshot,
}

/// Publishes [`EpochSnapshot`]s by atomic `Arc` swap.
///
/// `load` is wait-free in spirit: the read lock is held only for the
/// duration of an `Arc::clone`, so readers never wait on query work and the
/// writer never waits on readers (old epochs are freed by the last reader
/// dropping them).
#[derive(Debug)]
pub struct SnapshotEngine {
    current: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotEngine {
    /// Boot the engine with the initial state as epoch 0.
    pub fn new(initial: Snapshot) -> SnapshotEngine {
        SnapshotEngine::with_epoch(initial, 0)
    }

    /// Boot the engine at an explicit epoch — the tenant activation path
    /// seeds it with the journal's recovered event sequence so epochs are
    /// continuous across evict/reactivate cycles.
    pub fn with_epoch(initial: Snapshot, epoch: u64) -> SnapshotEngine {
        SnapshotEngine {
            current: RwLock::new(Arc::new(EpochSnapshot {
                epoch,
                snap: initial,
            })),
        }
    }

    /// The current snapshot. Cheap; call once per request and do all of the
    /// request's reads against the returned `Arc`.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("snapshot lock poisoned").epoch
    }

    /// Swap in a new state one epoch ahead, returning the new epoch.
    /// In-flight readers keep their old epoch alive until they drop it.
    pub fn publish(&self, snap: Snapshot) -> u64 {
        self.publish_advance(snap, 1)
    }

    /// Swap in a new state, advancing the epoch by `by` (the number of
    /// events the batch committed). `by == 0` republishes under the same
    /// epoch — legal only when the state did not change (zero events means
    /// zero store mutations), so readers still never see two states under
    /// one epoch.
    ///
    /// The replaced snapshot is dropped after the write lock is released:
    /// when no reader holds it, dropping it frees a whole store and index,
    /// and readers' [`SnapshotEngine::load`] calls must not wait on that.
    pub fn publish_advance(&self, snap: Snapshot, by: u64) -> u64 {
        let (epoch, replaced) = self.publish_replacing(snap, by);
        drop(replaced);
        epoch
    }

    /// [`SnapshotEngine::publish_advance`], but the replaced snapshot is
    /// handed back instead of dropped, so the caller chooses when the
    /// (possibly last) reference goes. The servicing writer holds it until
    /// its acks are sent: freeing a whole store and index is not on any
    /// client's critical path.
    pub fn publish_replacing(&self, snap: Snapshot, by: u64) -> (u64, Arc<EpochSnapshot>) {
        let mut current = self.current.write().expect("snapshot lock poisoned");
        let epoch = current.epoch + by;
        let next = Arc::new(EpochSnapshot { epoch, snap });
        (epoch, std::mem::replace(&mut *current, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_core::SemexBuilder;

    #[test]
    fn epochs_are_monotonic_and_isolated() {
        let semex = SemexBuilder::new()
            .add_mbox("inbox", "From: a@b.c\nSubject: first\n\nhello")
            .build()
            .unwrap();
        let engine = SnapshotEngine::new(semex.snapshot());
        assert_eq!(engine.epoch(), 0);
        let held = engine.load();
        assert_eq!(engine.publish(semex.snapshot()), 1);
        assert_eq!(engine.publish(semex.snapshot()), 2);
        // The reader that grabbed epoch 0 still sees epoch 0.
        assert_eq!(held.epoch, 0);
        assert_eq!(engine.load().epoch, 2);
    }

    #[test]
    fn seeded_boot_and_event_count_advance() {
        let semex = SemexBuilder::new()
            .add_mbox("inbox", "From: a@b.c\nSubject: first\n\nhello")
            .build()
            .unwrap();
        let engine = SnapshotEngine::with_epoch(semex.snapshot(), 41);
        assert_eq!(engine.epoch(), 41);
        assert_eq!(engine.publish_advance(semex.snapshot(), 9), 50);
        assert_eq!(engine.publish_advance(semex.snapshot(), 0), 50);
    }

    #[test]
    fn publish_frees_the_replaced_snapshot_unless_a_reader_holds_it() {
        let semex = SemexBuilder::new()
            .add_mbox("inbox", "From: a@b.c\nSubject: first\n\nhello")
            .build()
            .unwrap();
        let engine = SnapshotEngine::new(semex.snapshot());

        // No reader: publishing frees epoch 0.
        let unheld = Arc::downgrade(&engine.load());
        engine.publish(semex.snapshot());
        assert!(unheld.upgrade().is_none(), "epoch 0 outlived its publish");

        // A reader holds epoch 1: it stays alive until the reader drops it.
        let held = engine.load();
        let watch = Arc::downgrade(&held);
        engine.publish(semex.snapshot());
        assert_eq!(watch.upgrade().map(|s| s.epoch), Some(1));
        drop(held);
        assert!(
            watch.upgrade().is_none(),
            "epoch 1 outlived its last reader"
        );

        // `publish_replacing` hands the replaced epoch to the caller: it
        // lives exactly as long as the caller holds it.
        let watch = Arc::downgrade(&engine.load());
        let (epoch, replaced) = engine.publish_replacing(semex.snapshot(), 1);
        assert_eq!((epoch, replaced.epoch), (3, 2));
        assert_eq!(engine.load().epoch, 3);
        assert!(watch.upgrade().is_some(), "the caller still holds epoch 2");
        drop(replaced);
        assert!(watch.upgrade().is_none(), "epoch 2 outlived its caller");
    }
}
