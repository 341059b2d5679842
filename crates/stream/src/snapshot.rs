//! Double-buffered, versioned partition snapshots.
//!
//! The serving path of a production deployment answers one question at very
//! high rate: *which partition does segment `s` belong to right now?* That
//! lookup must stay O(1) and must never block behind a repartition that is
//! minutes deep into an eigensolve. The store here gets both properties from
//! a classic read-copy-update shape:
//!
//! * readers grab an [`Arc`] clone of the current [`PartitionSnapshot`]
//!   under a read lock held for nanoseconds, then index into it freely —
//!   a snapshot is immutable, so a reader can hold it across an entire
//!   request without seeing a partial update;
//! * the writer (the epoch loop) builds the *next* snapshot entirely
//!   off-lock and swaps the `Arc` in one short write-lock critical section.
//!
//! Versions are strictly monotonic and survive no-op epochs unchanged, so a
//! consumer can cheaply detect "partition changed since I last looked".

// Under `--cfg loom` the store is built on the model checker's sync types
// so `tests/loom_snapshot.rs` can explore publish/read interleavings; the
// loom stub's `Arc` is a re-export of `std::sync::Arc`, so the public
// `read() -> Arc<PartitionSnapshot>` signature is identical either way.
#[cfg(loom)]
use loom::sync::{
    atomic::{AtomicU64, Ordering},
    Arc, RwLock,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc, RwLock,
};

/// One immutable, fully consistent partition of the road network.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot {
    labels: Vec<usize>,
    /// Strictly increasing across publishes; `1` for the initial partition.
    pub version: u64,
    /// The engine epoch that produced this snapshot (`0` = initial).
    pub epoch: u64,
    /// Number of partitions in `labels`.
    pub k: usize,
}

impl PartitionSnapshot {
    fn new(labels: Vec<usize>, version: u64, epoch: u64) -> Self {
        let k = labels.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            labels,
            version,
            epoch,
            k,
        }
    }

    /// Partition of segment `seg`, or `None` when the index is out of
    /// range. O(1).
    #[inline]
    pub fn lookup(&self, seg: usize) -> Option<usize> {
        self.labels.get(seg).copied()
    }

    /// The full labeling (one partition id per segment).
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of segments covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True for an empty network.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Concurrent store holding the live [`PartitionSnapshot`]. Cheap to share
/// (`Arc<PartitionStore>`); see the module docs for the consistency model.
#[derive(Debug)]
pub struct PartitionStore {
    current: RwLock<Arc<PartitionSnapshot>>,
    version: AtomicU64,
}

impl PartitionStore {
    /// Creates a store serving `labels` as version 1 / epoch `epoch`.
    pub fn new(labels: Vec<usize>, epoch: u64) -> Self {
        let snap = Arc::new(PartitionSnapshot::new(labels, 1, epoch));
        Self {
            current: RwLock::new(snap),
            version: AtomicU64::new(1),
        }
    }

    /// The live snapshot. O(1): one `Arc` clone under a momentary read
    /// lock. The returned snapshot stays valid (and immutable) however long
    /// the caller holds it, regardless of concurrent publishes.
    pub fn read(&self) -> Arc<PartitionSnapshot> {
        // Poison recovery is sound here: the only mutation ever performed
        // under the lock is a single `Arc` pointer swap, so a panicking
        // writer cannot leave a torn snapshot behind.
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Current version without taking the snapshot (monotonic).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The live snapshot only if it is newer than version `than`, else
    /// `None`. The cheap path for epoch-swap followers (the serving
    /// layer's oracle rebuilds): a stale-or-equal store costs one atomic
    /// load and no lock. The version check is re-applied to the snapshot
    /// actually read, so a `Some` result is never stale-or-equal even
    /// when publishes race the read.
    pub fn read_if_newer(&self, than: u64) -> Option<Arc<PartitionSnapshot>> {
        if self.version.load(Ordering::Acquire) <= than {
            return None;
        }
        let snap = self.read();
        (snap.version > than).then_some(snap)
    }

    /// Publishes a new labeling produced at `epoch`, returning its version.
    /// The snapshot is constructed before the write lock is taken; readers
    /// block only for the pointer swap.
    pub fn publish(&self, labels: Vec<usize>, epoch: u64) -> u64 {
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        let snap = Arc::new(PartitionSnapshot::new(labels, version, epoch));
        match self.current.write() {
            Ok(mut guard) => *guard = snap,
            // See `read`: the swap is atomic with respect to readers, so a
            // poisoned lock still guards a fully consistent snapshot.
            Err(poisoned) => *poisoned.into_inner() = snap,
        }
        version
    }
}

// Plain std-thread tests; the loom interleaving suite lives in
// `tests/loom_snapshot.rs` and runs under `RUSTFLAGS="--cfg loom"`.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn lookup_and_metadata() {
        let store = PartitionStore::new(vec![0, 0, 1, 2], 0);
        let snap = store.read();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.k, 3);
        assert_eq!(snap.lookup(2), Some(1));
        assert_eq!(snap.lookup(4), None);
    }

    #[test]
    fn publish_bumps_version_and_preserves_old_readers() {
        let store = PartitionStore::new(vec![0, 1], 0);
        let old = store.read();
        let v2 = store.publish(vec![1, 0], 1);
        assert_eq!(v2, 2);
        assert_eq!(store.version(), 2);
        // The pre-publish snapshot is untouched.
        assert_eq!(old.version, 1);
        assert_eq!(old.lookup(0), Some(0));
        let new = store.read();
        assert_eq!(new.version, 2);
        assert_eq!(new.epoch, 1);
    }

    #[test]
    fn read_if_newer_filters_stale_versions() {
        let store = PartitionStore::new(vec![0, 1], 0);
        assert!(store.read_if_newer(1).is_none(), "equal version is stale");
        assert!(store.read_if_newer(7).is_none());
        let snap = store.read_if_newer(0).expect("version 1 > 0");
        assert_eq!(snap.version, 1);
        store.publish(vec![1, 0], 3);
        let snap = store.read_if_newer(1).expect("version 2 > 1");
        assert_eq!(snap.version, 2);
        assert_eq!(snap.epoch, 3);
        assert!(store.read_if_newer(2).is_none());
    }

    #[test]
    fn concurrent_readers_always_see_complete_partitions() {
        let store = Arc::new(PartitionStore::new(vec![0; 64], 0));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last_version = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = store.read();
                        assert_eq!(snap.len(), 64, "snapshot must be complete");
                        // All labels of one snapshot come from one publish.
                        let first = snap.lookup(0).unwrap();
                        assert!(snap.labels().iter().all(|&l| l == first));
                        assert!(snap.version >= last_version, "versions monotonic");
                        last_version = snap.version;
                    }
                })
            })
            .collect();
        for e in 1..200u64 {
            store.publish(vec![e as usize % 7; 64], e);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.version(), 200);
    }
}
