//! The storage-layer probe: a benchmark-owned [`Persistence`] wrapper
//! over [`OnDiskDevice`]. It counts calls and bytes on every run and
//! records `store.*` spans only when the tracer is on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hc_store::{OnDiskDevice, Persistence};

use crate::trace::Tracer;

/// Call and byte counters of one [`ProbedDevice`].
#[derive(Debug, Default)]
pub struct StoreCounters {
    append_calls: AtomicU64,
    append_bytes: AtomicU64,
    sync_calls: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    truncate_calls: AtomicU64,
}

/// A point-in-time copy of [`StoreCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `append` calls.
    pub append_calls: u64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// `sync` calls.
    pub sync_calls: u64,
    /// `read` calls.
    pub read_calls: u64,
    /// Bytes returned by `read`.
    pub read_bytes: u64,
    /// `truncate` calls.
    pub truncate_calls: u64,
}

impl StoreCounters {
    /// Current values.
    pub fn counts(&self) -> StoreCounts {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StoreCounts {
            append_calls: get(&self.append_calls),
            append_bytes: get(&self.append_bytes),
            sync_calls: get(&self.sync_calls),
            read_calls: get(&self.read_calls),
            read_bytes: get(&self.read_bytes),
            truncate_calls: get(&self.truncate_calls),
        }
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// [`OnDiskDevice`] with counters and optional spans.
pub struct ProbedDevice {
    inner: OnDiskDevice,
    counters: Arc<StoreCounters>,
    tracer: Arc<Tracer>,
}

impl ProbedDevice {
    /// Opens an on-disk device at `root`, counting into `counters`.
    pub fn new(
        root: impl Into<PathBuf>,
        counters: Arc<StoreCounters>,
        tracer: Arc<Tracer>,
    ) -> Self {
        ProbedDevice {
            inner: OnDiskDevice::new(root),
            counters,
            tracer,
        }
    }
}

impl Persistence for ProbedDevice {
    fn read(&self, stream: &str) -> Vec<u8> {
        let bytes = self.tracer.time("store.read", || self.inner.read(stream));
        bump(&self.counters.read_calls, 1);
        bump(&self.counters.read_bytes, bytes.len() as u64);
        bytes
    }

    fn append(&self, stream: &str, bytes: &[u8]) {
        self.tracer
            .time("store.append", || self.inner.append(stream, bytes));
        bump(&self.counters.append_calls, 1);
        bump(&self.counters.append_bytes, bytes.len() as u64);
    }

    fn truncate(&self, stream: &str, len: u64) {
        self.tracer
            .time("store.truncate", || self.inner.truncate(stream, len));
        bump(&self.counters.truncate_calls, 1);
    }

    fn len(&self, stream: &str) -> u64 {
        self.inner.len(stream)
    }

    fn sync(&self, stream: &str) {
        self.tracer.time("store.sync", || self.inner.sync(stream));
        bump(&self.counters.sync_calls, 1);
    }

    fn streams(&self) -> Vec<String> {
        self.inner.streams()
    }

    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
}
