//! In-memory span recorder and the self-time attribution built on it.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the program's public API and inside the benchmark-owned storage
//! wrapper ([`crate::store_probe::ProbedDevice`]). Nothing inside the
//! program is instrumented. When tracing is off, [`Tracer::time`] is a
//! plain call and nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small, stable id of the calling thread (ids are handed out on first
/// use, so the benchmark thread that creates the tracer gets the lowest).
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`).
///
/// # Panics
///
/// Panics if the clock cannot be read.
#[allow(unsafe_code)]
pub fn process_cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `core.submit` or `store.append`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Recording thread (see [`thread_id`]).
    pub thread: u32,
    /// Index of the enclosing top-level span, filled by [`attribute`].
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from every thread of one workload iteration.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns,
            end_ns: self.now_ns(),
            thread: thread_id(),
            parent: None,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Runs `f`, recording it as a span named `name` when tracing is on.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        self.record(name, start);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Per-name totals over the spans of one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub busy_ns: u64,
    /// Summed durations minus the time child spans cover (top-level
    /// spans inside the measured phase only).
    pub phase_self_ns: u64,
}

/// Self-time attribution of one traced iteration.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Phase time covered by storage spans nested in top-level spans.
    pub phase_store_ns: u64,
    /// Phase wall time not covered by any top-level span.
    pub phase_other_ns: u64,
    /// Storage spans that no top-level span contains.
    pub orphans: u64,
    /// Self time of the `core.recover` span (storage time excluded).
    pub recover_self_ns: u64,
    /// Per-call durations of `core.submit` spans in the phase.
    pub submit_ns: Vec<u64>,
    /// Per-call durations of `core.step_wave` spans in the phase.
    pub wave_ns: Vec<u64>,
}

impl Attribution {
    /// Every phase self time (storage included) plus the unattributed
    /// remainder, in nanoseconds: the phase wall time, by construction.
    pub fn closure_ns(&self) -> u64 {
        self.by_name.values().map(|t| t.phase_self_ns).sum::<u64>()
            + self.phase_store_ns
            + self.phase_other_ns
    }
}

/// Whether `name` is a storage span (a child, never top level).
fn is_store(name: &str) -> bool {
    name.starts_with("store.")
}

/// Parents every storage span to the top-level span that contains it in
/// time — wave worker threads included — and splits each top-level span
/// into its self time and the union of the intervals its children cover.
/// `phase` is the measured window in tracer nanoseconds.
pub fn attribute(spans: &mut [Span], phase: (u64, u64)) -> Attribution {
    let mut top: Vec<usize> = (0..spans.len())
        .filter(|&i| !is_store(spans[i].name))
        .collect();
    top.sort_by_key(|&i| spans[i].start_ns);
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut out = Attribution::default();
    for i in 0..spans.len() {
        if !is_store(spans[i].name) {
            continue;
        }
        let (s, e) = (spans[i].start_ns, spans[i].end_ns);
        let pos = top.partition_point(|&t| spans[t].start_ns <= s);
        let parent = pos
            .checked_sub(1)
            .map(|p| top[p])
            .filter(|&t| spans[t].end_ns >= e);
        spans[i].parent = parent;
        match parent {
            Some(t) => children.entry(t).or_default().push((s, e)),
            None => out.orphans += 1,
        }
    }
    let mut phase_top_ns = 0u64;
    for (i, span) in spans.iter().enumerate() {
        let totals = out.by_name.entry(span.name).or_default();
        totals.calls += 1;
        totals.busy_ns += span.dur_ns();
        if is_store(span.name) {
            continue;
        }
        let covered = children.get(&i).map_or(0, |c| union_ns(c));
        let self_ns = span.dur_ns() - covered.min(span.dur_ns());
        if span.name == "core.recover" {
            out.recover_self_ns += self_ns;
        }
        if span.start_ns >= phase.0 && span.end_ns <= phase.1 {
            totals.phase_self_ns += self_ns;
            out.phase_store_ns += span.dur_ns() - self_ns;
            phase_top_ns += span.dur_ns();
            match span.name {
                "core.submit" => out.submit_ns.push(span.dur_ns()),
                "core.step_wave" => out.wave_ns.push(span.dur_ns()),
                _ => {}
            }
        }
    }
    out.phase_other_ns = (phase.1 - phase.0).saturating_sub(phase_top_ns);
    out
}

/// Total length of the union of `intervals`.
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Writes `spans` as tab-separated lines: index, name, start, end,
/// parent (`-` for none), thread, workload.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tthread\tworkload")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{workload}",
            s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, thread: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            thread,
            parent: None,
        }
    }

    #[test]
    fn self_times_and_other_close_the_phase() {
        let mut spans = vec![
            span("core.submit", 10, 20, 0),
            span("core.step_wave", 30, 80, 0),
            // Two overlapping worker-thread appends inside the wave.
            span("store.append", 40, 50, 1),
            span("store.append", 45, 60, 2),
            span("store.sync", 90, 95, 0),
        ];
        let a = attribute(&mut spans, (0, 100));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(a.orphans, 1);
        assert_eq!(a.by_name["core.step_wave"].phase_self_ns, 30);
        assert_eq!(a.phase_store_ns, 20);
        assert_eq!(a.phase_other_ns, 40);
        assert_eq!(a.closure_ns(), 100);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }
}
