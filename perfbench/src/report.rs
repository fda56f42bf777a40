//! Turns measured iterations into the ledger's named metrics.

use crate::trace::{percentile, Attribution, NameTotals};
use crate::workloads::Iteration;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// End-to-end metrics: the median throughput of the untraced iterations
/// and the median of the `setups` timings. (`peak_rss_mb` is measured by
/// the launcher, which sees the whole process.)
pub fn end_to_end(its: &[&Iteration], setups: &[f64]) -> Vec<Metric> {
    let rates: Vec<f64> = its.iter().map(|i| i.msgs_per_s()).collect();
    vec![
        Metric {
            name: "msgs_per_s",
            value: median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "cpu_us_per_msg",
            value: median(&its.iter().map(|i| i.cpu_us_per_msg()).collect::<Vec<_>>()),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
    ]
}

/// Per-layer metrics of one traced iteration. `trace_overhead` is the
/// share of untraced throughput lost with tracing on.
pub fn per_layer(it: &Iteration, a: &Attribution, trace_overhead: f64) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let name = |n: &str| a.by_name.get(n).copied().unwrap_or(NameTotals::default());
    let count = |k: &str| it.counters.get(k).copied().unwrap_or(0) as f64;
    let (submit, wave, create) = (
        name("core.submit"),
        name("core.step_wave"),
        name("core.create_user"),
    );
    let mut submit_ns = a.submit_ns.clone();
    let mut wave_ns = a.wave_ns.clone();
    let committed = it.committed as f64;
    let chain_blocks = count("chain.blocks");
    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };
    put("core.submit.calls", submit.calls as f64, "count");
    put("core.submit.busy_s", secs(submit.busy_ns), "s");
    put("core.submit.self_s", secs(submit.phase_self_ns), "s");
    put(
        "core.submit.us_p50",
        percentile(&mut submit_ns, 50.0) as f64 / 1e3,
        "us",
    );
    put(
        "core.submit.us_p99",
        percentile(&mut submit_ns, 99.0) as f64 / 1e3,
        "us",
    );
    put("core.submit.refused", it.refused as f64, "count");
    put("core.step_wave.calls", wave.calls as f64, "count");
    put("core.step_wave.busy_s", secs(wave.busy_ns), "s");
    put("core.step_wave.self_s", secs(wave.phase_self_ns), "s");
    put(
        "core.step_wave.ms_p50",
        percentile(&mut wave_ns, 50.0) as f64 / 1e6,
        "ms",
    );
    put(
        "core.step_wave.ms_p99",
        percentile(&mut wave_ns, 99.0) as f64 / 1e6,
        "ms",
    );
    put("core.step_wave.blocks", it.wave_blocks as f64, "count");
    put(
        "core.step_wave.width_mean",
        it.wave_blocks as f64 / it.waves.max(1) as f64,
        "blocks",
    );
    put("core.create_user.calls", create.calls as f64, "count");
    put("core.create_user.busy_s", secs(create.busy_ns), "s");
    put("core.create_user.self_s", secs(create.phase_self_ns), "s");
    put("core.chaos.rejoins", count("core.chaos.rejoins"), "count");
    put(
        "core.chaos.blocks_caught_up",
        count("core.chaos.blocks_caught_up"),
        "count",
    );
    put(
        "core.chaos.blob_pulls",
        count("core.chaos.blob_pulls"),
        "count",
    );
    put(
        "core.chaos.block_pull_retries",
        count("core.chaos.block_pull_retries"),
        "count",
    );
    put("core.recover.self_s", secs(a.recover_self_ns), "s");
    put(
        "core.stats_undercount",
        committed - count("stats.user_msgs_ok"),
        "count",
    );
    put(
        "chain.mempool.admitted",
        count("chain.mempool.admitted"),
        "count",
    );
    put(
        "chain.mempool.evicted",
        count("chain.mempool.evicted"),
        "count",
    );
    put(
        "chain.mempool.rejected_full",
        count("chain.mempool.rejected_full"),
        "count",
    );
    put(
        "chain.mempool.high_water_bytes",
        count("chain.mempool.high_water_bytes"),
        "bytes",
    );
    put("chain.blocks", chain_blocks, "count");
    put(
        "chain.block.fill",
        committed / (it.wave_blocks.max(1) * it.block_capacity.max(1)) as f64,
        "share",
    );
    put("chain.gas_used", count("chain.gas_used"), "gas");
    put("state.sigcache.hits", count("state.sigcache.hits"), "count");
    put(
        "state.sigcache.misses",
        count("state.sigcache.misses"),
        "count",
    );
    put(
        "state.cidstore.put_hits",
        count("state.cidstore.put_hits"),
        "count",
    );
    put(
        "state.cidstore.put_misses",
        count("state.cidstore.put_misses"),
        "count",
    );
    put(
        "state.cidstore.blobs",
        count("state.cidstore.blobs"),
        "count",
    );
    put("state.persists", count("state.persists"), "count");
    put(
        "types.sha256_blocks_per_msg",
        count("types.sha256_blocks") / committed.max(1.0),
        "blocks/msg",
    );
    put("net.published", count("net.published"), "count");
    put("net.delivered", count("net.delivered"), "count");
    put("net.dropped", count("net.dropped"), "count");
    put(
        "net.resolver.pulls_sent",
        count("net.resolver.pulls_sent"),
        "count",
    );
    put(
        "net.resolver.pulls_retried",
        count("net.resolver.pulls_retried"),
        "count",
    );
    put(
        "net.resolver.pulls_served",
        count("net.resolver.pulls_served"),
        "count",
    );
    put(
        "net.resolver.pulls_abandoned",
        count("net.resolver.pulls_abandoned"),
        "count",
    );
    put(
        "actors.checkpoints_cut",
        count("actors.checkpoints_cut"),
        "count",
    );
    put(
        "actors.checkpoints_committed",
        count("actors.checkpoints_committed"),
        "count",
    );
    put(
        "actors.checkpoint_bytes",
        count("actors.checkpoint_bytes"),
        "bytes",
    );
    put(
        "actors.cross_applied",
        count("actors.cross_applied"),
        "count",
    );
    let s = it.store;
    put("store.append.calls", s.append_calls as f64, "count");
    put("store.append.bytes", s.append_bytes as f64, "bytes");
    put(
        "store.append.busy_s",
        secs(name("store.append").busy_ns),
        "s",
    );
    put("store.sync.calls", s.sync_calls as f64, "count");
    put("store.sync.busy_s", secs(name("store.sync").busy_ns), "s");
    put("store.read.calls", s.read_calls as f64, "count");
    put("store.read.bytes", s.read_bytes as f64, "bytes");
    put("store.read.busy_s", secs(name("store.read").busy_ns), "s");
    put("store.truncate.calls", s.truncate_calls as f64, "count");
    put("store.self_s", secs(a.phase_store_ns), "s");
    put("store.orphan_spans", a.orphans as f64, "count");
    put(
        "workload.next_op.busy_s",
        secs(name("workload.next_op").busy_ns),
        "s",
    );
    put(
        "workload.accounts.busy_s",
        secs(name("workload.accounts").busy_ns),
        "s",
    );
    put("other_s", secs(a.phase_other_ns), "s");
    put("phase_wall_s", it.phase_s(), "s");
    put("trace_overhead", trace_overhead, "share");
    put("committed", committed, "count");
    put("virtual_s", it.virtual_ms as f64 / 1e3, "virtual_s");
    put("fail_share", it.fail_share(), "share");
    put("recover_s", it.recover_s, "s");
    m
}
