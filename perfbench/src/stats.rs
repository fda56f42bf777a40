//! Snapshots of the program's public stats getters, diffed around the
//! measured phase to give per-layer work counts.

use std::collections::BTreeMap;

use hc_core::HierarchyRuntime;

/// Counter name → value. Names are the per-layer metric names.
pub type Counters = BTreeMap<&'static str, u64>;

/// Reads every public stats getter the ledger reports.
pub fn snapshot(rt: &HierarchyRuntime) -> Counters {
    let mut c = Counters::new();
    let mut add = |name: &'static str, v: u64| *c.entry(name).or_default() += v;
    for subnet in rt.subnets() {
        let Some(node) = rt.node(subnet) else {
            continue;
        };
        let s = node.stats();
        add("chain.blocks", s.blocks);
        add("chain.gas_used", s.gas_used);
        add("stats.user_msgs_ok", s.user_msgs_ok);
        add("actors.checkpoints_cut", s.checkpoints_cut);
        add("actors.checkpoints_committed", s.checkpoints_committed);
        add("actors.checkpoint_bytes", s.checkpoint_bytes);
        add("actors.cross_applied", s.cross_applied);
        add("state.persists", s.state_persists);
    }
    let pool = rt.pool_stats();
    add("chain.mempool.admitted", pool.mempool.admitted);
    add("chain.mempool.evicted", pool.mempool.evicted);
    add("chain.mempool.rejected_full", pool.mempool.rejected_full);
    add(
        "chain.mempool.high_water_bytes",
        pool.mempool.high_water_bytes,
    );
    add("net.resolver.pulls_sent", pool.resolver.pulls_sent);
    add("net.resolver.pulls_retried", pool.resolver.pulls_retried);
    add("net.resolver.pulls_served", pool.resolver.pulls_served);
    add(
        "net.resolver.pulls_abandoned",
        pool.resolver.pulls_abandoned,
    );
    let sig = rt.sig_cache_stats();
    add("state.sigcache.hits", sig.hits);
    add("state.sigcache.misses", sig.misses);
    let store = rt.store_stats();
    add("state.cidstore.put_hits", store.put_hits);
    add("state.cidstore.put_misses", store.put_misses);
    add("state.cidstore.blobs", store.blobs);
    let net = rt.net_stats();
    add("net.published", net.published);
    add("net.delivered", net.delivered);
    add("net.dropped", net.dropped);
    let chaos = rt.chaos_stats();
    add("core.chaos.crashes", chaos.crashes);
    add("core.chaos.crashes_skipped", chaos.crashes_skipped);
    add("core.chaos.rejoins", chaos.rejoins);
    add("core.chaos.catch_ups_completed", chaos.catch_ups_completed);
    add("core.chaos.blocks_caught_up", chaos.blocks_caught_up);
    add("core.chaos.blob_pulls", chaos.blob_pulls);
    add("core.chaos.block_pull_retries", chaos.block_pull_retries);
    add(
        "types.sha256_blocks",
        hc_types::crypto::sha256_block_count(),
    );
    c
}

/// `after − before` per counter. Gauges (high-water marks) and counters
/// that a crash resets can shrink; those read as the `after` value or 0.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| {
            let d = if k.ends_with("high_water_bytes") {
                *v
            } else {
                v.saturating_sub(before.get(k).copied().unwrap_or(0))
            };
            (*k, d)
        })
        .collect()
}
