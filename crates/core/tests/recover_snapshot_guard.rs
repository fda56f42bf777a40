//! Snapshot-mode recovery cost guard: `HierarchyRuntime::recover` in
//! snapshot mode lands on the same world as full replay and does less
//! SHA-256 compression work.
//!
//! This file intentionally holds a single `#[test]`: the block counter is
//! process-global, and a lone test keeps the measured regions free of
//! concurrent hashing from harness siblings.

use std::sync::Arc;

use hc_actors::sa::SaConfig;
use hc_core::persist::DurableOptions;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode,
    UserHandle,
};
use hc_net::NetConfig;
use hc_store::{InMemoryDevice, WalOptions};
use hc_types::{ChainEpoch, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// A runtime with a funded root user and a spawned child subnet.
struct World {
    rt: HierarchyRuntime,
    alice: UserHandle,
    child: SubnetId,
}

fn build(config: RuntimeConfig, sa_config: SaConfig) -> World {
    let mut rt = HierarchyRuntime::new(config);
    let alice = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();
    let validator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let child = rt
        .spawn_subnet(&alice, sa_config, whole(10), &[(validator, whole(5))])
        .unwrap();
    World { rt, alice, child }
}

/// Steps the hierarchy until `subnet`'s chain head reaches `epoch`.
fn drive_to_epoch(rt: &mut HierarchyRuntime, subnet: &SubnetId, epoch: u64) {
    while rt.node(subnet).unwrap().chain().head_epoch() < ChainEpoch::new(epoch) {
        rt.step().unwrap();
    }
}

/// Recovery in snapshot mode fast-forwards an eligible subnet to its
/// newest checkpoint anchor — appending the skipped prefix without
/// re-execution, installing the anchored manifest, verifying it against
/// the committed header — and lands on the same world as full replay,
/// at a fraction of the hash work.
#[test]
fn recover_snapshot_mode_matches_full_replay_and_hashes_less() {
    let device = InMemoryDevice::new();
    let config = |mode: SyncMode| RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device.clone()),
            wal: WalOptions::default(),
            keep_manifests: 0,
        }),
        sync_mode: mode,
        ..RuntimeConfig::default()
    };
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(config(SyncMode::Replay), sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 12);
    w.rt.cross_transfer(&w.alice, &bob, whole(7)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert!(w.rt.checkpoint_anchor(&w.child).is_some());

    let fingerprint = |rt: &HierarchyRuntime| {
        let mut out = Vec::new();
        for subnet in rt.subnets().cloned().collect::<Vec<_>>() {
            let chain = rt.node(&subnet).unwrap().chain();
            out.push((subnet, chain.len(), chain.head(), chain.head_epoch()));
        }
        out
    };
    let expected = fingerprint(&w.rt);
    let expected_bob = w.rt.balance(&bob);
    let alice = w.alice.clone();
    let child = w.child.clone();
    drop(w);

    let before = hc_types::crypto::sha256_block_count();
    let rt_replay = HierarchyRuntime::recover(config(SyncMode::Replay));
    let replay_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_replay), expected);
    assert_eq!(rt_replay.balance(&bob), expected_bob);
    drop(rt_replay);

    let before = hc_types::crypto::sha256_block_count();
    let mut rt_snap = HierarchyRuntime::recover(config(SyncMode::Snapshot));
    let snapshot_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_snap), expected, "fast-forward diverged");
    assert_eq!(rt_snap.balance(&bob), expected_bob);
    assert!(
        snapshot_cost < replay_cost,
        "fast-forward must hash less than full replay ({snapshot_cost} vs {replay_cost})"
    );

    // The fast-forwarded world keeps working: new cross-net value lands.
    rt_snap.cross_transfer(&alice, &bob, whole(5)).unwrap();
    rt_snap.run_until_quiescent(2_000).unwrap();
    assert_eq!(rt_snap.balance(&bob), expected_bob + whole(5));
    audit_escrow(&rt_snap).unwrap();
    audit_quiescent(&rt_snap).unwrap();
    let _ = child;
}
