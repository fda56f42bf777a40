//! Snapshot state-sync: O(state) bootstrap for rejoining nodes, plus the
//! recovery-path regression suite riding along.
//!
//! The trust argument under test: a snapshot-syncing node accepts chunk
//! blobs only into a CID-verified staging store, installs the assembled
//! tree only when its root matches the consensus-committed block header
//! at the checkpoint anchor, and then replays the post-anchor suffix
//! through full validation — so a bootstrapped node is byte-identical to
//! one that re-executed all of history, at O(state + suffix) cost.

use std::sync::Arc;

use hc_actors::sa::SaConfig;
use hc_core::persist::DurableOptions;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode,
    UserHandle,
};
use hc_net::{FaultPlan, NetConfig, Partition, PartitionPolicy, RetryPolicy};
use hc_state::{ChunkManifest, ImplicitMsg, Method};
use hc_store::{InMemoryDevice, WalOptions};
use hc_types::{ChainEpoch, Cid, SubnetId, TokenAmount};

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

/// The committed state root of `subnet` at exactly `epoch`.
fn state_root_at(rt: &HierarchyRuntime, subnet: &SubnetId, epoch: u64) -> Cid {
    rt.node(subnet)
        .unwrap()
        .chain()
        .iter()
        .find(|b| b.header.epoch == ChainEpoch::new(epoch))
        .unwrap_or_else(|| panic!("{subnet} has no block at epoch {epoch}"))
        .header
        .state_root
}

/// The happy path end to end: a crashed node rejoins in snapshot mode,
/// assembles the checkpoint-anchored manifest closure over the network,
/// installs it, and replays only the post-anchor suffix.
#[test]
fn snapshot_rejoin_installs_verified_state_and_replays_only_suffix() {
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(RuntimeConfig::default(), sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 7);

    let (anchor_epoch, _) = w.rt.checkpoint_anchor(&w.child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));
    let blocks_before = w.rt.node(&w.child).unwrap().chain().len();

    w.rt.crash_node(&w.child).unwrap();
    // A transfer queued while the subnet is dark lands after catch-up.
    w.rt.cross_transfer(&w.alice, &bob, whole(12)).unwrap();
    for _ in 0..6 {
        w.rt.step().unwrap();
    }
    w.rt.rejoin_node_with(&w.child, SyncMode::Snapshot).unwrap();
    assert!(w.rt.is_catching_up(&w.child));
    let produced = w.rt.run_until_quiescent(4_000).unwrap();
    assert!(produced < 4_000, "snapshot bootstrap must converge");
    assert!(!w.rt.is_catching_up(&w.child));

    let stats = w.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert!(stats.blob_pulls >= 1, "chunks crossed the network");
    assert!(stats.blob_batches >= 1);
    assert!(stats.blobs_synced >= 2, "manifest plus at least one chunk");
    assert_eq!(stats.catch_ups_completed, 1);
    // Only the post-anchor suffix was re-executed.
    assert_eq!(stats.blocks_caught_up as usize, blocks_before - 5);

    assert_eq!(w.rt.balance(&bob), whole(42));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// Bootstrap exactness: with the same seed and crash schedule, a
/// snapshot-mode rejoin reconverges to byte-identical state roots as a
/// full-replay rejoin — the snapshot changes the cost, never the state.
#[test]
fn snapshot_rejoin_state_matches_replay_rejoin() {
    let run = |mode: SyncMode| {
        let sa = SaConfig {
            checkpoint_period: 20,
            ..SaConfig::default()
        };
        let config = RuntimeConfig {
            sync_mode: mode,
            ..RuntimeConfig::default()
        };
        let mut w = build(config, sa);
        let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();
        drive_to_epoch(&mut w.rt, &w.child, 22);
        assert!(w.rt.checkpoint_anchor(&w.child).is_some());

        let now = w.rt.now_ms();
        w.rt.schedule_crash(hc_net::CrashFault {
            subnet: w.child.clone(),
            crash_at_ms: now + 300,
            rejoin_at_ms: now + 2_500,
        });
        w.rt.cross_transfer(&w.alice, &bob, whole(5)).unwrap();
        w.rt.run_until_quiescent(4_000).unwrap();
        audit_quiescent(&w.rt).unwrap();

        // Compare at a fixed epoch past reconvergence but before the next
        // checkpoint cut (whose proof CID embeds post-rejoin timestamps).
        let head = w.rt.node(&w.child).unwrap().chain().head_epoch();
        assert!(head < ChainEpoch::new(36), "quiescent before epoch 36");
        drive_to_epoch(&mut w.rt, &w.child, 36);
        (
            state_root_at(&w.rt, &w.child, 36),
            w.rt.balance(&bob),
            w.rt.chaos_stats(),
        )
    };

    let (root_replay, bob_replay, stats_replay) = run(SyncMode::Replay);
    let (root_snap, bob_snap, stats_snap) = run(SyncMode::Snapshot);
    assert_eq!(stats_replay.snapshot_installs, 0);
    assert_eq!(stats_snap.snapshot_installs, 1);
    assert!(
        stats_snap.blocks_caught_up < stats_replay.blocks_caught_up,
        "snapshot mode must replay strictly fewer blocks ({} vs {})",
        stats_snap.blocks_caught_up,
        stats_replay.blocks_caught_up
    );
    assert_eq!(bob_replay, whole(25));
    assert_eq!(bob_snap, whole(25));
    assert_eq!(
        root_snap, root_replay,
        "snapshot bootstrap must land on the exact replay state"
    );
}

/// Bookkeeping exactness of the covered prefix: a snapshot rejoin applies
/// the blocks at or below the anchor without executing them — top-down
/// applications included — and must leave the node exactly where
/// re-executing them does: the same next epoch and cross-net cursors,
/// wallet nonces the chain still accepts, and the same state 20 blocks
/// later.
#[test]
fn snapshot_rejoin_bookkeeping_matches_replay_rejoin() {
    let run = |mode: SyncMode| {
        // Anchor at 30, crash at 32, compare at 52: no checkpoint cut
        // (whose proof CID embeds post-rejoin timestamps) after the crash.
        let sa = SaConfig {
            checkpoint_period: 30,
            ..SaConfig::default()
        };
        let mut w = build(RuntimeConfig::default(), sa);
        let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        let carol = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
        w.rt.cross_transfer(&w.alice, &carol, whole(20)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();
        w.rt.execute(&bob, carol.addr, whole(2), Method::Send)
            .unwrap();
        drive_to_epoch(&mut w.rt, &w.child, 32);
        let (anchor, _) = w.rt.checkpoint_anchor(&w.child).expect("cut at epoch 30");
        assert_eq!(anchor, ChainEpoch::new(30));
        let covered_top_down =
            w.rt.node(&w.child)
                .unwrap()
                .chain()
                .iter()
                .filter(|b| b.header.epoch <= anchor)
                .flat_map(|b| &b.implicit_msgs)
                .filter(|m| matches!(m, ImplicitMsg::ApplyTopDown(_)))
                .count();
        assert_eq!(covered_top_down, 2, "the covered prefix applies top-down");

        w.rt.crash_node(&w.child).unwrap();
        // Queued at the parent while the child is dark.
        w.rt.cross_transfer(&w.alice, &bob, whole(5)).unwrap();
        w.rt.rejoin_node_with(&w.child, mode).unwrap();
        while w.rt.is_catching_up(&w.child) {
            w.rt.step().unwrap();
        }
        let node = w.rt.node(&w.child).unwrap();
        let head = node.chain().head_epoch();
        let pool = node.cross_pool();
        let cursors = (
            pool.next_top_down_nonce(),
            pool.pending_top_down(),
            pool.pending_bottom_up(),
            node.pending_checkpoint_count(),
            node.pending_turnaround_count(),
        );

        // The next block lands at the next epoch.
        let report = w.rt.tick_subnet(&w.child).unwrap();
        assert_eq!(report.epoch, head.next());
        // Every wallet signs with the nonce the chain expects next.
        w.rt.execute(&bob, carol.addr, whole(1), Method::Send)
            .unwrap();
        w.rt.execute(&carol, bob.addr, whole(3), Method::Send)
            .unwrap();

        let later = head.value() + 20;
        drive_to_epoch(&mut w.rt, &w.child, later);
        (
            w.rt.chaos_stats().snapshot_installs,
            head,
            cursors,
            state_root_at(&w.rt, &w.child, later),
            (w.rt.balance(&bob), w.rt.balance(&carol)),
        )
    };

    let (installs_replay, head_replay, cursors_replay, root_replay, balances_replay) =
        run(SyncMode::Replay);
    let (installs_snap, head_snap, cursors_snap, root_snap, balances_snap) =
        run(SyncMode::Snapshot);
    assert_eq!(installs_replay, 0);
    assert_eq!(installs_snap, 1);
    assert_eq!(head_snap, head_replay);
    assert_eq!(cursors_snap, cursors_replay);
    assert_eq!(balances_replay, (whole(25), whole(20)));
    assert_eq!(balances_snap, balances_replay);
    assert_eq!(
        root_snap, root_replay,
        "covered-block bookkeeping must leave the snapshot node on the replay state"
    );
}

/// Satellite 1 regression: the catch-up retry budget is per batch, not
/// shared across the whole catch-up. A blackout far longer than the
/// bounded budget must degrade into cool-down/re-arm cycles — never into
/// permanently abandoning the batches behind it — and catch-up completes
/// normally once the partition heals.
#[test]
fn per_batch_retry_budget_survives_long_blackout() {
    let config = RuntimeConfig {
        retry: RetryPolicy {
            base_timeout_ms: 200,
            backoff: 2,
            max_timeout_ms: 1_600,
            max_attempts: 3,
            jitter_pct: 0,
        },
        ..RuntimeConfig::default()
    };
    let mut w = build(config, SaConfig::default());
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    let blocks_before = w.rt.node(&w.child).unwrap().chain().len();

    // Crash, then black out the child's topic for far longer than the
    // 3-attempt budget (200+400+800 ms) and rejoin mid-blackout.
    w.rt.crash_node(&w.child).unwrap();
    let now = w.rt.now_ms();
    let heal = now + 9_000;
    w.rt.extend_faults(FaultPlan {
        partitions: vec![Partition {
            name: "blackout".into(),
            from_ms: now,
            heal_ms: heal,
            topics: vec![w.child.topic()],
            subscribers: Vec::new(),
            policy: PartitionPolicy::Drop,
        }],
        ..FaultPlan::none()
    });
    w.rt.rejoin_node(&w.child).unwrap();
    while w.rt.now_ms() < heal + 1_000 {
        w.rt.step().unwrap();
    }
    w.rt.run_until_quiescent(4_000).unwrap();

    let stats = w.rt.chaos_stats();
    assert!(
        stats.pull_budget_rearms >= 1,
        "the blackout must exhaust and re-arm the per-batch budget: {stats:?}"
    );
    assert_eq!(stats.catch_ups_completed, 1, "heal must complete catch-up");
    assert_eq!(stats.blocks_caught_up as usize, blocks_before);
    assert!(!w.rt.is_catching_up(&w.child));

    // Liveness after the heal: new cross-net work still lands.
    w.rt.cross_transfer(&w.alice, &bob, whole(12)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert_eq!(w.rt.balance(&bob), whole(42));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// Satellite 3 regression, around `keep_manifests == 1`: a snapshot
/// persist right after a checkpoint cut evicts the anchored manifest from
/// the recency window — the GC sweep that eviction triggers must still
/// pin the anchor (it is the bootstrap entry point), or the next
/// snapshot rejoin finds its closure half-pruned.
#[test]
fn gc_keep_window_pins_newest_checkpoint_anchor() {
    let device = InMemoryDevice::new();
    let config = RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device),
            wal: WalOptions::default(),
            keep_manifests: 1,
        }),
        ..RuntimeConfig::default()
    };
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(config, sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 6);
    let (anchor_epoch, anchor_manifest) = w.rt.checkpoint_anchor(&w.child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));

    // Mutate state past the cut, then persist a snapshot: its manifest
    // displaces the anchored one from the size-1 window and triggers GC.
    let carol = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.submit(&bob, carol.addr, whole(3), hc_state::Method::Send)
        .unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert!(
        w.rt.node(&w.child).unwrap().chain().head_epoch() < ChainEpoch::new(10),
        "the next cut would re-anchor and mask the regression"
    );
    w.rt.save_snapshot(&w.alice, &w.child).unwrap();

    // The anchored manifest closure must have survived the sweep intact.
    let store = w.rt.cid_store();
    let blob = store
        .get(&anchor_manifest)
        .expect("anchored manifest pruned by the keep-window sweep");
    let manifest = ChunkManifest::decode(&blob).unwrap();
    assert_eq!(
        manifest.missing_chunks(store),
        Vec::new(),
        "anchored closure lost chunks to the keep-window sweep"
    );

    // End to end: a snapshot rejoin still bootstraps from that anchor.
    w.rt.crash_node(&w.child).unwrap();
    w.rt.rejoin_node_with(&w.child, SyncMode::Snapshot).unwrap();
    w.rt.run_until_quiescent(4_000).unwrap();
    let stats = w.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert_eq!(w.rt.balance(&carol), whole(3));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}
