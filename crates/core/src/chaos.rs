//! Live node crash–rejoin: killing a subnet node mid-epoch and catching
//! it back up through the (possibly still faulty) network.
//!
//! The simulation runs one node per subnet, standing in for that subnet's
//! honest validator quorum — so "crashing" the node halts the subnet's
//! block production entirely, while the finalized chain survives on the
//! subnet's remaining peers (held here as `CrashedNode::peer_blocks`).
//! Rejoin rebuilds the node from genesis via the recorded boot parameters
//! (the same `genesis_node` constructor boot uses, with the restored
//! mempool attached to the new node's signature cache) and then enters a
//! *catch-up* phase: the node publishes
//! [`hc_net::ResolutionMsg::BlockPull`] requests on its own topic, peers
//! answer with bounded [`hc_net::ResolutionMsg::BlockBatch`] replies, and
//! each received block is re-validated and re-executed
//! (`ReplayMode::CatchUp`, the journal replay's own commit path) — a
//! corrupt or stale batch cannot poison the node. Both legs of every
//! round trip cross the simulated network, so partitions, loss,
//! duplication, and reordering from the [`hc_net::FaultPlan`] all apply;
//! lost requests are retried under the same capped-backoff
//! [`hc_net::RetryPolicy`] as content resolution, one schedule
//! (`publish_pull`) for the block and blob legs.
//!
//! Rejoin supports two bootstrap strategies ([`SyncMode`]): *replay*
//! re-validates and re-executes every missed block from genesis, while
//! *snapshot* first assembles the latest checkpoint-anchored state
//! manifest closure from peers — [`hc_net::ResolutionMsg::BlobPull`]
//! requests answered by bounded [`hc_net::ResolutionMsg::BlobBatch`]
//! replies, every chunk verified against its CID in a staging store and
//! the assembled root verified against the consensus-committed block
//! header at the anchor epoch (`verified_snapshot`, shared with recovery
//! fast-forward) — then advances past the covered blocks without executing
//! them (`SubnetNode::advance_past_block`, as replay does) and replays only
//! the post-checkpoint suffix. Both strategies run entirely through the
//! faulty network under the same retry policy.
//!
//! Scheduled crashes ([`hc_net::CrashFault`] entries of the fault plan)
//! are driven deterministically from the step loop by
//! `HierarchyRuntime::process_fault_events`; tests can also call
//! [`HierarchyRuntime::crash_node`] / [`HierarchyRuntime::rejoin_node`]
//! directly.

use std::collections::VecDeque;

use hc_chain::{Block, Mempool};
use hc_consensus::make_engine;
use hc_net::{CrashFault, ResolutionMsg, SubscriberId, BLOB_BATCH_CAP};
use hc_state::{ChunkManifest, CidStore, VmEvent};
use hc_types::{Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId};

use crate::runtime::{
    node_jitter_seed, verified_snapshot, HierarchyRuntime, ReplayMode, RuntimeError,
};

/// Blocks per [`hc_net::ResolutionMsg::BlockBatch`] reply. Deliberately
/// small so a long outage takes several pull round trips to repair, each
/// one exposed to the fault plan.
pub const BLOCK_BATCH_CAP: usize = 8;

/// Jitter-stream salts separating a catching-up node's block-pull and
/// blob-pull backoff schedules (see
/// [`hc_net::RetryPolicy::jittered_timeout_for`]).
const BLOCK_PULL_JITTER_SALT: u64 = 0xb10c_700c;
const BLOB_PULL_JITTER_SALT: u64 = 0xb10b_700c;

/// How a rejoining (or recovering) node bootstraps the history it missed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Re-validate and re-execute every missed block from genesis —
    /// O(chain) work, the strongest (trust-nothing) mode.
    #[default]
    Replay,
    /// Fetch the latest checkpoint-anchored state manifest closure from
    /// peers chunk by chunk (each blob verified against its CID, the
    /// assembled root against the committed checkpoint header), install
    /// it, and replay only the post-checkpoint block suffix —
    /// O(state + suffix) work. Degrades to [`SyncMode::Replay`] when no
    /// usable anchor exists.
    Snapshot,
}

/// Counters of crash/rejoin/catch-up activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Nodes crashed (removed from the hierarchy mid-run).
    pub crashes: u64,
    /// Nodes rebuilt and re-admitted.
    pub rejoins: u64,
    /// Catch-up phases that reached the peers' chain head.
    pub catch_ups_completed: u64,
    /// Missed blocks re-validated and re-executed during catch-up.
    pub blocks_caught_up: u64,
    /// `BlockPull` requests published (first sends and retries).
    pub block_pulls: u64,
    /// `BlockPull` retries after a timed-out round trip.
    pub block_pull_retries: u64,
    /// `BlockBatch` replies served from the surviving-peer chain copy.
    pub block_batches: u64,
    /// Scheduled crash faults skipped because their subnet did not exist
    /// (or could not be safely crashed) when the fault fired.
    pub crashes_skipped: u64,
    /// `BlobPull` snapshot-chunk requests published (first sends and
    /// retries).
    pub blob_pulls: u64,
    /// `BlobPull` retries after a timed-out round trip.
    pub blob_pull_retries: u64,
    /// `BlobBatch` replies served from the shared blob store.
    pub blob_batches: u64,
    /// CID-verified snapshot chunk blobs accepted into a staging store.
    pub blobs_synced: u64,
    /// Snapshots assembled, verified against their committed checkpoint
    /// header, and installed.
    pub snapshot_installs: u64,
    /// Snapshot-mode rejoins that fell back to full replay because no
    /// usable checkpoint anchor was available.
    pub snapshot_fallbacks: u64,
    /// Exhausted per-batch pull budgets re-armed after a cool-down (only
    /// with a bounded [`hc_net::RetryPolicy::max_attempts`]): the sync
    /// pauses on the current batch, it never abandons the rest.
    pub pull_budget_rearms: u64,
    /// Scheduled whole-region outages ([`hc_net::RegionOutage`]) that
    /// fired — the node-crash leg; the network blackhole leg is driven by
    /// the fault plan itself and accounted in
    /// [`hc_net::NetStats::region_dropped`].
    pub region_outages: u64,
    /// Nodes crashed because their region went down.
    pub region_crashes: u64,
    /// Region members that could not be crashed when their outage fired
    /// (the rootnet, or a subnet with live out-of-region descendants) —
    /// they stay up, only their traffic is blackholed.
    pub region_crash_skips: u64,
    /// Region outages fully healed: every crashed member rejoined.
    pub region_heals: u64,
    /// Member rejoins deferred past the heal time because the parent
    /// subnet was itself still down or catching up; retried every step
    /// until the dependency clears.
    pub region_heals_deferred: u64,
    /// Cut-but-uncommitted checkpoints resubmitted after a catch-up
    /// because a crashed parent lost them from its in-memory pending
    /// queue (losing one would wedge the child's `prev` hash chain and
    /// strand every bottom-up message behind it).
    pub checkpoints_resubmitted: u64,
}

/// Progress of one scheduled [`CrashFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// The crash time has not been reached yet.
    Pending,
    /// The node is down, waiting for its rejoin time.
    Down,
    /// The fault has fully played out (or was skipped).
    Done,
}

/// What survives a subnet node's crash: the view of the subnet's
/// *remaining* peers, which the rejoining node syncs against.
#[derive(Debug)]
pub(crate) struct CrashedNode {
    /// The node's pub-sub identity (kept so topic membership and
    /// subscriber-scoped fault rules stay stable across the outage).
    pub(crate) subscription: SubscriberId,
    /// The finalized chain as held by surviving peers — the catch-up
    /// source of truth.
    pub(crate) peer_blocks: Vec<Block>,
    /// The mempool content as replicated on peers; re-admitted at rejoin.
    pub(crate) mempool: Mempool,
}

/// State of one rejoined node's catch-up phase.
#[derive(Debug)]
pub(crate) struct CatchUp {
    /// The surviving peers' chain, serving [`ResolutionMsg::BlockPull`]s.
    pub(crate) peer_blocks: Vec<Block>,
    /// Accounts the live run installed outside block execution, in
    /// order, tagged with the `next_epoch` at install time — re-installed
    /// at the same epoch boundaries so replayed state roots match the
    /// block headers. Front = earliest.
    pub(crate) pending_users: VecDeque<(ChainEpoch, Address)>,
    /// Pull round trips attempted since the last progress.
    pub(crate) attempts: u32,
    /// Don't publish another pull before this virtual time.
    pub(crate) next_pull_at_ms: u64,
    /// `Some` while the node is still assembling a snapshot (the fetch
    /// phase precedes any block replay); `None` in replay mode or once
    /// the snapshot is installed.
    pub(crate) snapshot: Option<SnapshotSync>,
    /// Peer blocks at or below the installed snapshot boundary — covered
    /// by the snapshot, never replayed. Zero in replay mode.
    pub(crate) base_blocks: usize,
}

/// In-flight snapshot assembly of one rejoined node.
#[derive(Debug)]
pub(crate) struct SnapshotSync {
    /// The checkpoint-anchored state manifest being assembled.
    pub(crate) manifest: Cid,
    /// The checkpoint epoch the manifest was committed at; the block
    /// header at this epoch is the trust root for the assembled state.
    pub(crate) anchor_epoch: ChainEpoch,
    /// Blobs fetched so far. Deliberately a *separate* store from the
    /// node's: every chunk must genuinely cross the (possibly faulty)
    /// network and verify against its CID before the install sees it.
    pub(crate) staging: CidStore,
}

impl HierarchyRuntime {
    /// Crash/rejoin/catch-up counters.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos
    }

    /// Is `subnet`'s node currently crashed?
    pub fn is_crashed(&self, subnet: &SubnetId) -> bool {
        self.crashed.contains_key(subnet)
    }

    /// Is `subnet`'s node rejoined but still replaying missed blocks?
    pub fn is_catching_up(&self, subnet: &SubnetId) -> bool {
        self.catching_up.contains_key(subnet)
    }

    /// Schedules an additional crash fault after boot (equivalent to
    /// listing it in the fault plan's `crashes`).
    pub fn schedule_crash(&mut self, fault: CrashFault) {
        self.crash_plan.push((fault, CrashPhase::Pending));
    }

    /// Merges additional fault rules into the live network's plan — used
    /// by chaos harnesses to scope rules to topics of subnets spawned
    /// after boot. Crash faults in `plan` are scheduled too.
    pub fn extend_faults(&mut self, plan: hc_net::FaultPlan) {
        for crash in &plan.crashes {
            self.crash_plan.push((crash.clone(), CrashPhase::Pending));
        }
        for outage in &plan.region_outages {
            self.region_outage_plan
                .push((outage.clone(), CrashPhase::Pending));
        }
        self.network.extend_faults(plan);
    }

    /// Kills `subnet`'s node mid-run: its volatile state (state tree,
    /// pools, resolver cache, randomness position) is lost; the finalized
    /// chain and replicated mempool survive on peers. The subnet stops
    /// producing blocks until [`HierarchyRuntime::rejoin_node`].
    ///
    /// # Errors
    ///
    /// Refuses to crash the rootnet (it anchors the hierarchy), a subnet
    /// with live descendant subnets (their nodes run full nodes on the
    /// parent, which this simulation keeps as a single process), or an
    /// unknown/already-crashed subnet.
    pub fn crash_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        if subnet.is_root() {
            return Err(RuntimeError::Execution(
                "cannot crash the rootnet node".into(),
            ));
        }
        if self.nodes.keys().any(|k| subnet.is_ancestor_of(k)) {
            return Err(RuntimeError::Execution(format!(
                "cannot crash {subnet}: live descendant subnets depend on its chain"
            )));
        }
        let node = self
            .nodes
            .remove(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
        // The peer id goes dark: publishes stop reaching it and anything
        // already queued for it is lost with the process.
        self.network.set_offline(node.subscription, true);
        self.network.clear_inbox(node.subscription);
        // The surviving peers hold the subnet's *full* history. A node
        // that itself bootstrapped from a snapshot only chains the
        // post-install suffix; the blocks its snapshot covered are kept
        // in `snapshot_bases` and re-prefixed here.
        let mut peer_blocks: Vec<Block> =
            self.snapshot_bases.get(subnet).cloned().unwrap_or_default();
        peer_blocks.extend(node.chain.iter().cloned());
        self.crashed.insert(
            subnet.clone(),
            CrashedNode {
                subscription: node.subscription,
                peer_blocks,
                mempool: node.mempool,
            },
        );
        self.chaos.crashes += 1;
        Ok(())
    }

    /// Restarts `subnet`'s crashed node with the configured
    /// [`RuntimeConfig::sync_mode`](crate::RuntimeConfig) — see
    /// [`HierarchyRuntime::rejoin_node_with`].
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        self.rejoin_node_with(subnet, self.config.sync_mode)
    }

    /// Restarts `subnet`'s crashed node: rebuilds it from genesis with the
    /// recorded boot parameters and enters the catch-up phase. In
    /// [`SyncMode::Replay`] the node pulls and re-executes every block it
    /// missed; in [`SyncMode::Snapshot`] it first assembles the latest
    /// checkpoint-anchored state snapshot from peers and replays only the
    /// suffix (falling back to replay when no usable anchor exists). The
    /// node produces no blocks until catch-up completes.
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node_with(
        &mut self,
        subnet: &SubnetId,
        mode: SyncMode,
    ) -> Result<(), RuntimeError> {
        let crashed = self
            .crashed
            .remove(subnet)
            .ok_or_else(|| RuntimeError::Execution(format!("{subnet} is not crashed")))?;
        let (sa_config, engine_params) =
            self.boot_params.get(subnet).cloned().ok_or_else(|| {
                RuntimeError::Execution(format!("no boot parameters recorded for {subnet}"))
            })?;
        let node = self.genesis_node(
            subnet,
            sa_config.checkpoint_period,
            make_engine(sa_config.consensus, engine_params),
            // The mempool's content was replicated across the subnet's
            // peers; the restarted node re-syncs it. (Messages already in
            // replayed blocks were removed from this pool before the
            // crash, so nothing is double-proposed.)
            crashed.mempool,
            crashed.subscription,
            // Unschedulable until catch-up completes.
            u64::MAX,
        );
        self.network.set_offline(crashed.subscription, false);
        self.nodes.insert(subnet.clone(), node);
        // The catch-up replay appends the journaled blocks without
        // re-journaling; post-catch-up live blocks journal again.
        self.attach_chain_journal(subnet);
        self.refresh_validators(subnet);
        let pending_users: VecDeque<(ChainEpoch, Address)> = self
            .user_installs
            .get(subnet)
            .cloned()
            .unwrap_or_default()
            .into();
        // Snapshot bootstrap needs a usable anchor: a checkpoint the
        // runtime recorded, whose cut block the surviving peers still
        // serve (the trust root), and whose manifest closure the peers
        // can actually provide. Anything less degrades to full replay.
        let snapshot = match mode {
            SyncMode::Replay => None,
            SyncMode::Snapshot => {
                let anchor = self.checkpoint_anchor(subnet).filter(|(epoch, manifest)| {
                    let store = self.cid_store();
                    crashed.peer_blocks.iter().any(|b| b.header.epoch == *epoch)
                        && store
                            .get(manifest)
                            .and_then(|b| ChunkManifest::decode(&b))
                            .is_some_and(|m| m.missing_chunks(store).is_empty())
                });
                match anchor {
                    Some((anchor_epoch, manifest)) => Some(SnapshotSync {
                        manifest,
                        anchor_epoch,
                        staging: CidStore::new(),
                    }),
                    None => {
                        self.chaos.snapshot_fallbacks += 1;
                        None
                    }
                }
            }
        };
        self.catching_up.insert(
            subnet.clone(),
            CatchUp {
                peer_blocks: crashed.peer_blocks,
                pending_users,
                attempts: 0,
                next_pull_at_ms: self.now_ms,
                snapshot,
                base_blocks: 0,
            },
        );
        self.chaos.rejoins += 1;
        Ok(())
    }

    /// Drives scheduled crash faults and all active catch-ups. Called at
    /// the top of every [`HierarchyRuntime::step`] /
    /// [`HierarchyRuntime::step_wave`]; a no-op (and RNG-neutral) when the
    /// fault plan schedules no crashes and nothing is catching up.
    pub(crate) fn process_fault_events(&mut self) -> Result<(), RuntimeError> {
        if self.crash_plan.is_empty()
            && self.region_outage_plan.is_empty()
            && self.catching_up.is_empty()
        {
            return Ok(());
        }
        self.process_region_outages()?;
        for i in 0..self.crash_plan.len() {
            let (fault, phase) = self.crash_plan[i].clone();
            match phase {
                CrashPhase::Pending if self.now_ms >= fault.crash_at_ms => {
                    // `crash_node` refuses exactly the unsafe cases: an
                    // unknown or already-crashed subnet, the root, and a
                    // subnet with live descendants.
                    if self.crash_node(&fault.subnet).is_ok() {
                        self.crash_plan[i].1 = CrashPhase::Down;
                    } else {
                        self.chaos.crashes_skipped += 1;
                        self.crash_plan[i].1 = CrashPhase::Done;
                    }
                }
                CrashPhase::Down if self.now_ms >= fault.rejoin_at_ms => {
                    self.rejoin_node(&fault.subnet)?;
                    self.crash_plan[i].1 = CrashPhase::Done;
                }
                _ => {}
            }
        }
        let syncing: Vec<SubnetId> = self.catching_up.keys().cloned().collect();
        for subnet in syncing {
            self.advance_catch_up(&subnet)?;
        }
        Ok(())
    }

    /// Drives scheduled whole-region outages: when one fires, every node
    /// placed in the region is crashed (deepest subnets first, so parents
    /// never lose a live descendant mid-sweep); from the heal time on,
    /// crashed members rejoin shallowest-first — but a member whose parent
    /// is itself still down or catching up defers to a later step, so the
    /// recovery wave rolls down the hierarchy in dependency order. The
    /// traffic blackhole of the same [`hc_net::RegionOutage`] window is
    /// enforced independently by the network's fault machinery.
    fn process_region_outages(&mut self) -> Result<(), RuntimeError> {
        for i in 0..self.region_outage_plan.len() {
            let (outage, phase) = self.region_outage_plan[i].clone();
            match phase {
                CrashPhase::Pending if self.now_ms >= outage.from_ms => {
                    // Members at fire time, deepest-first. Within the
                    // sweep a member's only live descendants may be other
                    // members; crashing deepest-first clears them in
                    // dependency order.
                    let mut members: Vec<SubnetId> = self
                        .region_assignments
                        .iter()
                        .filter(|(s, r)| *r == &outage.region && self.nodes.contains_key(s))
                        .map(|(s, _)| s.clone())
                        .collect();
                    members.sort_by_key(|s| std::cmp::Reverse(s.depth()));
                    self.chaos.region_outages += 1;
                    for subnet in members {
                        if self.crash_node(&subnet).is_ok() {
                            self.chaos.region_crashes += 1;
                        } else {
                            self.chaos.region_crash_skips += 1;
                        }
                    }
                    self.region_outage_plan[i].1 = CrashPhase::Down;
                }
                CrashPhase::Down if self.now_ms >= outage.heal_ms => {
                    // Crashed members still assigned to the region,
                    // shallowest-first (a child can only catch up against
                    // a live parent chain).
                    let mut waiting: Vec<SubnetId> = self
                        .crashed
                        .keys()
                        .filter(|s| {
                            self.region_assignments.get(*s).map(String::as_str)
                                == Some(outage.region.as_str())
                        })
                        .cloned()
                        .collect();
                    waiting.sort_by_key(SubnetId::depth);
                    let mut deferred = false;
                    for subnet in waiting {
                        let parent_ready = subnet.parent().is_none_or(|p| {
                            self.nodes.contains_key(&p) && !self.catching_up.contains_key(&p)
                        });
                        if parent_ready {
                            self.rejoin_node(&subnet)?;
                        } else {
                            self.chaos.region_heals_deferred += 1;
                            deferred = true;
                        }
                    }
                    if !deferred {
                        self.region_outage_plan[i].1 = CrashPhase::Done;
                        self.chaos.region_heals += 1;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// One catch-up round for `subnet`: drain the node's inbox (serving
    /// its own pull echoes from the peer chain or blob store and applying
    /// any received batches), finish if the peers' head is reached,
    /// otherwise (re)issue a pull under the retry/backoff schedule. While
    /// a snapshot is being assembled the round works on chunk blobs; once
    /// it is installed, on the block suffix.
    fn advance_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let now_ms = self.now_ms;
        let sub = Self::get_node_mut(&mut self.nodes, subnet)?.subscription;
        let incoming = self.network.poll(sub, now_ms);
        let mut pulls_seen: Vec<ChainEpoch> = Vec::new();
        let mut blob_pulls_seen: Vec<(Vec<Cid>, String)> = Vec::new();
        let mut batches: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut blob_batches: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut certs = Vec::new();
        let mut replies = Vec::new();
        {
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            for msg in incoming {
                match msg {
                    ResolutionMsg::BlockPull {
                        subnet: s,
                        from_epoch,
                        ..
                    } if s == *subnet => pulls_seen.push(from_epoch),
                    ResolutionMsg::BlockBatch { subnet: s, blocks } if s == *subnet => {
                        batches.push(blocks);
                    }
                    ResolutionMsg::BlobPull { cids, reply_topic } => {
                        blob_pulls_seen.push((cids, reply_topic));
                    }
                    ResolutionMsg::BlobBatch { blobs } => blob_batches.push(blobs),
                    ResolutionMsg::Certificate(cert) => certs.push(*cert),
                    other => {
                        if let Some(reply) = node.resolver.handle(other) {
                            replies.push(reply);
                        }
                    }
                }
            }
        }
        for cert in certs {
            self.ingest_certificate(subnet, cert);
        }
        for (topic, msg) in replies {
            self.network.publish(&topic, msg, now_ms, None);
        }

        // Surviving peers answer snapshot-chunk pulls from the shared blob
        // store, in bounded batches (as with block pulls, the runtime
        // stands in for the peers the single-process simulation elides).
        for (cids, reply_topic) in blob_pulls_seen {
            let blobs: Vec<Vec<u8>> = {
                let store = self.cid_store();
                cids.iter()
                    .take(BLOB_BATCH_CAP)
                    .filter_map(|c| store.get(c))
                    .map(|b| b.as_ref().clone())
                    .collect()
            };
            if blobs.is_empty() {
                continue;
            }
            self.chaos.blob_batches += 1;
            self.network.publish(
                &reply_topic,
                ResolutionMsg::BlobBatch { blobs },
                now_ms,
                None,
            );
        }

        // Snapshot fetch phase: the anchored manifest closure must be
        // assembled and installed before any block replays.
        if self
            .catching_up
            .get(subnet)
            .is_some_and(|cu| cu.snapshot.is_some())
        {
            return self.advance_snapshot_fetch(subnet, blob_batches, now_ms);
        }

        // Surviving peers answer pulls from their copy of the chain, in
        // bounded batches — a long outage takes several round trips.
        for from_epoch in pulls_seen {
            let Some(cu) = self.catching_up.get(subnet) else {
                break;
            };
            let batch: Vec<Vec<u8>> = cu
                .peer_blocks
                .iter()
                .filter(|b| b.header.epoch >= from_epoch)
                .take(BLOCK_BATCH_CAP)
                .map(CanonicalEncode::canonical_bytes)
                .collect();
            if batch.is_empty() {
                continue;
            }
            self.chaos.block_batches += 1;
            self.network.publish(
                &subnet.topic(),
                ResolutionMsg::BlockBatch {
                    subnet: subnet.clone(),
                    blocks: batch,
                },
                now_ms,
                None,
            );
        }

        // Replay received batches. Duplicated or overlapping batches are
        // harmless: only the block matching the node's next epoch applies.
        let mut progressed = false;
        for blocks in batches {
            for bytes in blocks {
                let Ok(block) = Block::decode(&bytes) else {
                    continue;
                };
                let expect = Self::get_node_mut(&mut self.nodes, subnet)?.next_epoch;
                if block.header.epoch != expect {
                    continue;
                }
                self.install_pending_users(subnet, block.header.epoch)?;
                self.replay_block(subnet, block, ReplayMode::CatchUp)?;
                // Replay restores the historical schedule; stay
                // unschedulable until catch-up completes.
                Self::get_node_mut(&mut self.nodes, subnet)?.next_block_at_ms = u64::MAX;
                self.chaos.blocks_caught_up += 1;
                progressed = true;
            }
        }
        if progressed {
            if let Some(cu) = self.catching_up.get_mut(subnet) {
                cu.attempts = 0;
                cu.next_pull_at_ms = now_ms;
            }
        }

        let done = {
            let replayed = self.nodes.get(subnet).map_or(0, |n| n.chain.len());
            self.catching_up
                .get(subnet)
                .is_some_and(|cu| cu.base_blocks + replayed >= cu.peer_blocks.len())
        };
        if done {
            self.finish_catch_up(subnet)?;
            return Ok(());
        }

        let from_epoch = Self::get_node_mut(&mut self.nodes, subnet)?.next_epoch;
        self.publish_pull(
            subnet,
            now_ms,
            BLOCK_PULL_JITTER_SALT,
            |c| (&mut c.block_pulls, &mut c.block_pull_retries),
            ResolutionMsg::BlockPull {
                subnet: subnet.clone(),
                from_epoch,
                reply_topic: subnet.topic(),
            },
        )
    }

    /// The pull retry schedule of both catch-up legs: once the timeout
    /// expires, re-arm an exhausted per-batch budget, or publish `pull`
    /// and arm the next timeout (jitter salted by `salt`, counted in the
    /// leg's `counters` pair of (pulls, retries)).
    fn publish_pull(
        &mut self,
        subnet: &SubnetId,
        now_ms: u64,
        salt: u64,
        counters: fn(&mut ChaosStats) -> (&mut u64, &mut u64),
        pull: ResolutionMsg,
    ) -> Result<(), RuntimeError> {
        let policy = self.config.retry;
        let Some(cu) = self.catching_up.get_mut(subnet) else {
            return Ok(());
        };
        if now_ms < cu.next_pull_at_ms {
            return Ok(());
        }
        if policy.max_attempts > 0 && cu.attempts >= policy.max_attempts {
            // The retry budget is *per batch* — `attempts` resets on every
            // replayed block or accepted blob, so only the current round
            // trip is exhausted. Cool down for the capped timeout and
            // re-arm: a long blackout slows this batch down, it must never
            // permanently abandon the batches behind it.
            cu.attempts = 0;
            cu.next_pull_at_ms = now_ms + policy.max_timeout_ms.max(1);
            self.chaos.pull_budget_rearms += 1;
            return Ok(());
        }
        cu.attempts += 1;
        // Same deterministic seeded jitter as resolver pulls, salted per
        // leg; with `jitter_pct == 0` this is exactly `timeout_for`
        // (bit-identical to the un-jittered schedule).
        cu.next_pull_at_ms = now_ms
            + policy.jittered_timeout_for(
                cu.attempts,
                node_jitter_seed(self.config.seed, subnet),
                salt,
            );
        let (pulls, retries) = counters(&mut self.chaos);
        if cu.attempts > 1 {
            *retries += 1;
        }
        *pulls += 1;
        let own = Self::get_node_mut(&mut self.nodes, subnet)?.subscription;
        // Published on the subnet's own topic with the node itself as
        // origin but *not* excluded: in this single-process simulation the
        // runtime stands in for the surviving peers, so the pull must come
        // back through the (possibly faulty) network to be served.
        // Asymmetric fault rules can still target the sender.
        self.network
            .publish_from(&subnet.topic(), pull, now_ms, None, Some(own));
        Ok(())
    }

    /// One snapshot-fetch round: fold received [`ResolutionMsg::BlobBatch`]
    /// blobs into the staging store (content-addressed, so corrupt or
    /// unrelated blobs simply land under a different CID and are never
    /// requested again), install the snapshot once the closure is
    /// complete, otherwise (re)pull the still-missing chunks under the
    /// same per-batch retry budget as block catch-up.
    fn advance_snapshot_fetch(
        &mut self,
        subnet: &SubnetId,
        blob_batches: Vec<Vec<Vec<u8>>>,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        let mut accepted = 0u64;
        let wanted: Vec<Cid> = {
            let Some(cu) = self.catching_up.get_mut(subnet) else {
                return Ok(());
            };
            let Some(sync) = cu.snapshot.as_mut() else {
                return Ok(());
            };
            for blobs in blob_batches {
                for blob in blobs {
                    if !sync.staging.contains(&Cid::digest(&blob)) {
                        sync.staging.put(blob);
                        accepted += 1;
                    }
                }
            }
            if accepted > 0 {
                cu.attempts = 0;
                cu.next_pull_at_ms = now_ms;
            }
            let sync = cu.snapshot.as_ref().expect("checked above");
            match sync.staging.get(&sync.manifest) {
                None => vec![sync.manifest],
                Some(blob) => {
                    let manifest = ChunkManifest::decode(&blob).ok_or_else(|| {
                        RuntimeError::Execution("snapshot manifest blob failed to decode".into())
                    })?;
                    let mut missing = manifest.missing_chunks(&sync.staging);
                    missing.truncate(BLOB_BATCH_CAP);
                    missing
                }
            }
        };
        self.chaos.blobs_synced += accepted;
        if wanted.is_empty() {
            return self.install_snapshot(subnet);
        }

        self.publish_pull(
            subnet,
            now_ms,
            BLOB_PULL_JITTER_SALT,
            |c| (&mut c.blob_pulls, &mut c.blob_pull_retries),
            ResolutionMsg::BlobPull {
                cids: wanted,
                reply_topic: subnet.topic(),
            },
        )
    }

    /// Installs a fully assembled snapshot: verifies the staged closure
    /// against the consensus-committed block header at the anchor epoch,
    /// swaps the node's state tree, re-bases its chain on the anchor, and
    /// realigns the node's RNG stream past the blocks the snapshot covers.
    /// From here catch-up continues as a normal block replay of the
    /// post-anchor suffix.
    fn install_snapshot(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let (tree, closure, base_cid, anchor_epoch, covered_blocks) = {
            let cu = self
                .catching_up
                .get(subnet)
                .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
            let sync = cu
                .snapshot
                .as_ref()
                .ok_or_else(|| RuntimeError::Execution("no snapshot in flight".into()))?;
            let anchor = cu
                .peer_blocks
                .iter()
                .find(|b| b.header.epoch == sync.anchor_epoch)
                .ok_or_else(|| {
                    RuntimeError::Execution(format!(
                        "no peer block at snapshot anchor epoch {}",
                        sync.anchor_epoch
                    ))
                })?;
            let tree = verified_snapshot(&sync.staging, &sync.manifest, anchor)?;
            // Adopt the manifest's full closure — fixed chunks AND every
            // account-HAMT node — so the node's store can serve the same
            // snapshot (and GC can pin it) after the swap.
            let mut closure: Vec<Vec<u8>> = Vec::new();
            for cid in sync.staging.manifest_closure(&[sync.manifest]) {
                if let Some(chunk) = sync.staging.get(&cid) {
                    closure.push(chunk.as_ref().clone());
                }
            }
            let covered: Vec<Block> = cu
                .peer_blocks
                .iter()
                .filter(|b| b.header.epoch <= sync.anchor_epoch)
                .cloned()
                .collect();
            (tree, closure, anchor.cid(), sync.anchor_epoch, covered)
        };
        let base_blocks = covered_blocks.len();
        {
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            // The snapshot replaces execution, not history: every covered
            // block still advances the node exactly as a per-block replay
            // would (consensus draw, mempool epoch, cross-net cursors), so
            // the node resumes mid-conversation with its parent.
            for block in &covered_blocks {
                node.advance_past_block(block)?;
            }
            // Adopt the verified closure into the node's store so it can
            // serve future snapshot pulls itself (content-addressed puts
            // dedup against blobs already present).
            for blob in closure {
                node.store.put(blob);
            }
            node.tree = tree;
            node.chain.reset_to_snapshot_base(anchor_epoch, base_cid);
            node.next_epoch = anchor_epoch.next();
            node.next_block_at_ms = u64::MAX;
        }
        for block in &covered_blocks {
            self.advance_wallet_nonces(subnet, block);
        }
        let cu = self.catching_up.get_mut(subnet).expect("checked at entry");
        // Remember the covered prefix: a future crash of this node must
        // still hand the next rejoiner the full peer history even though
        // this node's own chain now starts at the anchor.
        self.snapshot_bases.insert(subnet.clone(), covered_blocks);
        // Accounts installed at or below the anchor are part of the
        // snapshot state already; replaying them would double-apply.
        while cu
            .pending_users
            .front()
            .is_some_and(|(epoch, _)| *epoch <= anchor_epoch)
        {
            cu.pending_users.pop_front();
        }
        cu.base_blocks = base_blocks;
        cu.snapshot = None;
        cu.attempts = 0;
        cu.next_pull_at_ms = self.now_ms;
        self.chaos.snapshot_installs += 1;
        Ok(())
    }

    /// Re-installs accounts the live run created outside block execution,
    /// up to and including `up_to_epoch`. The live `install_user` mutated
    /// the tree between blocks; a catch-up replay from pure genesis must
    /// repeat those writes at the same epoch boundaries or the replayed
    /// state roots diverge from the block headers. Wallets are runtime
    /// state and survive the crash — they are deliberately not touched
    /// (re-inserting would reset signer nonces).
    fn install_pending_users(
        &mut self,
        subnet: &SubnetId,
        up_to_epoch: ChainEpoch,
    ) -> Result<(), RuntimeError> {
        loop {
            let next = self
                .catching_up
                .get(subnet)
                .and_then(|cu| cu.pending_users.front().copied());
            let Some((epoch, addr)) = next else { break };
            if epoch > up_to_epoch {
                break;
            }
            if let Some(cu) = self.catching_up.get_mut(subnet) {
                cu.pending_users.pop_front();
            }
            let key = self.user_key(addr).public();
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            let acc = node.tree.accounts_mut().get_or_create(addr);
            acc.key = Some(key);
            acc.balance = hc_types::TokenAmount::ZERO;
        }
        Ok(())
    }

    /// Ends `subnet`'s catch-up: the node holds the same finalized chain
    /// as its peers and rejoins normal block production.
    fn finish_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        // Accounts installed after the surviving head (but before the
        // crash) have no covering block; restore them now.
        self.install_pending_users(subnet, ChainEpoch::new(u64::MAX))?;
        self.catching_up.remove(subnet);
        let block_time_ms = self
            .boot_params
            .get(subnet)
            .map_or(self.config.engine_params.block_time_ms, |(_, e)| {
                e.block_time_ms
            });
        let now_ms = self.now_ms;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.next_block_at_ms = now_ms + block_time_ms;
        self.chaos.catch_ups_completed += 1;
        self.resubmit_lost_checkpoints(subnet)?;
        Ok(())
    }

    /// Repairs checkpoint submissions a crash may have stranded, in both
    /// directions around the freshly caught-up `subnet`: its own
    /// uncommitted cut suffix goes (back) to its parent, and every live
    /// child's uncommitted suffix goes (back) to it. A checkpoint lives
    /// only in the parent's in-memory pending queue between cut and
    /// commit, so a parent crash loses it — and the per-child `prev` hash
    /// chain would then reject every subsequent checkpoint from that
    /// child, stranding its bottom-up messages forever.
    fn resubmit_lost_checkpoints(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        self.resubmit_cut_suffix(subnet)?;
        let children: Vec<SubnetId> = self
            .nodes
            .keys()
            .filter(|s| s.parent().as_ref() == Some(subnet))
            .cloned()
            .collect();
        for child in children {
            self.resubmit_cut_suffix(&child)?;
        }
        Ok(())
    }

    /// Re-enqueues `child`'s cut-but-uncommitted checkpoints at its
    /// parent, in chain order. The uncommitted suffix is exactly the
    /// chain walk from the child's current cut head through the
    /// runtime's cut ledger (entries are pruned when the parent archives
    /// a commit, so the walk stops at the committed boundary). Already
    /// pending copies are skipped, which makes the repair idempotent.
    fn resubmit_cut_suffix(&mut self, child: &SubnetId) -> Result<(), RuntimeError> {
        let Some(parent) = child.parent() else {
            return Ok(());
        };
        if self.catching_up.contains_key(child) || self.catching_up.contains_key(&parent) {
            return Ok(());
        }
        let Some(child_node) = self.nodes.get(child) else {
            return Ok(());
        };
        let mut cursor = child_node.tree.sca().prev_checkpoint();
        let mut suffix = Vec::new();
        while cursor != Cid::NIL {
            let Some(signed) = self.cut_checkpoints.get(&cursor) else {
                break;
            };
            cursor = signed.checkpoint.prev;
            suffix.push(signed.clone());
        }
        if suffix.is_empty() {
            return Ok(());
        }
        suffix.reverse();
        let parent_node = Self::get_node_mut(&mut self.nodes, &parent)?;
        let mut resubmitted = 0u64;
        for signed in suffix {
            if !parent_node
                .pending_checkpoints
                .iter()
                .any(|p| p.checkpoint == signed.checkpoint)
            {
                parent_node.pending_checkpoints.push(signed);
                resubmitted += 1;
            }
        }
        self.chaos.checkpoints_resubmitted += resubmitted;
        Ok(())
    }

    /// Applies the node-local effects of a caught-up block's events — the
    /// [`ReplayMode::CatchUp`] counterpart of the live event routing. The
    /// block's *outward* effects (checkpoint submission to the parent,
    /// journal records, manifest anchors, certificate gossip) happened
    /// when the block was originally produced; re-running them would
    /// double-apply. What must be rebuilt is the node's own view: stats,
    /// persisted state, the resolver's content for serving future pulls,
    /// and settled-payment bookkeeping.
    pub(crate) fn catch_up_effects(
        &mut self,
        subnet: &SubnetId,
        events: Vec<VmEvent>,
    ) -> Result<(), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        for event in events {
            match event {
                VmEvent::CheckpointCut { checkpoint } => {
                    node.stats.checkpoints_cut += 1;
                    node.tree.persist(&node.store);
                    node.stats.state_persists += 1;
                    // Re-seed the resolver from the SCA registry so the
                    // node can serve pulls for its checkpointed content
                    // again (the cache died with the process).
                    for meta in &checkpoint.cross_msgs {
                        if let Some(msgs) = node
                            .tree
                            .sca()
                            .resolve_content(&meta.msgs_cid)
                            .map(<[hc_actors::CrossMsg]>::to_vec)
                        {
                            node.resolver.seed(meta.msgs_cid, msgs);
                        }
                    }
                }
                other => node.apply_cross_event(other),
            }
        }
        Ok(())
    }
}
