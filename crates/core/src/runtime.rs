//! The hierarchy runtime: spawning, stepping, and cross-net plumbing.
//!
//! Every block a node commits — produced live, replayed from the journal,
//! fast-forwarded in recovery, or covered by a snapshot — goes through one
//! set of helpers: `record_block`, `SubnetNode::advance_past_block`,
//! `advance_wallet_nonces`, `verified_snapshot` and `genesis_node` (see
//! DESIGN.md §13). What differs between callers stays at the call site;
//! `ReplayMode` only picks recovery's `post_tick` or catch-up's node-local
//! effects.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::sa::SaConfig;
use hc_actors::{CrossMsg, HcAddress, ScaConfig};
use hc_chain::{
    execute_block_with, produce_block_with, Block, ChainStore, CrossMsgPool, ExecOptions, Mempool,
    MempoolConfig, MempoolStats,
};
use hc_consensus::{make_engine, BlockOpportunity, Consensus, EngineParams, ValidatorSet};
use hc_net::{
    NetConfig, Network, PullDecision, ResolutionMsg, Resolver, ResolverStats, RetryPolicy,
    SubscriberId,
};
use hc_state::{
    ChunkManifest, CidStore, ImplicitMsg, Message, Method, Receipt, SealedMessage, SigCache,
    SigCacheStats, SignedMessage, StateTree, VmEvent, DEFAULT_SIG_CACHE_CAPACITY,
};
use hc_store::{BlobLog, Persistence, Wal};
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId,
    TokenAmount,
};

use crate::node::{NodeStats, SubnetNode};
use crate::persist::{
    chain_log_name, ControlRecord, DurableOptions, PersistenceConfig, BLOB_LOG, CONTROL_LOG,
};

/// How many recent manifests per subnet the runtime remembers for manual
/// blob pruning when no automatic GC depth is configured.
const DEFAULT_MANIFEST_HISTORY: usize = 16;

/// Domain separation for root validator key seeds.
const ROOT_SEED_DOMAIN: u64 = 0x726f_6f74; // "root"

/// How validators/subnets are assigned to the regions declared in
/// [`NetConfig::regions`] at boot (paper §V geo-distribution). Placement
/// is deterministic from the config alone, recorded in the control log
/// (as [`ControlRecord::RegionAssigned`]) for recovery, and a no-op on a
/// uniform map — the default stays bit-identical to a place-less network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Every node stays in the default region (index 0). With
    /// [`hc_net::RegionMap::uniform`] this is the region-less behaviour.
    #[default]
    Uniform,
    /// Nodes cycle through the declared regions in boot order (root takes
    /// the first region) — the *geo-spread* placement of experiment E14.
    RoundRobin,
    /// A child subnet is placed in its parent's region; the root takes the
    /// first region — the *co-located* placement of experiment E14.
    FollowParent,
}

/// Global runtime parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Network delay/loss model.
    pub net: NetConfig,
    /// Consensus engine parameters (applied to every subnet).
    pub engine_params: EngineParams,
    /// SCA parameters (the checkpoint period is overridden per subnet by
    /// its Subnet Actor config).
    pub sca: ScaConfig,
    /// Validators of the rootnet (round-robin authority set).
    pub root_validators: usize,
    /// RNG seed: identical configs and call sequences replay identically.
    pub seed: u64,
    /// Enable the *push* path of content resolution (paper §IV-C); when
    /// disabled every meta is resolved by pull, which experiment E7
    /// compares.
    pub push_enabled: bool,
    /// Epochs after which a pending atomic execution is force-aborted by
    /// the coordinator's sweep (the *timeliness* guarantee, paper §IV-D).
    pub atomic_timeout_epochs: u64,
    /// Emit fund certificates for slow (bottom-up/path) cross-net messages
    /// so destinations learn of pending payments immediately
    /// (the §IV-A acceleration).
    pub certificates_enabled: bool,
    /// Worker threads, used three ways: subnets due in the same
    /// [`HierarchyRuntime::step_wave`] produce their blocks concurrently,
    /// each block's signatures are batch pre-verified across this many
    /// threads, and — above `1` — block payloads execute on the
    /// conflict-aware parallel engine (`hc-chain`'s access-set schedule:
    /// disjoint lanes on worker threads, system-touching messages serial).
    /// `1` (the default) keeps everything on the caller's thread; receipts,
    /// gas, and state roots are bit-identical at every setting.
    pub parallelism: usize,
    /// Capacity of each node's verified-signature cache (entries). The
    /// cache memoizes `(signer, message CID, signature)` triples whose
    /// full verification already passed — at mempool admission — so block
    /// production and validation skip re-verifying them. `0` disables the
    /// cache entirely; receipts and state roots are bit-identical either
    /// way (the cache only elides provably redundant work).
    pub sig_cache_capacity: usize,
    /// Durable persistence. The default, [`PersistenceConfig::InMemory`],
    /// journals nothing and preserves the pre-persistence behaviour
    /// exactly; [`PersistenceConfig::Durable`] write-through-journals
    /// blocks, control records, and state blobs so the hierarchy can be
    /// rebuilt by [`HierarchyRuntime::recover`] after a crash.
    pub persistence: PersistenceConfig,
    /// Timeout/backoff policy for cross-net pull requests and crash
    /// catch-up block pulls. The default (unbounded attempts, capped
    /// exponential backoff) never abandons a request; setting
    /// [`RetryPolicy::max_attempts`] bounds the budget, after which the
    /// request is abandoned and surfaces in
    /// [`hc_net::ResolverStats::pulls_abandoned`] — degraded, never
    /// silently lost.
    pub retry: RetryPolicy,
    /// Mempool admission control applied to every subnet node: the
    /// byte-capacity bound (`0` = unbounded, the historical behaviour)
    /// and the seen-CID horizon. Overload then degrades by deterministic
    /// lowest-fee-first eviction instead of growing without bound; see
    /// [`hc_chain::MempoolConfig`].
    pub mempool: MempoolConfig,
    /// How rejoining ([`HierarchyRuntime::rejoin_node`]) and recovering
    /// ([`HierarchyRuntime::recover`]) nodes bootstrap missed history:
    /// [`SyncMode::Replay`](crate::SyncMode::Replay) re-executes every missed block,
    /// [`SyncMode::Snapshot`](crate::SyncMode::Snapshot) installs the latest checkpoint-anchored
    /// state snapshot and replays only the post-checkpoint suffix.
    /// Snapshot mode degrades to replay when no usable anchor exists.
    pub sync_mode: crate::chaos::SyncMode,
    /// How booted nodes are assigned to the regions of
    /// [`NetConfig::regions`] (see [`PlacementPolicy`]). Ignored — and
    /// draw-free — when the map declares at most one region.
    pub placement: PlacementPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            net: NetConfig::default(),
            engine_params: EngineParams::default(),
            sca: ScaConfig::default(),
            root_validators: 4,
            seed: 42,
            push_enabled: true,
            atomic_timeout_epochs: 50,
            certificates_enabled: true,
            parallelism: 1,
            sig_cache_capacity: DEFAULT_SIG_CACHE_CAPACITY,
            persistence: PersistenceConfig::InMemory,
            retry: RetryPolicy::default(),
            mempool: MempoolConfig::default(),
            sync_mode: crate::chaos::SyncMode::default(),
            placement: PlacementPolicy::default(),
        }
    }
}

/// Hierarchy-wide message-pool counters: every subnet node's mempool,
/// cross-net pool, and resolver folded into one aggregate (see
/// [`HierarchyRuntime::pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Summed mempool admission/eviction counters.
    pub mempool: MempoolStats,
    /// User messages currently pending across every mempool.
    pub mempool_pending: u64,
    /// Bytes currently held across every mempool.
    pub mempool_bytes: u64,
    /// Top-down cross-net messages applied locally but not yet executed,
    /// summed over subnets.
    pub pending_top_down: u64,
    /// Bottom-up/path cross-net message groups awaiting content
    /// resolution or commitment, summed over subnets.
    pub pending_bottom_up: u64,
    /// Summed resolver counters, including `pulls_abandoned` — requests
    /// that exhausted their retry budget and degraded instead of
    /// resolving.
    pub resolver: ResolverStats,
}

/// A user account handle: the subnet it lives in plus its address. The
/// runtime keeps the signing key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserHandle {
    /// The subnet the account lives in.
    pub subnet: SubnetId,
    /// The account address.
    pub addr: Address,
}

impl UserHandle {
    /// The hierarchical address of this user.
    pub fn hc_address(&self) -> HcAddress {
        HcAddress::new(self.subnet.clone(), self.addr)
    }
}

impl fmt::Display for UserHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.subnet, self.addr)
    }
}

/// What one [`HierarchyRuntime::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The subnet that produced a block.
    pub subnet: SubnetId,
    /// The block's epoch.
    pub epoch: ChainEpoch,
    /// Virtual time of the block, in milliseconds.
    pub at_ms: u64,
    /// Messages carried (signed + implicit).
    pub msgs: usize,
    /// Gas executed.
    pub gas_used: u64,
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The referenced subnet does not exist in the hierarchy.
    UnknownSubnet(SubnetId),
    /// The referenced user is not managed by this runtime.
    UnknownUser(UserHandle),
    /// A message executed with a non-OK exit code.
    Execution(String),
    /// Child-subnet accounts can only be created empty; fund them with a
    /// top-down cross-net message so supply stays conserved.
    NonRootMint,
    /// The spawn flow failed at the given stage.
    Spawn(String),
    /// A subnet could not be retired (not killed, not drained, not a
    /// leaf, …).
    Retire(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownSubnet(id) => write!(f, "unknown subnet {id}"),
            RuntimeError::UnknownUser(u) => write!(f, "unknown user {u}"),
            RuntimeError::Execution(why) => write!(f, "execution failed: {why}"),
            RuntimeError::NonRootMint => {
                f.write_str("non-root accounts must be created empty and funded cross-net")
            }
            RuntimeError::Spawn(why) => write!(f, "subnet spawn failed: {why}"),
            RuntimeError::Retire(why) => write!(f, "subnet retire refused: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

pub(crate) struct Wallet {
    key: Keypair,
    pub(crate) next_nonce: Nonce,
}

/// Derives a subnet node's private randomness stream from the runtime
/// seed and the subnet's identity (domain-separated through the content
/// hash, so sibling subnets get unrelated streams).
pub(crate) fn node_rng(seed: u64, subnet: &SubnetId) -> StdRng {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&subnet.canonical_bytes());
    StdRng::from_seed(*Cid::digest(&bytes).as_bytes())
}

/// Seed for a node's resolver backoff jitter: the run seed mixed with the
/// subnet identity, so co-located retry loops desynchronize while every
/// run stays replayable. Inert while [`RetryPolicy::jitter_pct`] is 0.
pub(crate) fn node_jitter_seed(seed: u64, subnet: &SubnetId) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&subnet.canonical_bytes());
    let digest = Cid::digest(&bytes);
    u64::from_le_bytes(
        digest.as_bytes()[..8]
            .try_into()
            .expect("digest has 8+ bytes"),
    )
}

/// Rebuilds a snapshot's state tree from the blobs in `store` and checks
/// its root against the committed `anchor` block: chunks verified only by
/// CID could still form a consistent-but-wrong state, so the header the
/// subnet's consensus finalized is the trust root. Recovery fast-forward
/// and snapshot rejoin both install through here.
pub(crate) fn verified_snapshot(
    store: &CidStore,
    manifest: &Cid,
    anchor: &Block,
) -> Result<StateTree, RuntimeError> {
    let blob = store
        .get(manifest)
        .ok_or_else(|| RuntimeError::Execution("snapshot manifest blob missing".into()))?;
    let decoded = ChunkManifest::decode(&blob)
        .ok_or_else(|| RuntimeError::Execution("snapshot manifest blob failed to decode".into()))?;
    if decoded.root != anchor.header.state_root {
        return Err(RuntimeError::Execution(format!(
            "snapshot root {} does not match the committed header root {} at epoch {}",
            decoded.root, anchor.header.state_root, anchor.header.epoch
        )));
    }
    StateTree::from_manifest(&decoded, store)
        .map_err(|e| RuntimeError::Execution(format!("snapshot install: {e}")))
}

/// What phase (a) of a tick — the pure per-subnet part — computed, to be
/// applied to shared runtime state by phase (b).
struct LocalOutcome {
    report: StepReport,
    /// Committed child checkpoints paired with the signature policy in
    /// force at commit time, destined for the global archive.
    archived: Vec<(SignedCheckpoint, hc_types::crypto::SignaturePolicy)>,
    /// VM events of the block, to be routed through the hierarchy.
    events: Vec<VmEvent>,
}

/// One subnet's block WAL while [`HierarchyRuntime::recover`] replays the
/// control log: the journaled block records and a cursor over how many the
/// replay has consumed so far.
struct ReplayLog {
    wal: Wal,
    records: Vec<Vec<u8>>,
    cursor: usize,
}

impl ReplayLog {
    /// Opens `subnet`'s block WAL with the cursor at its first record.
    fn open(durable: &DurableOptions, subnet: &SubnetId) -> Self {
        let (wal, records) =
            Wal::open(durable.device.clone(), &chain_log_name(subnet), durable.wal);
        ReplayLog {
            wal,
            records,
            cursor: 0,
        }
    }
}

/// Why a past block is being re-committed — see
/// [`HierarchyRuntime::replay_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayMode {
    /// Whole-runtime restart from the journal: the replay *is* the
    /// effect, so checkpoint routing, archiving, and event delivery all
    /// re-run.
    Recovery,
    /// A single rejoined node resyncing from peers while the live
    /// hierarchy keeps running: only node-local bookkeeping re-runs; the
    /// block's outward effects (parent checkpoint submission, journal
    /// records, certificates) already happened when it was produced.
    CatchUp,
}

/// The hierarchical consensus runtime: one node per subnet plus the shared
/// pub-sub network, advanced by a deterministic discrete-event loop.
pub struct HierarchyRuntime {
    pub(crate) config: RuntimeConfig,
    pub(crate) nodes: BTreeMap<SubnetId, SubnetNode>,
    pub(crate) network: Network<ResolutionMsg>,
    pub(crate) now_ms: u64,
    next_user_id: u64,
    pub(crate) wallets: BTreeMap<(SubnetId, Address), Wallet>,
    events: VecDeque<(SubnetId, VmEvent)>,
    /// Tokens minted at the rootnet (genesis + faucet), the global supply
    /// baseline for conservation audits.
    root_minted: TokenAmount,
    /// Every committed child checkpoint, for light-client audits.
    archive: crate::archive::CheckpointArchive,
    /// Runtime-wide content-addressed blob store: persisted state chunk
    /// manifests. Shared by every node (handles clone the same store), so
    /// unchanged chunks are stored once across snapshots and subnets.
    store: CidStore,
    /// `true` while [`HierarchyRuntime::recover`] replays journaled
    /// history: journaling and network publishes are suppressed (replay
    /// must not re-journal what it reads, and a recovering node's old
    /// gossip must not be re-sent).
    recovering: bool,
    /// The runtime-wide control log (see [`crate::persist`]); `None` when
    /// persistence is [`PersistenceConfig::InMemory`].
    control_wal: Option<Wal>,
    /// Most recent persisted state-manifest CIDs, per subnet, newest last.
    /// The GC's live roots: blobs unreachable from these manifests can be
    /// pruned from the blob store.
    recent_manifests: BTreeMap<SubnetId, VecDeque<Cid>>,
    /// Per subnet, the newest checkpoint-anchored snapshot boundary: the
    /// checkpoint epoch and the state manifest persisted at its cut.
    /// Snapshot-syncing rejoiners bootstrap from here, and the GC pins
    /// these manifests regardless of the recency window.
    pub(crate) checkpoint_anchors: BTreeMap<SubnetId, (ChainEpoch, Cid)>,
    /// Only during [`HierarchyRuntime::recover`] in snapshot mode: per
    /// eligible subnet, the checkpoint anchor its replay fast-forwards to
    /// (blocks before it are appended without re-execution; the anchored
    /// manifest is installed when its record is reached). Emptied as
    /// installs complete; non-empty after replay means the journal tore
    /// inside a skipped region and recovery must fall back to full replay.
    fast_forward: BTreeMap<SubnetId, (ChainEpoch, Cid)>,
    /// Subnets whose node is currently crashed (removed from `nodes`),
    /// with the surviving-peer view needed for rejoin.
    pub(crate) crashed: BTreeMap<SubnetId, crate::chaos::CrashedNode>,
    /// Rejoined subnets still replaying missed blocks pulled from peers.
    pub(crate) catching_up: BTreeMap<SubnetId, crate::chaos::CatchUp>,
    /// Blocks below a snapshot-rejoined subnet's install boundary. The
    /// node's own chain holds only the post-snapshot suffix, but the
    /// subnet's surviving peers keep full history — a later crash must
    /// hand the next rejoiner the whole peer chain, not just the suffix.
    pub(crate) snapshot_bases: BTreeMap<SubnetId, Vec<Block>>,
    /// The boot-time (SA config, engine params) of every child subnet, so
    /// a crashed node can be rebuilt from genesis at rejoin.
    pub(crate) boot_params: BTreeMap<SubnetId, (SaConfig, EngineParams)>,
    /// Scheduled crash faults copied from the fault plan at boot (plus any
    /// added via [`HierarchyRuntime::schedule_crash`]) and each one's
    /// progress through crash → rejoin.
    pub(crate) crash_plan: Vec<(hc_net::CrashFault, crate::chaos::CrashPhase)>,
    /// Crash/rejoin/catch-up counters.
    pub(crate) chaos: crate::chaos::ChaosStats,
    /// Per subnet, every account installed outside block execution
    /// ([`HierarchyRuntime::install_user`]), tagged with the node's
    /// `next_epoch` at install time. A crash–rejoin catch-up replays the
    /// chain from genesis and must re-install each account at the same
    /// epoch boundary the live run did, or the replayed state roots
    /// diverge from the headers.
    pub(crate) user_installs: BTreeMap<SubnetId, Vec<(ChainEpoch, Address)>>,
    /// Region each subnet's node was placed in at boot (or by an explicit
    /// [`HierarchyRuntime::place_subnet`] override). Only non-default
    /// placements appear; journaled as [`ControlRecord::RegionAssigned`].
    pub(crate) region_assignments: BTreeMap<SubnetId, String>,
    /// Signed checkpoints cut but not yet committed by the parent, keyed
    /// by checkpoint CID. A checkpoint submitted to a parent lives only in
    /// that node's in-memory `pending_checkpoints` until committed, so a
    /// parent crash loses it — and the per-child `prev` hash chain then
    /// rejects every later checkpoint from that child. This runtime-level
    /// ledger (the runtime outlives node crashes) lets catch-up resubmit
    /// the lost suffix; entries are pruned as commits are archived.
    pub(crate) cut_checkpoints: BTreeMap<Cid, SignedCheckpoint>,
    /// Round-robin placement cursor ([`PlacementPolicy::RoundRobin`]):
    /// the region index the *next* booted node takes.
    next_region_slot: usize,
    /// Scheduled whole-region outages copied from the fault plan (plus any
    /// added via [`HierarchyRuntime::extend_faults`]) and each one's
    /// progress through crash → heal, mirroring `crash_plan`.
    pub(crate) region_outage_plan: Vec<(hc_net::RegionOutage, crate::chaos::CrashPhase)>,
}

impl fmt::Debug for HierarchyRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HierarchyRuntime")
            .field("subnets", &self.nodes.len())
            .field("now_ms", &self.now_ms)
            .finish_non_exhaustive()
    }
}

impl HierarchyRuntime {
    /// Creates a hierarchy containing only the rootnet, with
    /// `config.root_validators` authority validators.
    ///
    /// With [`PersistenceConfig::Durable`] the runtime attaches its
    /// journals to the configured device and starts writing through. `new`
    /// expects a *fresh* device; to restart from a device that already
    /// holds journaled history, use [`HierarchyRuntime::recover`].
    pub fn new(config: RuntimeConfig) -> Self {
        let mut rt = Self::boot(config);
        if let Some(durable) = rt.config.persistence.durable().cloned() {
            let (control, _) = Wal::open(durable.device.clone(), CONTROL_LOG, durable.wal);
            rt.control_wal = Some(control);
            rt.store
                .attach_blob_log(BlobLog::open(durable.device.clone(), BLOB_LOG, durable.wal));
            let root = SubnetId::root();
            rt.attach_chain_journal(&root);
            // The root's boot-time placement predates the control log's
            // attachment; journal it now so recovery replays it.
            if let Some(region) = rt.region_assignments.get(&root).cloned() {
                rt.journal(&ControlRecord::RegionAssigned {
                    subnet: root,
                    region,
                });
            }
        }
        rt
    }

    /// Restarts a hierarchy from the journaled history on
    /// `config.persistence`'s device: replays the longest satisfiable
    /// prefix of the control log (re-executing every journaled block and
    /// verifying each recomputed state root against the block header),
    /// truncates everything past that prefix out of the journals, and
    /// resumes live operation from there.
    ///
    /// With [`PersistenceConfig::InMemory`] this is just
    /// [`HierarchyRuntime::new`]. The rest of the `config` (seed, network,
    /// engine parameters, …) must match the run that wrote the journals —
    /// the journals deliberately do not store the whole world, only what a
    /// deterministic re-execution cannot re-derive.
    pub fn recover(config: RuntimeConfig) -> Self {
        let Some(durable) = config.persistence.durable().cloned() else {
            return Self::new(config);
        };
        if config.sync_mode == crate::chaos::SyncMode::Snapshot {
            // Snapshot mode fast-forwards each eligible subnet to its last
            // checkpoint-anchored manifest instead of re-executing its
            // whole history. If a fast-forward target turns out to be
            // unreachable (the journal tore inside the skipped region),
            // fall back to the total full-replay recovery below.
            if let Some(rt) = Self::recover_attempt(config.clone(), &durable, true) {
                return rt;
            }
        }
        Self::recover_attempt(config, &durable, false)
            .expect("full-replay recovery never abandons a prefix")
    }

    /// One recovery pass over the journals. With `fast_forward` enabled,
    /// returns `None` (leaving the journals untouched) when an eligible
    /// subnet's anchor was never reached — the caller retries without
    /// fast-forwarding.
    fn recover_attempt(
        config: RuntimeConfig,
        durable: &DurableOptions,
        fast_forward: bool,
    ) -> Option<Self> {
        let mut rt = Self::boot(config);
        rt.recovering = true;
        // Attach the blob log before replaying: replayed persists dedup
        // against blobs that survived the crash and re-journal any the
        // torn tail lost.
        rt.store
            .attach_blob_log(BlobLog::open(durable.device.clone(), BLOB_LOG, durable.wal));
        let (mut control, control_records) =
            Wal::open(durable.device.clone(), CONTROL_LOG, durable.wal);
        if fast_forward {
            rt.fast_forward = Self::plan_fast_forward(&control_records, &rt.store);
        }
        let mut logs: BTreeMap<SubnetId, ReplayLog> = BTreeMap::new();
        let root = SubnetId::root();
        logs.insert(root.clone(), ReplayLog::open(durable, &root));
        let mut applied = 0usize;
        for bytes in &control_records {
            let Ok(record) = ControlRecord::decode(bytes) else {
                break;
            };
            if !rt.apply_control_record(record, durable, &mut logs) {
                break;
            }
            applied += 1;
        }
        if !rt.fast_forward.is_empty() {
            // A subnet's replay stopped before its anchor installed: its
            // chain is ahead of its (still-genesis) state tree. Abandon
            // this attempt before any journal truncation.
            return None;
        }
        // Make the journals agree with the recovered world: drop control
        // records past the replayed prefix and, per subnet, block records
        // past the replay cursor (a block whose commit record was lost is
        // not part of history).
        control.truncate_after(applied);
        for (subnet, log) in logs {
            let ReplayLog {
                mut wal, cursor, ..
            } = log;
            wal.truncate_after(cursor);
            if let Some(node) = rt.nodes.get_mut(&subnet) {
                node.chain.attach_wal(wal);
            }
        }
        rt.store.sync();
        rt.control_wal = Some(control);
        rt.recovering = false;
        Some(rt)
    }

    /// Scans the control log for subnets whose recovery can skip straight
    /// to their newest checkpoint anchor. Eligible: non-root subnets with
    /// no booted descendants (a child's boot reads its parent's state,
    /// which a fast-forwarded parent would not have yet) whose anchored
    /// manifest closure fully survives in the blob store — anything less
    /// replays in full.
    fn plan_fast_forward(
        records: &[Vec<u8>],
        store: &CidStore,
    ) -> BTreeMap<SubnetId, (ChainEpoch, Cid)> {
        let mut booted: Vec<SubnetId> = Vec::new();
        let mut anchors: BTreeMap<SubnetId, (ChainEpoch, Cid)> = BTreeMap::new();
        for bytes in records {
            let Ok(record) = ControlRecord::decode(bytes) else {
                break;
            };
            match record {
                ControlRecord::SubnetBoot { child, .. } => booted.push(child),
                ControlRecord::CheckpointAnchor {
                    subnet,
                    epoch,
                    manifest,
                } => {
                    anchors.insert(subnet, (epoch, manifest));
                }
                _ => {}
            }
        }
        anchors.retain(|subnet, (_, manifest)| {
            // `hydrate_manifest` pulls the closure out of the surviving
            // blob log into memory — recovery starts from an empty store,
            // so the log is the only place the snapshot can live.
            !subnet.is_root()
                && !booted.iter().any(|b| subnet.is_ancestor_of(b))
                && store.hydrate_manifest(manifest)
        });
        anchors
    }

    /// Applies one control record during recovery. Returns `false` when the
    /// record cannot be satisfied (its block is missing or torn, a state
    /// root fails to reproduce, …) — replay stops there and the journal is
    /// truncated back to the satisfied prefix.
    fn apply_control_record(
        &mut self,
        record: ControlRecord,
        durable: &DurableOptions,
        logs: &mut BTreeMap<SubnetId, ReplayLog>,
    ) -> bool {
        match record {
            ControlRecord::UserCreated {
                subnet,
                addr,
                balance,
            } => {
                if self.install_user(&subnet, addr, balance).is_err() {
                    return false;
                }
                self.next_user_id = self.next_user_id.max(addr.id() + 1);
                true
            }
            ControlRecord::ClaimantCreated { subnet, addr } => {
                self.create_claimant(&UserHandle { subnet, addr }).is_ok()
            }
            ControlRecord::UserAdopted { subnet, addr } => {
                self.install_adopted(&subnet, addr).is_ok()
            }
            ControlRecord::SubnetRetired { subnet } => {
                if !self.nodes.contains_key(&subnet) {
                    return false;
                }
                self.retire_node(&subnet);
                true
            }
            ControlRecord::SubnetBoot {
                child,
                config,
                engine_params,
            } => {
                self.boot_child_node(&child, &config, &engine_params);
                if !self.nodes.contains_key(&child) {
                    return false;
                }
                logs.insert(child.clone(), ReplayLog::open(durable, &child));
                true
            }
            ControlRecord::BlockCommitted { subnet, epoch } => {
                let Some(log) = logs.get_mut(&subnet) else {
                    return false;
                };
                let Some(bytes) = log.records.get(log.cursor) else {
                    return false;
                };
                let Ok(block) = Block::decode(bytes) else {
                    return false;
                };
                if block.header.epoch != epoch {
                    return false;
                }
                let replayed = if self.fast_forward.contains_key(&subnet) {
                    // Inside a fast-forwarded prefix: append without
                    // re-execution; the anchored snapshot supplies the
                    // state this block produced.
                    self.fast_forward_block(&subnet, block).is_ok()
                } else {
                    self.replay_block(&subnet, block, ReplayMode::Recovery)
                        .is_ok()
                };
                if !replayed {
                    return false;
                }
                if let Some(log) = logs.get_mut(&subnet) {
                    log.cursor += 1;
                }
                true
            }
            ControlRecord::SnapshotAnchor { subnet, manifest } => {
                if self.fast_forward.contains_key(&subnet) {
                    // The tree this snapshot was cut from is being skipped;
                    // the journaled manifest cannot be re-persisted for a
                    // cross-check, only kept in the GC window.
                    self.track_manifest(&subnet, manifest);
                    return true;
                }
                let Some(node) = self.nodes.get_mut(&subnet) else {
                    return false;
                };
                let recomputed = node.tree.persist(&node.store);
                if recomputed != manifest {
                    return false;
                }
                node.stats.state_persists += 1;
                self.track_manifest(&subnet, manifest);
                true
            }
            ControlRecord::CheckpointAnchor {
                subnet,
                epoch,
                manifest,
            } => {
                match self.fast_forward.get(&subnet).copied() {
                    None => {
                        // The persist already re-ran inside the replayed
                        // block's checkpoint-cut routing; this anchor only
                        // cross-checks it.
                        return self.recent_manifests.get(&subnet).and_then(|w| w.back())
                            == Some(&manifest);
                    }
                    Some((target_epoch, target_manifest)) if epoch == target_epoch => {
                        // The fast-forward target: install the anchored
                        // snapshot and resume normal replay from here.
                        if manifest != target_manifest
                            || !self.install_fast_forward(&subnet, epoch, manifest)
                        {
                            return false;
                        }
                        self.fast_forward.remove(&subnet);
                    }
                    // A pre-target anchor inside the skipped prefix: no
                    // persist ran to cross-check against, but the GC window
                    // must advance exactly as it did live.
                    Some(_) => {}
                }
                self.checkpoint_anchors
                    .insert(subnet.clone(), (epoch, manifest));
                self.track_manifest(&subnet, manifest);
                true
            }
            ControlRecord::RegionAssigned { subnet, region } => {
                // Boot-time policy placement already re-ran inside the
                // replayed boot; this record re-applies it (and carries
                // explicit `place_subnet` overrides the policy can't
                // reproduce). The region must still be declared.
                if self.network.region_map().region_index(&region).is_none() {
                    return false;
                }
                self.apply_region(&subnet, &region);
                true
            }
        }
    }

    /// Recovery counterpart of a skipped block: appends it to the chain
    /// and repeats the bookkeeping that outlives execution — consensus/RNG
    /// draws, epoch and schedule cursors, cross-net nonce cursors, wallet
    /// nonces — without validating or executing anything. The state the
    /// block produced arrives later, wholesale, from the anchored
    /// snapshot ([`HierarchyRuntime::install_fast_forward`]).
    fn fast_forward_block(&mut self, subnet: &SubnetId, block: Block) -> Result<(), RuntimeError> {
        self.refresh_validators(subnet);
        let at_ms = block.header.timestamp_ms;
        let epoch = block.header.epoch;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        if epoch != node.next_epoch {
            return Err(RuntimeError::Execution(format!(
                "fast-forward: journaled block at epoch {epoch}, node expects {}",
                node.next_epoch
            )));
        }
        node.chain
            .append_recovered(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let opportunity = node.advance_past_block(&block)?;
        node.next_block_at_ms = at_ms + opportunity.interval_ms;
        node.next_epoch = epoch.next();
        self.advance_wallet_nonces(subnet, &block);
        self.now_ms = self.now_ms.max(at_ms);
        Ok(())
    }

    /// Installs a fast-forward target during recovery: rebuilds the
    /// anchored snapshot from the blob store and verifies it against the
    /// (fast-forwarded) block at the anchor epoch. Returns `false` when
    /// anything fails to verify — the caller stops replay there and
    /// recovery falls back to full replay.
    fn install_fast_forward(
        &mut self,
        subnet: &SubnetId,
        epoch: ChainEpoch,
        manifest: Cid,
    ) -> bool {
        let Some(node) = self.nodes.get_mut(subnet) else {
            return false;
        };
        let Some(anchor) = node.chain.iter().find(|b| b.header.epoch == epoch) else {
            return false;
        };
        let Ok(tree) = verified_snapshot(&self.store, &manifest, anchor) else {
            return false;
        };
        node.tree = tree;
        node.stats.state_persists += 1;
        true
    }

    /// Re-commits one past block against a node: re-executes it (verifying
    /// the recomputed state root against the header), re-appends it
    /// without re-journaling, and repeats the live commit bookkeeping
    /// through the same helpers — engine and RNG draws included, so the
    /// node's randomness stream stays aligned with history.
    /// [`ReplayMode::Recovery`] (crash-restart replay from the journal)
    /// routes the block's effects through the full
    /// [`HierarchyRuntime::post_tick`]; [`ReplayMode::CatchUp`] (a live
    /// rejoined node resyncing while the rest of the hierarchy has moved
    /// on) applies only node-local effects — every outward effect of the
    /// block already happened when it was produced.
    pub(crate) fn replay_block(
        &mut self,
        subnet: &SubnetId,
        block: Block,
        mode: ReplayMode,
    ) -> Result<(), RuntimeError> {
        self.refresh_validators(subnet);
        let at_ms = block.header.timestamp_ms;
        let epoch = block.header.epoch;
        let parallelism = self.config.parallelism;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        if epoch != node.next_epoch {
            return Err(RuntimeError::Execution(format!(
                "replay: journaled block at epoch {epoch}, node expects {}",
                node.next_epoch
            )));
        }
        node.engine
            .validate_block(&block, &node.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        let receipts = execute_block_with(
            &mut node.tree,
            &block,
            ExecOptions {
                sig_cache: node.sig_cache.as_ref(),
                parallelism,
            },
        )
        .map_err(|e| RuntimeError::Execution(format!("replay execution: {e}")))?;
        node.chain
            .append_recovered(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let opportunity = node.advance_past_block(&block)?;
        let outcome = Self::record_block(node, &block, receipts, &opportunity);
        self.advance_wallet_nonces(subnet, &block);
        match mode {
            ReplayMode::Recovery => {
                self.now_ms = self.now_ms.max(at_ms);
                self.post_tick(subnet, outcome, at_ms)?;
            }
            ReplayMode::CatchUp => {
                self.catch_up_effects(subnet, outcome.events)?;
            }
        }
        Ok(())
    }

    /// Wallet nonce cursors advance past every user message of a block
    /// re-committed from history (replayed, fast-forwarded, or covered).
    pub(crate) fn advance_wallet_nonces(&mut self, subnet: &SubnetId, block: &Block) {
        for m in &block.signed_msgs {
            let (from, nonce) = (m.message().from, m.message().nonce);
            if let Some(w) = self.wallets.get_mut(&(subnet.clone(), from)) {
                if nonce.next() > w.next_nonce {
                    w.next_nonce = nonce.next();
                }
            }
        }
    }

    /// Builds the in-memory hierarchy skeleton (rootnet only), without
    /// touching any persistence device.
    fn boot(config: RuntimeConfig) -> Self {
        let network = Network::new(config.net.clone(), config.seed);
        let crash_plan: Vec<(hc_net::CrashFault, crate::chaos::CrashPhase)> = config
            .net
            .faults
            .crashes
            .iter()
            .cloned()
            .map(|c| (c, crate::chaos::CrashPhase::Pending))
            .collect();
        let region_outage_plan: Vec<(hc_net::RegionOutage, crate::chaos::CrashPhase)> = config
            .net
            .faults
            .region_outages
            .iter()
            .cloned()
            .map(|o| (o, crate::chaos::CrashPhase::Pending))
            .collect();
        let root = SubnetId::root();

        // Root validators: deterministic authority identities.
        let mut validator_keys = Vec::new();
        let mut validators = Vec::new();
        for i in 0..config.root_validators.max(1) {
            let mut seed = [0u8; 32];
            let v = config.seed ^ ((i as u64) << 32) ^ ROOT_SEED_DOMAIN;
            seed[..8].copy_from_slice(&v.to_le_bytes());
            seed[8] = 0x52;
            let key = Keypair::from_seed(seed);
            validators.push(hc_consensus::Validator {
                addr: Address::new(10 + i as u64),
                key: key.public(),
                power: 1,
            });
            validator_keys.push(key);
        }

        let subscription = network.subscribe(&root.topic());
        let mut rt = HierarchyRuntime {
            config,
            nodes: BTreeMap::new(),
            network,
            now_ms: 0,
            next_user_id: 100,
            wallets: BTreeMap::new(),
            events: VecDeque::new(),
            root_minted: TokenAmount::ZERO,
            archive: crate::archive::CheckpointArchive::default(),
            store: CidStore::new(),
            recovering: false,
            control_wal: None,
            recent_manifests: BTreeMap::new(),
            checkpoint_anchors: BTreeMap::new(),
            fast_forward: BTreeMap::new(),
            crashed: BTreeMap::new(),
            catching_up: BTreeMap::new(),
            snapshot_bases: BTreeMap::new(),
            boot_params: BTreeMap::new(),
            crash_plan,
            chaos: crate::chaos::ChaosStats::default(),
            user_installs: BTreeMap::new(),
            region_assignments: BTreeMap::new(),
            next_region_slot: 0,
            region_outage_plan,
            cut_checkpoints: BTreeMap::new(),
        };
        let mut node = rt.genesis_node(
            &root,
            rt.config.sca.checkpoint_period,
            make_engine(
                hc_consensus::ConsensusKind::RoundRobin,
                rt.config.engine_params.clone(),
            ),
            Mempool::with_config(rt.config.mempool),
            subscription,
            rt.config.engine_params.block_time_ms,
        );
        node.validators = ValidatorSet::new(validators);
        node.validator_keys = validator_keys;
        rt.nodes.insert(root.clone(), node);
        rt.assign_boot_region(&root);
        rt
    }

    /// Builds a node at genesis: the one constructor behind root boot,
    /// child boot and crash rejoin. It has no validators yet (the caller
    /// installs or refreshes them) and the subnet's seeded randomness
    /// stream, which a rejoined node's catch-up realigns by burning one
    /// draw per missed block. `mempool` is attached to the node's own
    /// fresh signature cache, so admissions warm the cache that block
    /// production consults.
    pub(crate) fn genesis_node(
        &self,
        subnet: &SubnetId,
        checkpoint_period: u64,
        engine: Box<dyn Consensus>,
        mempool: Mempool,
        subscription: SubscriberId,
        next_block_at_ms: u64,
    ) -> SubnetNode {
        let sca = ScaConfig {
            checkpoint_period,
            ..self.config.sca.clone()
        };
        let capacity = self.config.sig_cache_capacity;
        let sig_cache = (capacity > 0).then(|| SigCache::new(capacity));
        SubnetNode {
            subnet_id: subnet.clone(),
            tree: StateTree::genesis(subnet.clone(), sca, []),
            chain: ChainStore::new(subnet.clone()),
            mempool: match &sig_cache {
                Some(c) => mempool.with_sig_cache(c.clone()),
                None => mempool,
            },
            cross_pool: CrossMsgPool::new(),
            engine,
            validators: ValidatorSet::default(),
            validator_keys: Vec::new(),
            resolver: Resolver::with_policy_seeded(
                self.config.retry,
                node_jitter_seed(self.config.seed, subnet),
            ),
            subscription,
            next_block_at_ms,
            next_epoch: ChainEpoch::new(1),
            pending_checkpoints: Vec::new(),
            pending_turnarounds: Vec::new(),
            unresolved_turnarounds: Vec::new(),
            last_receipts: BTreeMap::new(),
            tentative: BTreeMap::new(),
            store: self.store.clone(),
            stats: NodeStats::default(),
            rng: node_rng(self.config.seed, subnet),
            sig_cache,
        }
    }

    /// Assigns a freshly booted node to a region per the placement policy
    /// (paper §V geo-distribution). A no-op — no placement, no journal
    /// record — when the region map declares at most one region, so
    /// default configurations stay bit-identical to a place-less network.
    /// Journaling happens at the caller's control-log point (after
    /// [`ControlRecord::SubnetBoot`]), never here, so replay sees records
    /// in dependency order.
    fn assign_boot_region(&mut self, subnet: &SubnetId) {
        let names = self.network.region_map().region_names().to_vec();
        if names.len() <= 1 {
            return;
        }
        let region = match self.config.placement {
            PlacementPolicy::Uniform => return,
            PlacementPolicy::RoundRobin => {
                let r = names[self.next_region_slot % names.len()].clone();
                self.next_region_slot += 1;
                r
            }
            PlacementPolicy::FollowParent => match subnet.parent() {
                Some(parent) => self
                    .region_assignments
                    .get(&parent)
                    .cloned()
                    .unwrap_or_else(|| names[0].clone()),
                None => names[0].clone(),
            },
        };
        self.apply_region(subnet, &region);
    }

    /// Applies a region placement to the live network (via the node's
    /// subscription, when booted) and the assignment table. Idempotent.
    fn apply_region(&mut self, subnet: &SubnetId, region: &str) {
        if let Some(node) = self.nodes.get(subnet) {
            self.network.place_in_region(node.subscription, region);
        }
        self.region_assignments
            .insert(subnet.clone(), region.to_owned());
    }

    /// On a durable device, attaches `subnet`'s block journal to its
    /// node's chain: committed blocks write through from here on.
    pub(crate) fn attach_chain_journal(&mut self, subnet: &SubnetId) {
        let Some(durable) = self.config.persistence.durable() else {
            return;
        };
        let (wal, _) = Wal::open(durable.device.clone(), &chain_log_name(subnet), durable.wal);
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.chain.attach_wal(wal);
        }
    }

    /// Appends a control record to the runtime's control log. A no-op when
    /// persistence is in-memory or while recovery replays history (replay
    /// must never re-journal what it is reading).
    fn journal(&mut self, record: &ControlRecord) {
        if self.recovering {
            return;
        }
        if let Some(wal) = &mut self.control_wal {
            wal.append(&record.canonical_bytes());
        }
    }

    /// Records a freshly persisted snapshot manifest in `subnet`'s recency
    /// window and, when a durable config caps the window
    /// ([`DurableOptions::keep_manifests`] > 0), prunes blobs that fell out
    /// of every subnet's window. Runs identically during live operation and
    /// replay, so recovered stores see the same GC sweeps.
    fn track_manifest(&mut self, subnet: &SubnetId, manifest: Cid) {
        let keep = self
            .config
            .persistence
            .durable()
            .map(|d| d.keep_manifests)
            .unwrap_or(0);
        let cap = if keep > 0 {
            keep
        } else {
            DEFAULT_MANIFEST_HISTORY
        };
        let window = self.recent_manifests.entry(subnet.clone()).or_default();
        window.push_back(manifest);
        let mut evicted = false;
        while window.len() > cap {
            window.pop_front();
            evicted = true;
        }
        if evicted && keep > 0 {
            self.gc_now();
        }
    }

    /// Sweeps the shared `CidStore`: every blob unreachable from a live
    /// root is dropped, in memory and in the blob log. Live roots are the
    /// manifests still inside some subnet's recency window, every
    /// checkpoint-anchored manifest (the snapshot-sync entry points — a
    /// tight `keep_manifests` window must not evict the manifest a
    /// rejoiner would bootstrap from), any manifest currently being
    /// served to a syncing peer, and the archive's per-subnet checkpoint
    /// registry roots. Returns `(pruned_blobs, pruned_bytes)`.
    fn gc_now(&mut self) -> (u64, u64) {
        let mut roots: Vec<Cid> = self
            .recent_manifests
            .values()
            .flat_map(|w| w.iter().copied())
            .collect();
        roots.extend(self.checkpoint_anchors.values().map(|(_, cid)| *cid));
        roots.extend(
            self.catching_up
                .values()
                .filter_map(|cu| cu.snapshot.as_ref().map(|s| s.manifest)),
        );
        // Archived checkpoint registries live in the same store; persist
        // them (unchanged AMT subtrees are shared) and pin their roots so
        // a sweep never drops auditable history.
        roots.extend(self.archive.persist(&self.store));
        self.store.prune_unreachable(&roots)
    }

    /// Manually prunes state blobs unreachable from the recent snapshot
    /// manifests (see [`DurableOptions::keep_manifests`] for the automatic
    /// variant). Returns `(pruned_blobs, pruned_bytes)` for this sweep;
    /// lifetime totals accumulate in the store's
    /// [`hc_state::CidStoreStats`].
    pub fn prune_blobs(&mut self) -> (u64, u64) {
        self.gc_now()
    }

    /// The persistence device the runtime journals to, if durable.
    pub fn persistence_device(&self) -> Option<Arc<dyn Persistence>> {
        self.config.persistence.durable().map(|d| d.device.clone())
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The subnets in the hierarchy (always includes the root).
    pub fn subnets(&self) -> impl Iterator<Item = &SubnetId> {
        self.nodes.keys()
    }

    /// Read access to a subnet node.
    pub fn node(&self, subnet: &SubnetId) -> Option<&SubnetNode> {
        self.nodes.get(subnet)
    }

    /// The shared network's traffic statistics.
    pub fn net_stats(&self) -> hc_net::NetStats {
        self.network.stats()
    }

    /// Explicitly places `subnet`'s node in `region`, overriding the
    /// boot-time placement policy. The override is journaled (control log)
    /// so recovery reproduces it, and recorded so a crash–rejoin re-places
    /// the node's fresh subscription.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets and for regions the network's
    /// [`hc_net::RegionMap`] never declared.
    pub fn place_subnet(&mut self, subnet: &SubnetId, region: &str) -> Result<(), RuntimeError> {
        if !self.nodes.contains_key(subnet) {
            return Err(RuntimeError::UnknownSubnet(subnet.clone()));
        }
        if self.network.region_map().region_index(region).is_none() {
            return Err(RuntimeError::Execution(format!(
                "region {region} is not declared in the network's region map"
            )));
        }
        self.apply_region(subnet, region);
        self.journal(&ControlRecord::RegionAssigned {
            subnet: subnet.clone(),
            region: region.to_owned(),
        });
        Ok(())
    }

    /// The region `subnet`'s node is placed in, or `None` for default
    /// (region-less) placement.
    pub fn region_of_subnet(&self, subnet: &SubnetId) -> Option<&str> {
        self.region_assignments.get(subnet).map(String::as_str)
    }

    /// Delivered-latency summary (p50/p99/max) of `subnet`'s gossip topic,
    /// or `None` before its first delivery — the cross-net message-latency
    /// probe of experiment E14.
    pub fn topic_latency(&self, subnet: &SubnetId) -> Option<hc_net::TopicLatency> {
        self.network.topic_latency(&subnet.topic())
    }

    /// The runtime-wide content-addressed blob store holding persisted
    /// state chunks and snapshot manifests (shared by every subnet node).
    pub fn cid_store(&self) -> &hc_state::CidStore {
        &self.store
    }

    /// The newest checkpoint-anchored snapshot boundary of `subnet`: the
    /// checkpoint epoch and the state manifest persisted at its cut. This
    /// is the entry point a [`crate::SyncMode::Snapshot`] rejoin
    /// bootstraps from; `None` until the subnet's first checkpoint.
    pub fn checkpoint_anchor(&self, subnet: &SubnetId) -> Option<(ChainEpoch, Cid)> {
        self.checkpoint_anchors.get(subnet).copied()
    }

    /// Snapshot of the blob store's counters. `put_hits` counts blobs that
    /// were already present when persisted again — i.e. chunks structurally
    /// shared between consecutive snapshots or across subnets.
    pub fn store_stats(&self) -> hc_state::CidStoreStats {
        self.store.stats()
    }

    /// Aggregate verified-signature-cache counters across every subnet
    /// node. All zeros when the cache is disabled
    /// (`sig_cache_capacity: 0`). `hits` counts signature verifications
    /// elided because the exact `(signer, message CID, signature)` triple
    /// already passed full verification on this node.
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        let mut total = SigCacheStats::default();
        for node in self.nodes.values() {
            if let Some(cache) = &node.sig_cache {
                total.merge(cache.stats());
            }
        }
        total
    }

    /// Aggregate mempool admission/eviction counters across every subnet
    /// node (same aggregation discipline as
    /// [`HierarchyRuntime::sig_cache_stats`]). High-water marks sum over
    /// nodes, bounding hierarchy-wide peak memory.
    pub fn mempool_stats(&self) -> MempoolStats {
        let mut total = MempoolStats::default();
        for node in self.nodes.values() {
            total.merge(node.mempool.stats());
        }
        total
    }

    /// One hierarchy-wide snapshot of every message pool: user-message
    /// admission counters plus live occupancy, the cross-net pools'
    /// pending backlogs (paper §IV-B), and resolver activity including
    /// abandoned pulls — the previously unobservable corners of the
    /// message path, folded into a single aggregate.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for node in self.nodes.values() {
            total.mempool.merge(node.mempool.stats());
            total.mempool_pending += node.mempool.len() as u64;
            total.mempool_bytes += node.mempool.occupancy_bytes() as u64;
            total.pending_top_down += node.cross_pool().pending_top_down() as u64;
            total.pending_bottom_up += node.cross_pool().pending_bottom_up() as u64;
            total.resolver.merge(node.resolver.stats());
        }
        total
    }

    /// Drains the per-sender admission counters of `subnet`'s mempool —
    /// the hotness signal the elastic controller samples at evaluation
    /// boundaries. Empty for unknown subnets.
    pub fn take_mempool_activity(&mut self, subnet: &SubnetId) -> BTreeMap<Address, u64> {
        self.nodes
            .get_mut(subnet)
            .map(|n| n.mempool.take_activity())
            .unwrap_or_default()
    }

    /// Returns `true` when `subnet` has no local pending work *and* no
    /// top-down messages waiting for it in its parent's SCA — the drain
    /// condition required before a child can be merged away. `false` for
    /// unknown subnets.
    pub fn subnet_settled(&self, subnet: &SubnetId) -> bool {
        let Some(n) = self.nodes.get(subnet) else {
            return false;
        };
        if !n.is_quiescent() {
            return false;
        }
        let Some(parent) = n.subnet_id.parent() else {
            return true;
        };
        let delivered = self.nodes.get(&parent).is_none_or(|p| {
            p.tree
                .sca()
                .top_down_msgs(&n.subnet_id, n.cross_pool.next_top_down_nonce())
                .is_empty()
        });
        if !delivered {
            return false;
        }
        // Work still routed *into* the subnet from elsewhere in the
        // hierarchy: queued user messages carrying a cross transfer
        // destined here, or resolved bottom-up groups not yet applied.
        // Killing the subnet now would execute those against a dead
        // destination and strand the transfers.
        self.nodes.values().all(|other| {
            !other.cross_pool.routes_into(&n.subnet_id)
                && !other.mempool.iter().any(|m| {
                    matches!(
                        &m.message().method,
                        Method::SendCrossMsg { msg }
                            if n.subnet_id.is_prefix_of(&msg.to.subnet)
                    )
                })
        })
    }

    /// Tokens minted at the root (the global conservation baseline).
    pub fn root_minted(&self) -> TokenAmount {
        self.root_minted
    }

    /// Drains the domain events emitted since the last call.
    pub fn drain_events(&mut self) -> Vec<(SubnetId, VmEvent)> {
        self.events.drain(..).collect()
    }

    /// Internal accessor used by the archive module.
    pub(crate) fn archive_ref(&self) -> &crate::archive::CheckpointArchive {
        &self.archive
    }

    /// Internal mutable accessor used by the archive module (flushing
    /// registry roots and building proofs mutate AMT CID caches).
    pub(crate) fn archive_mut(&mut self) -> &mut crate::archive::CheckpointArchive {
        &mut self.archive
    }

    /// Publishes a raw gossip message on a topic — the adversarial
    /// injection point for network-level attacks (forged certificates,
    /// junk resolution traffic) in tests and experiments.
    pub fn inject_gossip(&mut self, topic: &str, msg: ResolutionMsg) {
        self.network.publish(topic, msg, self.now_ms, None);
    }

    /// Queues an externally produced signed checkpoint at `parent`
    /// (adversarial injection path; honest checkpoints travel via
    /// [`VmEvent::CheckpointCut`] routing).
    pub(crate) fn push_pending_checkpoint(
        &mut self,
        parent: &SubnetId,
        signed: SignedCheckpoint,
    ) -> Result<(), RuntimeError> {
        Self::get_node_mut(&mut self.nodes, parent)?
            .pending_checkpoints
            .push(signed);
        Ok(())
    }

    /// Mutable node access for the attack module.
    pub(crate) fn node_mut_for_attack(&mut self, subnet: &SubnetId) -> Option<&mut SubnetNode> {
        self.nodes.get_mut(subnet)
    }

    pub(crate) fn get_node_mut<'a>(
        nodes: &'a mut BTreeMap<SubnetId, SubnetNode>,
        subnet: &SubnetId,
    ) -> Result<&'a mut SubnetNode, RuntimeError> {
        nodes
            .get_mut(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))
    }

    // ------------------------------------------------------------------
    // Accounts
    // ------------------------------------------------------------------

    /// Creates an account in `subnet` with a fresh key.
    ///
    /// On the rootnet the balance is minted (genesis/faucet, tracked in
    /// [`HierarchyRuntime::root_minted`]); accounts in other subnets must
    /// start empty and be funded by top-down cross-net messages so global
    /// supply stays conserved.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets or non-zero balances off the root.
    pub fn create_user(
        &mut self,
        subnet: &SubnetId,
        balance: TokenAmount,
    ) -> Result<UserHandle, RuntimeError> {
        if !subnet.is_root() && !balance.is_zero() {
            return Err(RuntimeError::NonRootMint);
        }
        let addr = Address::new(self.next_user_id);
        self.next_user_id += 1;
        self.install_user(subnet, addr, balance)?;
        self.journal(&ControlRecord::UserCreated {
            subnet: subnet.clone(),
            addr,
            balance,
        });
        Ok(UserHandle {
            subnet: subnet.clone(),
            addr,
        })
    }

    /// The deterministic wallet key of account `addr` (a pure function of
    /// the runtime seed, so recovery re-derives the same keys).
    pub(crate) fn user_key(&self, addr: Address) -> Keypair {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&addr.id().to_le_bytes());
        seed[8..16].copy_from_slice(&self.config.seed.to_le_bytes());
        seed[16] = 0xac;
        Keypair::from_seed(seed)
    }

    /// Installs account `addr` with its derived key and wallet — the
    /// shared tail of [`HierarchyRuntime::create_user`] and its recovery
    /// replay.
    fn install_user(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
        balance: TokenAmount,
    ) -> Result<(), RuntimeError> {
        let key = self.user_key(addr);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        self.user_installs
            .entry(subnet.clone())
            .or_default()
            .push((node.next_epoch, addr));
        let acc = node.tree.accounts_mut().get_or_create(addr);
        acc.key = Some(key.public());
        acc.balance = balance;
        if subnet.is_root() {
            self.root_minted += balance;
        }
        self.wallets.insert(
            (subnet.clone(), addr),
            Wallet {
                key,
                next_nonce: Nonce::ZERO,
            },
        );
        Ok(())
    }

    /// Installs an *existing* logical account in another subnet: same
    /// address, same derived key, starting empty — the account-migration
    /// step of elastic scale-out. The caller funds the new home with a
    /// cross-net transfer from the old one; adoption itself never touches
    /// balances (the account may already have received funds top-down).
    /// Idempotent: re-adopting an address that already has a wallet in
    /// `subnet` is a no-op.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets.
    pub fn adopt_user(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
    ) -> Result<UserHandle, RuntimeError> {
        let handle = UserHandle {
            subnet: subnet.clone(),
            addr,
        };
        if self.wallets.contains_key(&(subnet.clone(), addr)) {
            return Ok(handle);
        }
        self.install_adopted(subnet, addr)?;
        self.journal(&ControlRecord::UserAdopted {
            subnet: subnet.clone(),
            addr,
        });
        Ok(handle)
    }

    /// The shared tail of [`HierarchyRuntime::adopt_user`] and its
    /// recovery replay: installs the derived key and a wallet whose nonce
    /// cursor continues from the account's executed nonce, and preserves
    /// any balance already present.
    fn install_adopted(&mut self, subnet: &SubnetId, addr: Address) -> Result<(), RuntimeError> {
        let key = self.user_key(addr);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        self.user_installs
            .entry(subnet.clone())
            .or_default()
            .push((node.next_epoch, addr));
        let acc = node.tree.accounts_mut().get_or_create(addr);
        acc.key = Some(key.public());
        let next_nonce = acc.nonce;
        self.wallets
            .insert((subnet.clone(), addr), Wallet { key, next_nonce });
        Ok(())
    }

    /// Balance of a user account (zero for unknown accounts).
    pub fn balance(&self, user: &UserHandle) -> TokenAmount {
        self.nodes
            .get(&user.subnet)
            .and_then(|n| n.tree.accounts().get(user.addr))
            .map(|a| a.balance)
            .unwrap_or(TokenAmount::ZERO)
    }

    /// Signs a message for `user` with its tracked nonce and queues it in
    /// the subnet's mempool. Returns the message CID.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn submit(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<Cid, RuntimeError> {
        let signed = self.sign_message(user, to, value, method)?;
        // Seal at admission: the message CID computed here is memoized and
        // reused by dedup, signature verification, block production, and
        // receipt lookup — it is never recomputed downstream.
        let sealed = SealedMessage::new(signed);
        let cid = sealed.msg_cid();
        let node = Self::get_node_mut(&mut self.nodes, &user.subnet)?;
        node.mempool.push_sealed(sealed);
        self.reconcile_evictions(&user.subnet);
        Ok(cid)
    }

    /// [`HierarchyRuntime::submit`] with an explicit fee bid. The fee is
    /// node-local admission metadata (not part of the canonical message
    /// encoding): it orders selection and decides who is evicted when the
    /// pool's byte bound overflows. Returns the message CID and the
    /// admission outcome — under overload the message may itself be the
    /// eviction victim ([`hc_chain::PushOutcome::Full`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn submit_with_fee(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
        fee: u64,
    ) -> Result<(Cid, hc_chain::PushOutcome), RuntimeError> {
        let signed = self.sign_message(user, to, value, method)?;
        let sealed = SealedMessage::new(signed);
        let cid = sealed.msg_cid();
        let node = Self::get_node_mut(&mut self.nodes, &user.subnet)?;
        let outcome = node.mempool.push_sealed_with_fee(sealed, fee);
        self.reconcile_evictions(&user.subnet);
        Ok((cid, outcome))
    }

    /// Reconciles wallet signing cursors with admission-control drops on
    /// `subnet`'s pool. An evicted message's nonce never executes, so the
    /// sender's cursor rewinds to the lowest dropped nonce — the next
    /// submission re-signs it instead of stranding every later message
    /// behind a permanent lane gap.
    fn reconcile_evictions(&mut self, subnet: &SubnetId) {
        let Some(node) = self.nodes.get_mut(subnet) else {
            return;
        };
        for (addr, nonce) in node.mempool.drain_evictions() {
            if let Some(w) = self.wallets.get_mut(&(subnet.clone(), addr)) {
                if nonce < w.next_nonce {
                    w.next_nonce = nonce;
                }
            }
        }
    }

    fn sign_message(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<SignedMessage, RuntimeError> {
        let wallet = self
            .wallets
            .get_mut(&(user.subnet.clone(), user.addr))
            .ok_or_else(|| RuntimeError::UnknownUser(user.clone()))?;
        let msg = Message {
            from: user.addr,
            to,
            value,
            nonce: wallet.next_nonce.fetch_increment(),
            method,
        };
        Ok(msg.sign(&wallet.key))
    }

    /// Submits a message and immediately produces a block on the user's
    /// subnet, returning the message's receipt.
    ///
    /// # Errors
    ///
    /// Fails if the message is not included or reports a non-OK exit.
    pub fn execute(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<Receipt, RuntimeError> {
        let subnet = user.subnet.clone();
        // Maximal fee bid: lifecycle operations driven through `execute`
        // (spawn, kill, fund recovery) must not lose the admission
        // auction to a backlogged fee-paying pool.
        let (cid, _) = self.submit_with_fee(user, to, value, method, u64::MAX)?;
        // A block's implicit payload (cross-net applies, checkpoint
        // commits) can consume its whole capacity under load, so allow a
        // bounded number of follow-up blocks before declaring failure.
        const INCLUSION_BLOCKS: usize = 16;
        for _ in 0..INCLUSION_BLOCKS {
            self.tick_subnet(&subnet)?;
            let node = self
                .nodes
                .get(&subnet)
                .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
            if let Some(rec) = node.last_receipts.get(&cid).cloned() {
                return if rec.exit.is_ok() {
                    Ok(rec)
                } else {
                    Err(RuntimeError::Execution(rec.exit.to_string()))
                };
            }
        }
        Err(RuntimeError::Execution(
            "message not included in block".into(),
        ))
    }

    // ------------------------------------------------------------------
    // Subnet lifecycle (paper §III)
    // ------------------------------------------------------------------

    /// Spawns a child subnet of `creator`'s subnet: deploys the Subnet
    /// Actor, registers it with the SCA (freezing `collateral` from the
    /// creator), joins the given validators with their stakes, and boots
    /// the child chain (paper §III-A).
    ///
    /// # Errors
    ///
    /// Fails if any stage of the flow fails (insufficient funds, duplicate
    /// registration, validators on the wrong subnet, …).
    pub fn spawn_subnet(
        &mut self,
        creator: &UserHandle,
        sa_config: SaConfig,
        collateral: TokenAmount,
        validators: &[(UserHandle, TokenAmount)],
    ) -> Result<SubnetId, RuntimeError> {
        let params = self.config.engine_params.clone();
        self.spawn_subnet_with_params(creator, sa_config, collateral, validators, params)
    }

    /// [`HierarchyRuntime::spawn_subnet`] with subnet-specific consensus
    /// engine parameters — "each subnet can … set its own security and
    /// performance guarantees" (paper §I): block time, capacity, network
    /// delay, fault rate, and leader count can all differ per subnet.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchyRuntime::spawn_subnet`].
    pub fn spawn_subnet_with_params(
        &mut self,
        creator: &UserHandle,
        sa_config: SaConfig,
        collateral: TokenAmount,
        validators: &[(UserHandle, TokenAmount)],
        engine_params: EngineParams,
    ) -> Result<SubnetId, RuntimeError> {
        let parent = creator.subnet.clone();
        let boot_config = sa_config.clone();

        // 1. Deploy the Subnet Actor.
        let rec = self.execute(
            creator,
            Address::SYSTEM,
            TokenAmount::ZERO,
            Method::DeploySubnetActor { config: sa_config },
        )?;
        let sa_bytes: [u8; 8] = rec
            .ret
            .as_slice()
            .try_into()
            .map_err(|_| RuntimeError::Spawn("deploy returned no address".into()))?;
        let sa = Address::new(u64::from_le_bytes(sa_bytes));

        // 2. Register with the parent SCA.
        self.execute(
            creator,
            Address::SCA,
            collateral,
            Method::RegisterSubnet { sa },
        )?;
        let child_id = parent.child(sa);

        // 3. Validators join.
        for (v, stake) in validators {
            if v.subnet != parent {
                return Err(RuntimeError::Spawn(format!(
                    "validator {} lives in {}, not the parent {}",
                    v.addr, v.subnet, parent
                )));
            }
            let key = self
                .wallets
                .get(&(parent.clone(), v.addr))
                .ok_or_else(|| RuntimeError::UnknownUser(v.clone()))?
                .key
                .public();
            self.execute(v, sa, *stake, Method::JoinSubnet { key })?;
        }

        // 4. Boot the child chain.
        self.boot_child_node(&child_id, &boot_config, &engine_params);
        self.attach_chain_journal(&child_id);
        self.journal(&ControlRecord::SubnetBoot {
            child: child_id.clone(),
            config: boot_config,
            engine_params,
        });
        // After SubnetBoot so replay sees records in dependency order.
        if let Some(region) = self.region_assignments.get(&child_id).cloned() {
            self.journal(&ControlRecord::RegionAssigned {
                subnet: child_id.clone(),
                region,
            });
        }
        Ok(child_id)
    }

    /// Boots a child subnet's node structure (spawn step 4) — the shared
    /// tail of [`HierarchyRuntime::spawn_subnet_with_params`] and its
    /// recovery replay. The parent-side actor state (SA deployment,
    /// registration, joins) is *not* created here; it comes from executed
    /// blocks.
    fn boot_child_node(
        &mut self,
        child_id: &SubnetId,
        config: &SaConfig,
        engine_params: &EngineParams,
    ) {
        let Some(parent) = child_id.parent() else {
            return;
        };
        let subscription = self.network.subscribe(&child_id.topic());
        // Child nodes also run full nodes on the parent (paper §II): they
        // follow the parent's topic for resolution traffic.
        self.network.join(subscription, &parent.topic());
        let node = self.genesis_node(
            child_id,
            config.checkpoint_period,
            make_engine(config.consensus, engine_params.clone()),
            Mempool::with_config(self.config.mempool),
            subscription,
            self.now_ms + engine_params.block_time_ms,
        );
        self.nodes.insert(child_id.clone(), node);
        // Remembered so a crashed node can be rebuilt from genesis at
        // rejoin ([`HierarchyRuntime::rejoin_node`]).
        self.boot_params
            .insert(child_id.clone(), (config.clone(), engine_params.clone()));
        self.assign_boot_region(child_id);
        self.refresh_validators(child_id);
    }

    /// Refreshes a child node's validator set and keys from the parent's
    /// Subnet Actor (membership changes take effect as the child syncs the
    /// parent chain).
    pub(crate) fn refresh_validators(&mut self, subnet: &SubnetId) {
        let Some(parent) = subnet.parent() else {
            return;
        };
        let Some(sa_addr) = subnet.actor() else {
            return;
        };
        let Some(parent_node) = self.nodes.get(&parent) else {
            return;
        };
        let Some(sa) = parent_node.tree.sa(sa_addr) else {
            return;
        };
        let set = ValidatorSet::from_sa(sa);
        let keys: Vec<Keypair> = set
            .validators()
            .iter()
            .filter_map(|v| {
                self.wallets
                    .get(&(parent.clone(), v.addr))
                    .map(|w| w.key.clone())
            })
            .collect();
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.validators = set;
            node.validator_keys = keys;
        }
    }

    /// Registers a subnet user's identity on the *parent* chain so it can
    /// act there — most importantly to claim recovered funds after its
    /// subnet was killed (paper §III-C). The parent account reuses the
    /// same address and signing key, starting with zero balance.
    ///
    /// # Errors
    ///
    /// Fails for root users (no parent) or unmanaged users.
    pub fn create_claimant(&mut self, user: &UserHandle) -> Result<UserHandle, RuntimeError> {
        let parent = user
            .subnet
            .parent()
            .ok_or_else(|| RuntimeError::Execution("root users have no parent chain".into()))?;
        let key = self
            .wallets
            .get(&(user.subnet.clone(), user.addr))
            .ok_or_else(|| RuntimeError::UnknownUser(user.clone()))?
            .key
            .clone();
        let node = Self::get_node_mut(&mut self.nodes, &parent)?;
        let acc = node.tree.accounts_mut().get_or_create(user.addr);
        if acc.key.is_none() {
            acc.key = Some(key.public());
        }
        self.wallets
            .entry((parent.clone(), user.addr))
            .or_insert(Wallet {
                key,
                next_nonce: Nonce::ZERO,
            });
        self.journal(&ControlRecord::ClaimantCreated {
            subnet: user.subnet.clone(),
            addr: user.addr,
        });
        Ok(UserHandle {
            subnet: parent,
            addr: user.addr,
        })
    }

    /// Removes a killed, fully drained leaf subnet's node from the
    /// hierarchy — the final step of elastic scale-in after traffic was
    /// rehomed, the subnet killed via [`Method::KillSubnet`], and funds
    /// recovered on the parent. Retirement only tears down runtime
    /// machinery (node, wallets, anchors); fund recovery stays possible
    /// afterwards because it runs on the *parent* against the saved
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Refused for the root, subnets with live children, crashed or
    /// catching-up subnets, subnets whose SA is not killed on the parent,
    /// or subnets that still hold pending work.
    pub fn retire_subnet(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let parent = subnet
            .parent()
            .ok_or_else(|| RuntimeError::Retire("the root cannot be retired".into()))?;
        if !self.nodes.contains_key(subnet) {
            return Err(RuntimeError::UnknownSubnet(subnet.clone()));
        }
        if self
            .nodes
            .keys()
            .any(|s| s.parent().as_ref() == Some(subnet))
        {
            return Err(RuntimeError::Retire(format!(
                "{subnet} still has live child subnets"
            )));
        }
        if self.crashed.contains_key(subnet) || self.catching_up.contains_key(subnet) {
            return Err(RuntimeError::Retire(format!(
                "{subnet} is crashed or catching up"
            )));
        }
        let status = self
            .nodes
            .get(&parent)
            .and_then(|p| p.tree.sca().subnet(subnet))
            .map(|info| info.status);
        if status != Some(hc_actors::SubnetStatus::Killed) {
            return Err(RuntimeError::Retire(format!(
                "{subnet} must be killed on its parent before retirement"
            )));
        }
        let node = self.nodes.get(subnet).expect("checked above");
        if !node.is_quiescent() {
            return Err(RuntimeError::Retire(format!(
                "{subnet} still holds pending work"
            )));
        }
        self.retire_node(subnet);
        self.journal(&ControlRecord::SubnetRetired {
            subnet: subnet.clone(),
        });
        Ok(())
    }

    /// The shared tail of [`HierarchyRuntime::retire_subnet`] and its
    /// recovery replay: drops the node and every piece of runtime state
    /// keyed by the subnet, and takes its network subscription offline so
    /// undeliverable traffic stops queueing.
    fn retire_node(&mut self, subnet: &SubnetId) {
        if let Some(node) = self.nodes.remove(subnet) {
            self.network.set_offline(node.subscription, true);
        }
        self.wallets.retain(|(s, _), _| s != subnet);
        self.user_installs.remove(subnet);
        self.checkpoint_anchors.remove(subnet);
        self.recent_manifests.remove(subnet);
        self.boot_params.remove(subnet);
        self.snapshot_bases.remove(subnet);
    }

    /// Builds a balance snapshot of `subnet` from its current state, signs
    /// it with the subnet's validators, and persists it in the parent's
    /// SCA through `submitter` (a funded parent-chain user). Returns the
    /// prover-side [`hc_actors::SnapshotTree`] from which users mint
    /// recovery proofs (paper §III-C).
    ///
    /// # Errors
    ///
    /// Fails for root/unknown subnets or if the persist message fails.
    pub fn save_snapshot(
        &mut self,
        submitter: &UserHandle,
        subnet: &SubnetId,
    ) -> Result<hc_actors::SnapshotTree, RuntimeError> {
        let Some(parent) = subnet.parent() else {
            return Err(RuntimeError::Execution(
                "the rootnet has no parent to persist snapshots in".into(),
            ));
        };
        if submitter.subnet != parent {
            return Err(RuntimeError::Execution(format!(
                "snapshots of {subnet} are persisted in {parent}; the submitter lives in {}",
                submitter.subnet
            )));
        }
        let (snapshot, tree, signatures) = {
            let node = self
                .nodes
                .get(subnet)
                .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
            // Snapshot user balances only: system-actor balances (escrow,
            // burnt funds, rewards) are protocol bookkeeping, not
            // user-recoverable value.
            let balances = node
                .tree
                .accounts()
                .iter()
                .filter(|(addr, acc)| !addr.is_system() && !acc.balance.is_zero())
                .map(|(addr, acc)| (*addr, acc.balance));
            let (snapshot, tree) =
                hc_actors::StateSnapshot::build(subnet.clone(), node.chain.head_epoch(), balances);
            let mut signatures = hc_types::crypto::AggregateSignature::new();
            let bytes = snapshot.cid();
            for key in &node.validator_keys {
                signatures.add(key.sign(bytes.as_bytes()));
            }
            (snapshot, tree, signatures)
        };
        self.execute(
            submitter,
            Address::SCA,
            TokenAmount::ZERO,
            Method::SaveSnapshot {
                snapshot,
                signatures,
            },
        )?;
        // Persist the child's full state alongside the balance snapshot:
        // the chunk manifest in the shared CidStore structurally shares
        // every chunk unchanged since the last persist.
        if let Some(node) = self.nodes.get_mut(subnet) {
            let manifest = node.tree.persist(&node.store);
            node.stats.state_persists += 1;
            self.journal(&ControlRecord::SnapshotAnchor {
                subnet: subnet.clone(),
                manifest,
            });
            self.track_manifest(subnet, manifest);
        }
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Cross-net messages (paper §IV)
    // ------------------------------------------------------------------

    /// Sends a cross-net token transfer from one user to an address in
    /// another subnet and commits it in the source chain (one block is
    /// produced there). Propagation to the destination happens as the
    /// hierarchy advances ([`HierarchyRuntime::step`] /
    /// [`HierarchyRuntime::run_until_quiescent`]).
    ///
    /// # Errors
    ///
    /// Fails if the source-side commit fails (insufficient funds, inactive
    /// subnet, …).
    pub fn cross_transfer(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
    ) -> Result<(), RuntimeError> {
        let msg = CrossMsg::transfer(from.hc_address(), to.hc_address(), amount);
        self.send_cross_msg(from, msg)
    }

    /// Queues a cross-net transfer in the source mempool without forcing a
    /// block — the batching-friendly variant of
    /// [`HierarchyRuntime::cross_transfer`] used by workload generators.
    /// Failures surface in the block receipt rather than here.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn cross_transfer_lazy(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
    ) -> Result<Cid, RuntimeError> {
        let fee = self
            .nodes
            .get(&from.subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(from.subnet.clone()))?
            .tree
            .sca()
            .config()
            .cross_msg_fee;
        let msg = CrossMsg::transfer(from.hc_address(), to.hc_address(), amount);
        let value = msg.value + fee;
        self.submit(from, Address::SCA, value, Method::SendCrossMsg { msg })
    }

    /// [`HierarchyRuntime::cross_transfer_lazy`] with an admission fee bid
    /// (see [`HierarchyRuntime::submit_with_fee`]): cross-net traffic
    /// competes for bounded mempool space on equal terms with local
    /// traffic.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn cross_transfer_lazy_with_fee(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
        fee: u64,
    ) -> Result<(Cid, hc_chain::PushOutcome), RuntimeError> {
        let cross_fee = self
            .nodes
            .get(&from.subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(from.subnet.clone()))?
            .tree
            .sca()
            .config()
            .cross_msg_fee;
        let msg = CrossMsg::transfer(from.hc_address(), to.hc_address(), amount);
        let value = msg.value + cross_fee;
        self.submit_with_fee(from, Address::SCA, value, Method::SendCrossMsg { msg }, fee)
    }

    /// Sends an arbitrary cross-net message originated by `from`.
    ///
    /// # Errors
    ///
    /// Fails if the source-side commit fails.
    pub fn send_cross_msg(&mut self, from: &UserHandle, msg: CrossMsg) -> Result<(), RuntimeError> {
        let fee = self
            .nodes
            .get(&from.subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(from.subnet.clone()))?
            .tree
            .sca()
            .config()
            .cross_msg_fee;
        let value = msg.value + fee;
        self.execute(from, Address::SCA, value, Method::SendCrossMsg { msg })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Advances the hierarchy by one block: the subnet with the earliest
    /// scheduled block produces it.
    ///
    /// # Errors
    ///
    /// Propagates internal failures (which indicate bugs, not user error).
    pub fn step(&mut self) -> Result<StepReport, RuntimeError> {
        self.process_fault_events()?;
        let subnet = self
            .nodes
            .values()
            .min_by(|a, b| {
                a.next_block_at_ms
                    .cmp(&b.next_block_at_ms)
                    .then_with(|| a.subnet_id.cmp(&b.subnet_id))
            })
            .map(|n| n.subnet_id.clone())
            .expect("hierarchy always has the root");
        self.tick_subnet(&subnet)
    }

    /// The subnets forming the next *wave*: the longest prefix of the
    /// earliest-deadline order whose members (i) are due back-to-back on
    /// the virtual clock and (ii) are pairwise hierarchy-independent.
    ///
    /// Taking a strict prefix (stopping at the first violation instead of
    /// skipping past it) keeps the wave identical to the run of blocks a
    /// sequential [`HierarchyRuntime::step`] loop would produce next. The
    /// ancestor/descendant exclusion keeps checkpoint submission and
    /// top-down sync — the flows that couple a parent and its children —
    /// strictly across waves, never within one.
    fn wave_members(&self) -> Vec<SubnetId> {
        let mut order: Vec<&SubnetNode> = self.nodes.values().collect();
        order.sort_by(|a, b| {
            a.next_block_at_ms
                .cmp(&b.next_block_at_ms)
                .then_with(|| a.subnet_id.cmp(&b.subnet_id))
        });
        let mut members: Vec<SubnetId> = Vec::new();
        let mut sim_now = self.now_ms;
        for node in order {
            if !members.is_empty() {
                if node.next_block_at_ms > sim_now + 1 {
                    break; // the first schedule gap ends the wave
                }
                let related = members
                    .iter()
                    .any(|m| m.is_ancestor_of(&node.subnet_id) || node.subnet_id.is_ancestor_of(m));
                if related {
                    break;
                }
            }
            sim_now = node.next_block_at_ms.max(sim_now + 1);
            members.push(node.subnet_id.clone());
        }
        members
    }

    /// Advances the hierarchy by one *wave* of blocks: every subnet due
    /// back-to-back at the minimum scheduled time produces its next block,
    /// with the pure per-subnet phase running concurrently on up to
    /// [`RuntimeConfig::parallelism`] threads.
    ///
    /// A wave runs in three phases:
    ///
    /// 1. *pre* — sequential, canonical order: validator refresh, clock
    ///    advance, network poll, parent sync, content resolution.
    /// 2. *(a)* — concurrent: block assembly, consensus, execution, and
    ///    commit against each subnet's own node only.
    /// 3. *(b)* — sequential, canonical order: checkpoint archiving, event
    ///    routing, registry pruning.
    ///
    /// Phase (a) touches no shared state (each node owns its private
    /// randomness stream), so the result is bit-identical at every
    /// `parallelism` setting, including `1`.
    ///
    /// # Errors
    ///
    /// Propagates internal failures (which indicate bugs, not user error).
    pub fn step_wave(&mut self) -> Result<Vec<StepReport>, RuntimeError> {
        self.process_fault_events()?;
        let members = self.wave_members();

        // Phase pre: sequential cross-net intake, advancing the clock.
        let mut waved: Vec<(SubnetId, u64)> = Vec::with_capacity(members.len());
        for subnet in members {
            let at_ms = self.pre_tick(&subnet)?;
            waved.push((subnet, at_ms));
        }

        // Phase (a): pure per-subnet block production, concurrent. The
        // nodes are moved out of the map so each worker owns its slice.
        let mut entries: Vec<(SubnetNode, u64)> = Vec::with_capacity(waved.len());
        for (subnet, at_ms) in &waved {
            let node = self
                .nodes
                .remove(subnet)
                .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
            entries.push((node, *at_ms));
        }
        let workers = self.config.parallelism.max(1).min(entries.len().max(1));
        let config = &self.config;
        let outcomes: Vec<Result<LocalOutcome, RuntimeError>> = if workers > 1 {
            let chunk_len = entries.len().div_ceil(workers);
            let mut collected = Vec::with_capacity(entries.len());
            std::thread::scope(|scope| {
                // The first chunk runs on the calling thread — one fewer
                // spawn per wave, and at `workers == 2` half the overhead.
                let mut chunks = entries.chunks_mut(chunk_len);
                let inline = chunks.next();
                let handles: Vec<_> = chunks
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|(node, at_ms)| Self::produce_local(node, config, *at_ms))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                if let Some(chunk) = inline {
                    collected.extend(
                        chunk
                            .iter_mut()
                            .map(|(node, at_ms)| Self::produce_local(node, config, *at_ms)),
                    );
                }
                for handle in handles {
                    collected.extend(handle.join().expect("wave worker panicked"));
                }
            });
            collected
        } else {
            entries
                .iter_mut()
                .map(|(node, at_ms)| Self::produce_local(node, config, *at_ms))
                .collect()
        };
        // Reinsert every node before surfacing any error so a failed wave
        // never loses subnets from the hierarchy.
        for (node, _) in entries {
            self.nodes.insert(node.subnet_id.clone(), node);
        }

        // Phase (b): sequential application of outward effects, in the
        // same canonical order.
        let mut reports = Vec::with_capacity(waved.len());
        for ((subnet, at_ms), outcome) in waved.into_iter().zip(outcomes) {
            reports.push(self.post_tick(&subnet, outcome?, at_ms)?);
        }
        Ok(reports)
    }

    /// Steps until every node is quiescent (no cross-net work in flight)
    /// or at least `max_blocks` have been produced. Returns the number of
    /// blocks produced. With [`RuntimeConfig::parallelism`] above `1` the
    /// hierarchy advances wave-by-wave ([`HierarchyRuntime::step_wave`])
    /// and may overshoot `max_blocks` by at most one wave.
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_until_quiescent(&mut self, max_blocks: usize) -> Result<usize, RuntimeError> {
        if self.config.parallelism > 1 {
            let mut produced = 0;
            while produced < max_blocks {
                if self.all_quiescent() {
                    break;
                }
                produced += self.step_wave()?.len();
            }
            return Ok(produced);
        }
        for produced in 0..max_blocks {
            if self.all_quiescent() {
                return Ok(produced);
            }
            self.step()?;
        }
        Ok(max_blocks)
    }

    /// Produces `n` blocks (hierarchy-wide, earliest-deadline order).
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_blocks(&mut self, n: usize) -> Result<(), RuntimeError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Returns `true` when no node has cross-net work in flight, locally
    /// or waiting in its parent's SCA top-down queue.
    pub fn all_quiescent(&self) -> bool {
        // A crashed or still-catching-up node has work in flight by
        // definition: the hierarchy is not settled until it has rejoined
        // and replayed everything it missed.
        if !self.crashed.is_empty() || !self.catching_up.is_empty() {
            return false;
        }
        // So do unfired crash faults: quiescing before a scheduled crash
        // would end a chaos run early.
        if self
            .crash_plan
            .iter()
            .any(|(_, phase)| *phase != crate::chaos::CrashPhase::Done)
        {
            return false;
        }
        self.nodes.values().all(|n| {
            if !n.is_quiescent() {
                return false;
            }
            let Some(parent) = n.subnet_id.parent() else {
                return true;
            };
            self.nodes.get(&parent).is_none_or(|p| {
                p.tree
                    .sca()
                    .top_down_msgs(&n.subnet_id, n.cross_pool.next_top_down_nonce())
                    .is_empty()
            })
        })
    }

    /// Produces one block on `subnet` (at its scheduled time), running the
    /// full per-block pipeline: network poll, parent sync, content
    /// resolution, proposal, execution, and post-block event routing.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets or internal consensus/chain errors.
    pub fn tick_subnet(&mut self, subnet: &SubnetId) -> Result<StepReport, RuntimeError> {
        let at_ms = self.pre_tick(subnet)?;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let outcome = Self::produce_local(node, &self.config, at_ms)?;
        self.post_tick(subnet, outcome, at_ms)
    }

    /// Phase *pre* of a tick: cross-net intake against shared state —
    /// validator refresh from the parent SA, clock advance, network poll,
    /// parent-chain sync, and content resolution. Returns the block's
    /// virtual time.
    fn pre_tick(&mut self, subnet: &SubnetId) -> Result<u64, RuntimeError> {
        self.refresh_validators(subnet);
        // Blocks form a total order on the global virtual clock: each block
        // lands strictly after every previously produced block (causal
        // consistency for cross-chain reads), and never before the node's
        // own schedule.
        let at_ms = {
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            node.next_block_at_ms.max(self.now_ms + 1)
        };
        self.now_ms = at_ms;

        self.poll_network(subnet, at_ms)?;
        self.sync_parent(subnet)?;
        self.resolve_pending(subnet, at_ms)?;
        Ok(at_ms)
    }

    /// Garbage-collects acknowledged top-down messages from the parent's
    /// registry: everything below the nonce this child has already pulled
    /// is settled history. The registry is transport bookkeeping outside
    /// the state root, so pruning never perturbs consensus.
    fn prune_parent_registry(&mut self, subnet: &SubnetId) {
        let Some(parent) = subnet.parent() else {
            return;
        };
        let Some(next) = self
            .nodes
            .get(subnet)
            .map(|n| n.cross_pool.next_top_down_nonce())
        else {
            return;
        };
        if let Some(parent_node) = self.nodes.get_mut(&parent) {
            parent_node.tree.sca_mut().prune_top_down(subnet, next);
        }
    }

    /// Ingests pub-sub traffic for the node and answers pull requests.
    fn poll_network(&mut self, subnet: &SubnetId, now_ms: u64) -> Result<(), RuntimeError> {
        let sub = self
            .nodes
            .get(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?
            .subscription;
        let incoming = self.network.poll(sub, now_ms);
        let mut replies: Vec<(String, ResolutionMsg)> = Vec::new();
        let mut certs = Vec::new();
        {
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            for msg in incoming {
                if let ResolutionMsg::Certificate(cert) = msg {
                    certs.push(*cert);
                    continue;
                }
                // The resolver cache dies with the process, but the SCA
                // registry is canonical state and survives crash recovery
                // — re-seed on demand so a rejoined node still serves
                // pulls for groups it checkpointed before the crash (the
                // registry is the authoritative store; the cache is only
                // its hot front).
                if let ResolutionMsg::Pull { cid, .. } = &msg {
                    if node.resolver.cache().get(cid).is_none() {
                        if let Some(msgs) = node
                            .tree
                            .sca()
                            .resolve_content(cid)
                            .map(<[CrossMsg]>::to_vec)
                        {
                            node.resolver.seed(*cid, msgs);
                        }
                    }
                }
                if let Some(reply) = node.resolver.handle(msg) {
                    replies.push(reply);
                }
            }
        }
        for cert in certs {
            self.ingest_certificate(subnet, cert);
        }
        for (topic, msg) in replies {
            // State the replying node as origin so region-scoped rules
            // see the true (from, to) region pair.
            self.network
                .publish_from(&topic, msg, now_ms, None, Some(sub));
        }
        Ok(())
    }

    /// Validates a received fund certificate against the *source's* Subnet
    /// Actor (read from the chain that hosts it — in this in-process
    /// simulation that mirrors the light-client read a real node performs
    /// on the ancestor chains it tracks) and records it as a pending
    /// payment. Invalid or unverifiable certificates are dropped.
    pub(crate) fn ingest_certificate(
        &mut self,
        subnet: &SubnetId,
        cert: hc_actors::FundCertificate,
    ) {
        if cert.body.msg.to.subnet != *subnet {
            return;
        }
        let source = &cert.body.msg.from.subnet;
        let Some(parent) = source.parent() else {
            return; // the rootnet needs no certificates
        };
        let Some(sa_addr) = source.actor() else {
            return;
        };
        let Some(sa) = self.nodes.get(&parent).and_then(|n| n.tree.sa(sa_addr)) else {
            return;
        };
        if cert.verify(sa).is_err() {
            return;
        }
        let key = cert.body.msg.cid();
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.tentative.entry(key).or_insert(cert);
        }
    }

    /// Child-side sync with the parent chain: pulls newly committed
    /// top-down messages (paper Fig. 3, left).
    fn sync_parent(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let Some(parent) = subnet.parent() else {
            return Ok(());
        };
        let from_nonce = self
            .nodes
            .get(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?
            .cross_pool
            .next_top_down_nonce();
        let msgs = self
            .nodes
            .get(&parent)
            .map(|p| p.tree.sca().top_down_msgs(subnet, from_nonce))
            .unwrap_or_default();
        if !msgs.is_empty() {
            Self::get_node_mut(&mut self.nodes, subnet)?
                .cross_pool
                .ingest_top_down(msgs);
        }
        Ok(())
    }

    /// Attempts to resolve pending bottom-up metas and turnaround metas;
    /// publishes pull requests for misses (paper §IV-C). Each miss goes
    /// through the resolver's per-request timeout/backoff tracker
    /// ([`Resolver::should_pull`]): the first miss pulls immediately,
    /// repeat misses wait out the capped exponential backoff, and once a
    /// bounded retry budget is spent the request is abandoned — counted in
    /// [`hc_net::ResolverStats::pulls_abandoned`], never silently lost.
    fn resolve_pending(&mut self, subnet: &SubnetId, now_ms: u64) -> Result<(), RuntimeError> {
        let own_topic = subnet.topic();
        let mut pulls: Vec<(String, ResolutionMsg)> = Vec::new();
        let origin;
        {
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            origin = node.subscription;
            for meta in node.cross_pool.unresolved_metas() {
                match node.resolver.lookup_or_pull(meta.msgs_cid, &own_topic) {
                    Ok(msgs) => {
                        node.cross_pool.resolve(meta.msgs_cid, msgs);
                    }
                    Err(pull) => {
                        if node.resolver.should_pull(meta.msgs_cid, now_ms) == PullDecision::Send {
                            pulls.push((meta.from.topic(), pull));
                        }
                    }
                }
            }
            let unresolved = std::mem::take(&mut node.unresolved_turnarounds);
            let mut still_unresolved = Vec::new();
            for meta in unresolved {
                match node.resolver.lookup_or_pull(meta.msgs_cid, &own_topic) {
                    Ok(msgs) => node.pending_turnarounds.push((meta, msgs)),
                    Err(pull) => {
                        if node.resolver.should_pull(meta.msgs_cid, now_ms) == PullDecision::Send {
                            pulls.push((meta.from.topic(), pull));
                        }
                        still_unresolved.push(meta);
                    }
                }
            }
            node.unresolved_turnarounds = still_unresolved;
        }
        for (topic, pull) in pulls {
            // The pulling node is the origin: a pull that must cross a
            // severed or degraded region pair is subject to those rules.
            self.network
                .publish_from(&topic, pull, now_ms, None, Some(origin));
        }
        Ok(())
    }

    /// Phase (a) of a tick: builds, executes, and commits the next block
    /// of `node`'s subnet, touching nothing but the node itself. Being a
    /// pure function of the node (randomness included — see
    /// [`SubnetNode::rng`]) is what lets [`HierarchyRuntime::step_wave`]
    /// run this concurrently across the subnets of a wave.
    fn produce_local(
        node: &mut SubnetNode,
        config: &RuntimeConfig,
        at_ms: u64,
    ) -> Result<LocalOutcome, RuntimeError> {
        let subnet = node.subnet_id.clone();
        let is_root = subnet.is_root();
        let epoch = node.next_epoch;

        let opportunity = node
            .engine
            .next_block(epoch, &node.validators, &mut node.rng)
            .map_err(|e| RuntimeError::Execution(format!("consensus: {e}")))?;

        // Assemble implicit messages: child checkpoints, turnarounds,
        // cross-net applications, and the checkpoint cut.
        let mut implicit: Vec<ImplicitMsg> = Vec::new();
        for signed in node.pending_checkpoints.drain(..) {
            implicit.push(ImplicitMsg::CommitChildCheckpoint { signed });
        }
        for (meta, msgs) in node.pending_turnarounds.drain(..) {
            implicit.push(ImplicitMsg::CommitTurnaround { meta, msgs });
        }
        let (tds, bus) = node.cross_pool.take_proposable(opportunity.capacity);
        for m in tds {
            implicit.push(ImplicitMsg::ApplyTopDown(m));
        }
        for (meta, msgs) in bus {
            implicit.push(ImplicitMsg::ApplyBottomUp { meta, msgs });
        }
        if !is_root && node.tree.sca().is_checkpoint_epoch(epoch) {
            implicit.push(ImplicitMsg::CutCheckpoint {
                proof: node.chain.head(),
            });
        }
        if node.tree.atomic().has_pending() {
            implicit.push(ImplicitMsg::SweepAtomicTimeouts {
                timeout: config.atomic_timeout_epochs,
            });
        }

        let budget = opportunity.capacity.saturating_sub(implicit.len());
        let signed_msgs = node.mempool.select(budget);

        let proposer_key = node
            .validator_keys
            .get(opportunity.proposer)
            .or_else(|| node.validator_keys.first())
            .cloned()
            .expect("subnet has at least one managed validator key");

        let parent_cid = node.chain.head();
        let executed = produce_block_with(
            &mut node.tree,
            subnet.clone(),
            epoch,
            parent_cid,
            implicit,
            signed_msgs,
            &proposer_key,
            at_ms,
            ExecOptions {
                sig_cache: node.sig_cache.as_ref(),
                parallelism: config.parallelism,
            },
        );

        let mut block = executed.block;
        if node.engine.requires_justification() {
            let cid = block.cid();
            let quorum = node.validators.quorum_threshold();
            for key in node.validator_keys.iter().take(quorum.max(1)) {
                block.justification.add(key.sign(cid.as_bytes()));
            }
        }
        node.engine
            .validate_block(&block, &node.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        node.mempool.remove_included(block.signed_msgs.iter());
        node.chain
            .append(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        node.mempool.advance_epoch(epoch);

        Ok(Self::record_block(
            node,
            &block,
            executed.receipts,
            &opportunity,
        ))
    }

    /// The bookkeeping every executed block gets, live or replayed: stats,
    /// the next-block schedule, receipts by message CID, and the
    /// [`LocalOutcome`] (committed checkpoints with their signature
    /// policy, events) its effects are applied from.
    fn record_block(
        node: &mut SubnetNode,
        block: &Block,
        receipts: Vec<Receipt>,
        opportunity: &BlockOpportunity,
    ) -> LocalOutcome {
        let at_ms = block.header.timestamp_ms;
        let epoch = block.header.epoch;
        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        node.stats.blocks += 1;
        node.stats.gas_used += gas_used;
        node.stats.total_interval_ms += opportunity.interval_ms;
        node.stats.orphaned += u64::from(opportunity.orphaned);
        node.stats.extra_rounds += u64::from(opportunity.rounds.saturating_sub(1));
        node.next_block_at_ms = at_ms + opportunity.interval_ms;
        node.next_epoch = epoch.next();
        let implicit = block.implicit_msgs.len();
        for r in receipts.iter().skip(implicit) {
            if r.exit.is_ok() {
                node.stats.user_msgs_ok += 1;
            } else {
                node.stats.user_msgs_failed += 1;
            }
        }

        // Remember receipts by message CID and account committed
        // checkpoint bytes (parent-chain load, experiment E3).
        node.last_receipts.clear();
        let mut archived = Vec::new();
        for (m, r) in block.implicit_msgs.iter().zip(&receipts) {
            if let ImplicitMsg::CommitChildCheckpoint { signed } = m {
                node.stats.checkpoint_bytes += signed.checkpoint.encoded_size() as u64;
                if r.exit.is_ok() {
                    // Snapshot the signature policy in force at commit time
                    // so the archive stays verifiable across validator
                    // churn. The policy lives in this node's own copy of
                    // the child's Subnet Actor.
                    let policy =
                        signed.checkpoint.source.actor().and_then(|a| {
                            node.tree.sa(a).map(hc_actors::SaState::signature_policy)
                        });
                    if let Some(policy) = policy {
                        archived.push((signed.clone(), policy));
                    }
                }
            }
            node.last_receipts.insert(m.cid(), r.clone());
        }
        for (m, r) in block.signed_msgs.iter().zip(receipts.iter().skip(implicit)) {
            node.last_receipts.insert(m.msg_cid(), r.clone());
        }

        LocalOutcome {
            report: StepReport {
                subnet: node.subnet_id.clone(),
                epoch,
                at_ms,
                msgs: block.msg_count(),
                gas_used,
            },
            archived,
            events: receipts.into_iter().flat_map(|r| r.events).collect(),
        }
    }

    /// Phase (b) of a tick: applies a block's outward effects to shared
    /// state — archives committed checkpoints, routes the block's events
    /// through the hierarchy, and prunes the parent's settled top-down
    /// registry.
    fn post_tick(
        &mut self,
        subnet: &SubnetId,
        outcome: LocalOutcome,
        at_ms: u64,
    ) -> Result<StepReport, RuntimeError> {
        let LocalOutcome {
            report,
            archived,
            events,
        } = outcome;
        // Order the commit in the runtime-wide control log. The block's
        // bytes are already safe in the subnet's block WAL (write-through
        // append); this record sequences it against other subnets' commits.
        self.journal(&ControlRecord::BlockCommitted {
            subnet: subnet.clone(),
            epoch: report.epoch,
        });
        for (signed, policy) in archived {
            self.cut_checkpoints.remove(&signed.checkpoint.cid());
            self.archive.record(signed, policy);
        }
        if !self.recovering {
            for ev in &events {
                self.events.push_back((subnet.clone(), ev.clone()));
            }
        }
        for ev in events {
            self.route_event(subnet, ev, at_ms)?;
        }
        self.prune_parent_registry(subnet);
        Ok(report)
    }

    /// Reacts to a VM event emitted by a block of `subnet`.
    fn route_event(
        &mut self,
        subnet: &SubnetId,
        event: VmEvent,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        match event {
            VmEvent::CheckpointCut { checkpoint } => {
                let push_enabled = self.config.push_enabled && !self.recovering;
                let node = Self::get_node_mut(&mut self.nodes, subnet)?;
                node.stats.checkpoints_cut += 1;

                // Persist the checkpointed state as a chunk manifest:
                // unchanged chunks dedupe against the previous persist
                // (structural sharing, observable via CidStore::stats).
                // This runs in the sequential routing phase, so store
                // counters are deterministic at any wave parallelism.
                let manifest = node.tree.persist(&node.store);
                node.stats.state_persists += 1;

                // The subnet's validators sign the cut checkpoint; it then
                // travels to the parent chain (paper §III-B, Fig. 2).
                let mut signed = SignedCheckpoint::new(checkpoint.clone());
                let bytes = signed.signing_bytes();
                for key in &node.validator_keys {
                    signed.signatures.add(key.sign(&bytes));
                }

                // Content resolution (paper §IV-C): the SCA registry is
                // this subnet's authoritative content store, so its
                // resolver always serves pulls for the carried groups;
                // with the *push* path enabled, the groups are also
                // announced proactively on their destinations' topics.
                let mut pushes = Vec::new();
                for meta in &checkpoint.cross_msgs {
                    let content = node
                        .tree
                        .sca()
                        .resolve_content(&meta.msgs_cid)
                        .map(<[CrossMsg]>::to_vec)
                        .or_else(|| {
                            node.resolver
                                .cache()
                                .get(&meta.msgs_cid)
                                .map(<[CrossMsg]>::to_vec)
                        });
                    if let Some(msgs) = content {
                        node.resolver.seed(meta.msgs_cid, msgs.clone());
                        if push_enabled {
                            pushes.push((
                                meta.to.topic(),
                                ResolutionMsg::Push {
                                    cid: meta.msgs_cid,
                                    msgs,
                                },
                            ));
                        }
                    }
                }
                let origin = node.subscription;
                for (topic, push) in pushes {
                    // Pushes originate here: announcing content across a
                    // severed ocean fails like any other delivery (the
                    // destination falls back to the pull path).
                    self.network
                        .publish_from(&topic, push, now_ms, None, Some(origin));
                }

                if let Some(parent) = subnet.parent() {
                    // Ledger the cut until the parent archives its commit,
                    // so a parent crash cannot strand it (see
                    // `cut_checkpoints`).
                    self.cut_checkpoints
                        .insert(signed.checkpoint.cid(), signed.clone());
                    Self::get_node_mut(&mut self.nodes, &parent)?
                        .pending_checkpoints
                        .push(signed);
                }

                // Anchor the persisted manifest in the control log and the
                // GC window. During replay the same code path re-persists,
                // so GC sweeps happen at identical points. The anchor map
                // is updated *before* the window (whose eviction may GC):
                // the newest anchored manifest must be pinned through the
                // sweep its own eviction triggers.
                self.checkpoint_anchors
                    .insert(subnet.clone(), (checkpoint.epoch, manifest));
                self.journal(&ControlRecord::CheckpointAnchor {
                    subnet: subnet.clone(),
                    epoch: checkpoint.epoch,
                    manifest,
                });
                self.track_manifest(subnet, manifest);
            }

            event @ (VmEvent::CheckpointCommitted { .. } | VmEvent::CrossMsgApplied { .. }) => {
                Self::get_node_mut(&mut self.nodes, subnet)?.apply_cross_event(event);
            }

            VmEvent::CrossMsgQueued { msg }
                if self.config.certificates_enabled
                && !self.recovering
                // Accelerate the slow routes: certify bottom-up and path
                // messages directly to their destination (paper §IV-A).
                // Top-down messages settle within a couple of blocks and
                // need no certificate.
                && !msg.is_top_down() && msg.from.subnet == *subnet =>
            {
                let node = Self::get_node_mut(&mut self.nodes, subnet)?;
                let mut cert =
                    hc_actors::FundCertificate::new(msg.clone(), node.chain.head_epoch());
                let cid = cert.signing_cid();
                for key in &node.validator_keys {
                    cert.signatures.add(key.sign(cid.as_bytes()));
                }
                // The certificate travels from the *source* subnet's
                // region to the destination topic — stating the origin
                // lets inter-region partitions and degrades intersect it.
                self.network.publish_from(
                    &msg.to.subnet.topic(),
                    ResolutionMsg::Certificate(Box::new(cert)),
                    now_ms,
                    None,
                    Some(node.subscription),
                );
            }

            // Remaining events are informational; reverts ride the normal
            // cross-net flow and need no extra routing.
            _ => {}
        }
        Ok(())
    }
}
