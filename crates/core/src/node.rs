//! A subnet node: the canonical chain, state, pools, and consensus engine
//! of one subnet.
//!
//! The runtime keeps one `SubnetNode` per subnet. It models the *honest
//! quorum* of the subnet: the canonical state every honest full node
//! converges to. Individual validators are represented by their keys (for
//! block, justification, and checkpoint signatures); Byzantine behaviour is
//! injected explicitly through the attack APIs (see `hc-sim`).
//!
//! The node also owns the node-local steps of the shared block-commit
//! path: `SubnetNode::advance_past_block` (journal replay, recovery
//! fast-forward and snapshot install) and `SubnetNode::apply_cross_event`
//! (live routing and catch-up replay).

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::{CrossMsg, CrossMsgMeta, FundCertificate};
use hc_chain::{Block, ChainStore, CrossMsgPool, Mempool};
use hc_consensus::{BlockOpportunity, Consensus, ValidatorSet};
use hc_net::{Resolver, SubscriberId};
use hc_state::{CidStore, ImplicitMsg, Receipt, SigCache, SigCacheStats, StateTree, VmEvent};
use hc_types::{CanonicalEncode, ChainEpoch, Cid, Keypair, SubnetId};

use crate::runtime::RuntimeError;

/// Running counters for one subnet node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Blocks committed to the chain.
    pub blocks: u64,
    /// Signed user messages executed successfully.
    pub user_msgs_ok: u64,
    /// Signed user messages that failed or were rejected.
    pub user_msgs_failed: u64,
    /// Cross-net messages applied in this subnet (top-down + bottom-up).
    pub cross_applied: u64,
    /// Checkpoints committed from children.
    pub checkpoints_committed: u64,
    /// Bytes of child checkpoints committed (parent-chain load, E3).
    pub checkpoint_bytes: u64,
    /// Own checkpoints cut and submitted to the parent.
    pub checkpoints_cut: u64,
    /// Total simulation gas executed.
    pub gas_used: u64,
    /// Sum of block intervals, in virtual milliseconds (throughput math).
    pub total_interval_ms: u64,
    /// PoW blocks orphaned (wasted work).
    pub orphaned: u64,
    /// Extra BFT rounds beyond the happy path.
    pub extra_rounds: u64,
    /// State snapshots persisted as chunk manifests into the node's
    /// [`CidStore`] (one per checkpoint cut or SCA snapshot save).
    pub state_persists: u64,
}

/// One subnet's canonical node. Construction and stepping live in
/// [`crate::runtime::HierarchyRuntime`]; this type exposes read access for
/// clients, tests, and benchmarks.
pub struct SubnetNode {
    /// The subnet's identity.
    pub(crate) subnet_id: SubnetId,
    /// Canonical state at the chain head.
    pub(crate) tree: StateTree,
    /// The committed chain.
    pub(crate) chain: ChainStore,
    /// Internal pool of pending user messages.
    pub(crate) mempool: Mempool,
    /// Cross-msg pool (paper §IV-B).
    pub(crate) cross_pool: CrossMsgPool,
    /// The subnet's consensus engine.
    pub(crate) engine: Box<dyn Consensus>,
    /// Current validator set (refreshed from the parent's Subnet Actor).
    pub(crate) validators: ValidatorSet,
    /// The validators' signing keys (simulation holds them to produce
    /// blocks, justifications, and checkpoint signatures).
    pub(crate) validator_keys: Vec<Keypair>,
    /// Content-resolution state machine.
    pub(crate) resolver: Resolver,
    /// Pub-sub subscription for this subnet's topic.
    pub(crate) subscription: SubscriberId,
    /// Virtual time at which this node produces its next block.
    pub(crate) next_block_at_ms: u64,
    /// Epoch of the next block.
    pub(crate) next_epoch: ChainEpoch,
    /// Child checkpoints waiting to be committed in this chain's next
    /// block.
    pub(crate) pending_checkpoints: Vec<SignedCheckpoint>,
    /// Turnaround metas with resolved content, ready for top-down
    /// re-commitment in the next block (this subnet is their LCA).
    pub(crate) pending_turnarounds: Vec<(CrossMsgMeta, Vec<CrossMsg>)>,
    /// Turnaround metas still waiting for content resolution.
    pub(crate) unresolved_turnarounds: Vec<CrossMsgMeta>,
    /// Receipts of the most recent block, keyed by message CID.
    pub(crate) last_receipts: BTreeMap<Cid, Receipt>,
    /// Verified fund certificates for payments still in flight towards
    /// this subnet (the §IV-A acceleration): tentative, not spendable.
    pub(crate) tentative: BTreeMap<Cid, FundCertificate>,
    /// Content-addressed blob store: persisted state chunk manifests
    /// (snapshots/checkpoints). A handle to the runtime-wide store, so
    /// identical chunks are shared across snapshots *and* subnets.
    pub(crate) store: CidStore,
    /// Counters.
    pub(crate) stats: NodeStats,
    /// This node's private randomness stream, seeded from the runtime
    /// seed and the subnet id. Keeping the stream per-node (instead of
    /// one runtime-wide RNG) makes block production a pure function of
    /// the node, so a wave of due subnets can produce concurrently and
    /// still replay bit-identically at any parallelism.
    pub(crate) rng: StdRng,
    /// Node-local verified-signature cache: populated at mempool
    /// admission, consulted by block production and validation. `None`
    /// when disabled (`RuntimeConfig::sig_cache_capacity` of zero) —
    /// receipts are bit-identical either way.
    pub(crate) sig_cache: Option<SigCache>,
}

impl std::fmt::Debug for SubnetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubnetNode")
            .field("subnet_id", &self.subnet_id)
            .field("head_epoch", &self.chain.head_epoch())
            .field("validators", &self.validators.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SubnetNode {
    /// The subnet's identity.
    pub fn subnet_id(&self) -> &SubnetId {
        &self.subnet_id
    }

    /// Canonical state at the chain head.
    pub fn state(&self) -> &StateTree {
        &self.tree
    }

    /// The committed chain.
    pub fn chain(&self) -> &ChainStore {
        &self.chain
    }

    /// The consensus engine.
    pub fn engine(&self) -> &dyn Consensus {
        self.engine.as_ref()
    }

    /// Current validator set.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// Content-resolution state and statistics.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// The cross-msg pool (pending cross-net work).
    pub fn cross_pool(&self) -> &CrossMsgPool {
        &self.cross_pool
    }

    /// Child checkpoints waiting for commitment in this chain.
    pub fn pending_checkpoint_count(&self) -> usize {
        self.pending_checkpoints.len()
    }

    /// Turnaround metas waiting (resolved + unresolved).
    pub fn pending_turnaround_count(&self) -> usize {
        self.pending_turnarounds.len() + self.unresolved_turnarounds.len()
    }

    /// Verified-but-unsettled incoming payments (fund certificates,
    /// paper §IV-A). Tentative information only — the value becomes
    /// spendable when the message settles through the checkpoint flow.
    pub fn tentative_certs(&self) -> impl Iterator<Item = &FundCertificate> {
        self.tentative.values()
    }

    /// Total tentatively certified incoming value for `addr`.
    pub fn tentative_value_for(&self, addr: hc_types::Address) -> hc_types::TokenAmount {
        self.tentative
            .values()
            .filter(|c| c.body.msg.to.raw == addr)
            .map(|c| c.body.msg.value)
            .sum()
    }

    /// Node counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// The node's content-addressed blob store (shared runtime-wide).
    pub fn cid_store(&self) -> &CidStore {
        &self.store
    }

    /// Pending user messages.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Bytes of pending user messages held by this node's mempool.
    pub fn mempool_occupancy_bytes(&self) -> usize {
        self.mempool.occupancy_bytes()
    }

    /// Admission/eviction counters of this node's mempool.
    pub fn mempool_stats(&self) -> hc_chain::MempoolStats {
        self.mempool.stats()
    }

    /// Activity counters of this node's content resolver.
    pub fn resolver_stats(&self) -> hc_net::ResolverStats {
        self.resolver.stats()
    }

    /// Counters of this node's verified-signature cache (all zeros when
    /// the cache is disabled).
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.sig_cache
            .as_ref()
            .map(SigCache::stats)
            .unwrap_or_default()
    }

    /// Virtual time of the next scheduled block.
    pub fn next_block_at_ms(&self) -> u64 {
        self.next_block_at_ms
    }

    /// Returns `true` when the node has no *local* cross-net work in
    /// flight: nothing to propose, resolve, commit, or turn around, and no
    /// value waiting in the current checkpoint window.
    ///
    /// Hierarchy-wide quiescence additionally requires that the parent's
    /// SCA holds no unsynced top-down messages for this subnet — see
    /// [`crate::runtime::HierarchyRuntime::all_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        self.mempool.is_empty()
            && self.cross_pool.pending_top_down() == 0
            && self.cross_pool.pending_bottom_up() == 0
            && self.pending_checkpoints.is_empty()
            && self.pending_turnarounds.is_empty()
            && self.unresolved_turnarounds.is_empty()
            && self.tree.sca().window_is_value_empty()
    }

    /// Advances the node past a committed block, independently of its
    /// execution: burns the consensus draw the live run made for it,
    /// moves the mempool epoch, and updates the implicit-message cursors
    /// (pending checkpoints and turnarounds, cross-net nonces). Returns the
    /// opportunity, whose interval schedules the next block. Replay runs
    /// this after executing a block; fast-forward and snapshot install
    /// run it instead of execution.
    pub(crate) fn advance_past_block(
        &mut self,
        block: &Block,
    ) -> Result<BlockOpportunity, RuntimeError> {
        let epoch = block.header.epoch;
        let opportunity = self
            .engine
            .next_block(epoch, &self.validators, &mut self.rng)
            .map_err(|e| RuntimeError::Execution(format!("consensus: {e}")))?;
        self.mempool.advance_epoch(epoch);
        for m in &block.implicit_msgs {
            match m {
                ImplicitMsg::CommitChildCheckpoint { signed } => {
                    // The live run drained this from the pending queue when
                    // it proposed the block; a replay re-queued it when the
                    // child's checkpoint cut was replayed.
                    self.pending_checkpoints
                        .retain(|p| p.checkpoint != signed.checkpoint);
                }
                ImplicitMsg::CommitTurnaround { meta, .. } => {
                    self.pending_turnarounds.retain(|(m2, _)| m2 != meta);
                    self.unresolved_turnarounds.retain(|m2| m2 != meta);
                }
                ImplicitMsg::ApplyTopDown(cross) => {
                    self.cross_pool.note_top_down_applied(cross.nonce);
                }
                ImplicitMsg::ApplyBottomUp { meta, .. } => {
                    self.cross_pool.note_bottom_up_applied(meta);
                }
                _ => {}
            }
        }
        Ok(opportunity)
    }

    /// The node-local effects of a block's cross-net events, the same live
    /// and in catch-up: committed checkpoints queue the groups routed here,
    /// and an applied message's payment stops being tentative.
    pub(crate) fn apply_cross_event(&mut self, event: VmEvent) {
        match event {
            VmEvent::CheckpointCommitted { outcome, .. } => {
                self.stats.checkpoints_committed += 1;
                for meta in outcome.applied_here {
                    self.cross_pool.ingest_meta(meta);
                }
                self.unresolved_turnarounds.extend(outcome.turnaround);
            }
            VmEvent::CrossMsgApplied { msg } => {
                self.stats.cross_applied += 1;
                self.tentative.remove(&msg.cid());
            }
            _ => {}
        }
    }

    /// Clones the validator signing keys (adversarial simulation: a
    /// compromised subnet's quorum signs whatever the attacker wants).
    pub(crate) fn validator_keys_clone(&self) -> Vec<Keypair> {
        self.validator_keys.clone()
    }

    /// Mutable resolver access for attack content seeding.
    pub(crate) fn resolver_mut_for_attack(&mut self) -> &mut Resolver {
        &mut self.resolver
    }

    /// Observed mean block interval in milliseconds.
    pub fn mean_block_interval_ms(&self) -> f64 {
        if self.stats.blocks == 0 {
            0.0
        } else {
            self.stats.total_interval_ms as f64 / self.stats.blocks as f64
        }
    }

    /// Observed throughput in successfully executed user messages per
    /// virtual second.
    pub fn user_throughput_per_s(&self) -> f64 {
        if self.stats.total_interval_ms == 0 {
            0.0
        } else {
            self.stats.user_msgs_ok as f64 * 1_000.0 / self.stats.total_interval_ms as f64
        }
    }
}
