//! Reference-model property test of [`Mempool`].
//!
//! The pool keeps incremental indexes (a tail index, a running count,
//! epoch-bucketed dedup, stored suffix-max fees). The model below keeps
//! none: it answers every query with a full scan — the lane-summing `len`,
//! the scan for the lowest-priority lane tail, the `retain`-based dedup
//! prune and the `select` that materialises every lane with its suffix
//! maxima. Random sequences of admissions (duplicates, forgeries,
//! out-of-order and conflicting nonces, sizes that evict several tails at
//! once), selections, inclusions, epoch advances and eviction drains must
//! leave the pool and the model indistinguishable after every step.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::OnceLock;

use proptest::prelude::*;

use hc_chain::{Mempool, MempoolConfig, MempoolStats, PushOutcome};
use hc_state::{Message, Method, SealedMessage};
use hc_types::{Address, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, TokenAmount};

const SENDERS: u64 = 4;
const NONCES: u64 = 6;
/// Per slot: two conflicting valid messages of different sizes, and a
/// forgery.
const VARIANTS: u64 = 3;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x4d;
    Keypair::from_seed(seed)
}

/// Every message a case can push, indexed by `(sender, nonce, variant)`.
fn universe() -> &'static [SealedMessage] {
    static MSGS: OnceLock<Vec<SealedMessage>> = OnceLock::new();
    MSGS.get_or_init(|| {
        let mut out = Vec::new();
        for s in 0..SENDERS {
            for n in 0..NONCES {
                for v in 0..VARIANTS {
                    let mut msg = Message::transfer(
                        Address::new(100 + s),
                        Address::new(200 + v),
                        TokenAmount::from_atto(5),
                        Nonce::new(n),
                    );
                    if v == 1 {
                        msg.method = Method::PutData {
                            key: b"k".to_vec(),
                            data: vec![0xab; ((s * 7 + n * 13) % 90) as usize],
                        };
                    }
                    let mut signed = msg.sign(&keypair(s));
                    if v == 2 {
                        signed.message.value = TokenAmount::from_atto(6);
                    }
                    out.push(SealedMessage::new(signed));
                }
            }
        }
        out
    })
}

fn msg(sender: u64, nonce: u64, variant: u64) -> SealedMessage {
    universe()[((sender % SENDERS) * NONCES * VARIANTS
        + (nonce % NONCES) * VARIANTS
        + variant % VARIANTS) as usize]
        .clone()
}

/// Canonical wire bytes of a pending message, measured by re-encoding.
fn wire_bytes(m: &SealedMessage) -> usize {
    m.signed().canonical_bytes().len()
}

type ModelLane = BTreeMap<Nonce, (SealedMessage, u64)>;

/// The O(n) reference pool.
struct Model {
    lanes: BTreeMap<Address, ModelLane>,
    seen: HashMap<Cid, ChainEpoch>,
    config: MempoolConfig,
    occupancy: usize,
    epoch: ChainEpoch,
    stats: MempoolStats,
    evicted_log: Vec<(Address, Nonce)>,
    /// Pending messages removed by inclusion.
    included: usize,
}

impl Model {
    fn new(config: MempoolConfig) -> Self {
        Model {
            lanes: BTreeMap::new(),
            seen: HashMap::new(),
            config,
            occupancy: 0,
            epoch: ChainEpoch::GENESIS,
            stats: MempoolStats::default(),
            evicted_log: Vec::new(),
            included: 0,
        }
    }

    fn push(&mut self, m: SealedMessage, fee: u64) -> PushOutcome {
        let cid = m.msg_cid();
        let (from, nonce) = (m.message().from, m.message().nonce);
        if self.seen.contains_key(&cid)
            || self
                .lanes
                .get(&from)
                .is_some_and(|lane| lane.contains_key(&nonce))
        {
            self.stats.rejected_duplicate += 1;
            return PushOutcome::Duplicate;
        }
        if !m.verify_signature() {
            self.stats.rejected_invalid += 1;
            return PushOutcome::Invalid;
        }
        self.seen.insert(cid, self.epoch);
        self.occupancy += wire_bytes(&m);
        self.lanes.entry(from).or_default().insert(nonce, (m, fee));
        let mut survived = true;
        while self.config.capacity_bytes > 0 && self.occupancy > self.config.capacity_bytes {
            let (victim, victim_nonce, victim_cid) = self.lowest_priority_tail().unwrap();
            if victim_cid == cid {
                survived = false;
            } else {
                self.stats.evicted += 1;
            }
            let lane = self.lanes.get_mut(&victim).unwrap();
            let (gone, _) = lane.remove(&victim_nonce).unwrap();
            self.occupancy -= wire_bytes(&gone);
            if lane.is_empty() {
                self.lanes.remove(&victim);
            }
            self.seen.remove(&victim_cid);
            self.evicted_log.push((victim, victim_nonce));
        }
        if !survived {
            self.stats.rejected_full += 1;
            return PushOutcome::Full;
        }
        self.stats.admitted += 1;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.occupancy as u64);
        self.stats.high_water_msgs = self.stats.high_water_msgs.max(self.len() as u64);
        PushOutcome::Admitted
    }

    /// Full scan over every lane tail for the lowest `(fee, CID)`.
    fn lowest_priority_tail(&self) -> Option<(Address, Nonce, Cid)> {
        self.lanes
            .iter()
            .filter_map(|(addr, lane)| {
                lane.iter()
                    .next_back()
                    .map(|(nonce, (m, fee))| ((*fee, m.msg_cid()), (*addr, *nonce)))
            })
            .min_by_key(|(priority, _)| *priority)
            .map(|((_, cid), (addr, nonce))| (addr, nonce, cid))
    }

    /// Every lane tail as `(fee, CID, sender)`, sorted.
    fn scanned_tails(&self) -> Vec<(u64, Cid, Address)> {
        let mut tails: Vec<_> = self
            .lanes
            .iter()
            .map(|(addr, lane)| {
                let (m, fee) = lane.values().next_back().unwrap();
                (*fee, m.msg_cid(), *addr)
            })
            .collect();
        tails.sort();
        tails
    }

    /// Materialises every lane with its suffix-max fees, then merges the
    /// lane heads through a max-heap.
    fn select(&self, max: usize) -> Vec<Cid> {
        let lanes: Vec<Vec<(u64, Cid)>> = self
            .lanes
            .values()
            .map(|lane| {
                let mut entries: Vec<(u64, Cid)> =
                    lane.values().map(|(m, fee)| (*fee, m.msg_cid())).collect();
                let mut best = 0u64;
                for slot in entries.iter_mut().rev() {
                    best = best.max(slot.0);
                    slot.0 = best;
                }
                entries
            })
            .collect();
        let mut cursors = vec![0usize; lanes.len()];
        let mut heap: BinaryHeap<(u64, std::cmp::Reverse<Cid>, usize)> = lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| {
                lane.first()
                    .map(|(pri, cid)| (*pri, std::cmp::Reverse(*cid), i))
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < max {
            let Some((_, _, i)) = heap.pop() else { break };
            out.push(lanes[i][cursors[i]].1);
            cursors[i] += 1;
            if let Some((pri, cid)) = lanes[i].get(cursors[i]) {
                heap.push((*pri, std::cmp::Reverse(*cid), i));
            }
        }
        out
    }

    fn remove_included(&mut self, msgs: &[SealedMessage]) {
        for m in msgs {
            if let Some(lane) = self.lanes.get_mut(&m.message().from) {
                if let Some((gone, _)) = lane.remove(&m.message().nonce) {
                    self.occupancy -= wire_bytes(&gone);
                    self.included += 1;
                }
            }
        }
        self.lanes.retain(|_, lane| !lane.is_empty());
    }

    fn advance_epoch(&mut self, epoch: ChainEpoch) {
        if epoch <= self.epoch {
            return;
        }
        self.epoch = epoch;
        let horizon = self.config.seen_horizon_epochs;
        self.seen
            .retain(|_, admitted| epoch.since(*admitted) <= horizon);
    }

    fn len(&self) -> usize {
        self.lanes.values().map(BTreeMap::len).sum()
    }

    fn pending(&self) -> Vec<Cid> {
        self.lanes
            .values()
            .flat_map(|lane| lane.values().map(|(m, _)| m.msg_cid()))
            .collect()
    }
}

/// Asserts that the pool and the model agree on every observable, and
/// that the pool's own books close.
fn assert_agree(pool: &Mempool, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(pool.stats(), model.stats);
    prop_assert_eq!(pool.occupancy_bytes(), model.occupancy);
    prop_assert_eq!(pool.len(), model.len());
    prop_assert_eq!(pool.is_empty(), model.len() == 0);
    prop_assert_eq!(pool.seen_len(), model.seen.len());
    let pending: Vec<Cid> = pool.iter().map(SealedMessage::msg_cid).collect();
    prop_assert_eq!(pending, model.pending());
    prop_assert_eq!(
        pool.iter().map(wire_bytes).sum::<usize>(),
        pool.occupancy_bytes(),
        "occupancy is the sum of the pending messages' bytes"
    );
    prop_assert_eq!(
        pool.tails().collect::<Vec<_>>(),
        model.scanned_tails(),
        "tail index equals a fresh scan"
    );
    let selected: Vec<Cid> = pool
        .select(usize::MAX)
        .iter()
        .map(SealedMessage::msg_cid)
        .collect();
    prop_assert_eq!(selected, model.select(usize::MAX));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn mempool_matches_full_scan_model(
        capacity_msgs in 0usize..8,
        capacity_slack in 0usize..100,
        horizon in 0u64..4,
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>(), any::<u64>()), 1..120),
    ) {
        let bytes_each = wire_bytes(&msg(0, 0, 0));
        let capacity_bytes = if capacity_msgs == 0 {
            0
        } else {
            capacity_msgs * bytes_each + capacity_slack
        };
        let config = MempoolConfig { capacity_bytes, seen_horizon_epochs: horizon };
        let mut pool = Mempool::with_config(config);
        let mut model = Model::new(config);
        let mut epoch = 0u64;

        for (kind, a, b, c) in ops {
            match kind {
                // Admission, the most common step.
                0..=5 => {
                    let m = msg(a, b, c);
                    let fee = (c / VARIANTS) % 10;
                    prop_assert_eq!(
                        pool.push_sealed_with_fee(m.clone(), fee),
                        model.push(m, fee)
                    );
                }
                // Selection of a block, then its inclusion.
                6 | 7 => {
                    let max = (a % 8) as usize;
                    let block = pool.select(max);
                    let cids: Vec<Cid> = block.iter().map(SealedMessage::msg_cid).collect();
                    prop_assert_eq!(cids, model.select(max));
                    pool.remove_included(block.iter());
                    model.remove_included(&block);
                }
                // Inclusion of a message that may hold the slot, conflict
                // with it, or not be pending at all.
                8 => {
                    let m = msg(a, b, c);
                    pool.remove_included([&m]);
                    model.remove_included(&[m]);
                }
                // Epoch moves: forward, repeated or backwards.
                9 | 10 => {
                    epoch = (epoch + a % 4).saturating_sub(1);
                    pool.advance_epoch(ChainEpoch::new(epoch));
                    model.advance_epoch(ChainEpoch::new(epoch));
                }
                _ => {
                    prop_assert_eq!(
                        pool.drain_evictions(),
                        std::mem::take(&mut model.evicted_log)
                    );
                }
            }
            assert_agree(&pool, &model)?;
        }
        prop_assert_eq!(pool.drain_evictions(), std::mem::take(&mut model.evicted_log));
        // Every admitted message is pending, included or evicted.
        let stats = pool.stats();
        prop_assert_eq!(stats.admitted - stats.evicted, (pool.len() + model.included) as u64);
    }
}
