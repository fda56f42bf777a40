//! The three seeded workloads. Each iteration builds its hierarchy
//! (set-up), generates its inputs from the seed, runs the measured phase
//! (submission + drain) from this one thread, and checks the outcome.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hc_chain::{MempoolConfig, PushOutcome};
use hc_core::{
    audit_escrow, audit_quiescent, DurableOptions, HierarchyRuntime, PersistenceConfig,
    RuntimeConfig, RuntimeError, SyncMode, UserHandle,
};
use hc_net::{CrashFault, NetConfig};
use hc_sim::{FlatTopology, TopologyBuilder};
use hc_state::Method;
use hc_store::{FsyncPolicy, Persistence, WalOptions};
use hc_types::{SubnetId, TokenAmount};
use hc_workload::{LazyAccounts, OpenLoopGenerator, RampProfile};

use crate::stats::{self, Counters};
use crate::store_probe::{ProbedDevice, StoreCounters, StoreCounts};
use crate::trace::{process_cpu_ns, Span, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 sibling subnets, local sends only, in-memory, no faults.
    FlatLocal,
    /// Fanout-2 depth-3 tree, 25 % cross-net, 2 % loss, two leaf crashes.
    TreeCross,
    /// Root only, Zipf open loop in virtual time, on-disk journal.
    ZipfDurable,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 3] = [
        Workload::FlatLocal,
        Workload::TreeCross,
        Workload::ZipfDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatLocal => "flat_local",
            Workload::TreeCross => "tree_cross",
            Workload::ZipfDurable => "zipf_durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::REDUCED`]
/// keeps every mechanism (crashes, overload, journal, recovery) at a size
/// a determinism check can repeat quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `flat_local`: local sends per user.
    pub flat_msgs_per_user: usize,
    /// `tree_cross`: messages per subnet.
    pub tree_msgs_per_subnet: usize,
    /// `zipf_durable`: injection rounds of the ramp.
    pub zipf_rounds: u64,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        flat_msgs_per_user: 2_000,
        tree_msgs_per_subnet: 4_000,
        zipf_rounds: 40,
    };
    /// The determinism check's size.
    pub const REDUCED: Scale = Scale {
        flat_msgs_per_user: 100,
        tree_msgs_per_subnet: 200,
        zipf_rounds: 8,
    };
}

/// What one iteration runs.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and of the runtime.
    pub seed: u64,
    /// `RuntimeConfig::parallelism`.
    pub parallelism: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Parent of the per-iteration journal directories.
    pub tmp_dir: PathBuf,
}

/// What one iteration measured and checked.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Set-up (topology and user creation, or opening the journal), in
    /// process CPU seconds (see [`cpu_seconds`]).
    pub setup_s: f64,
    /// Measured phase (submission + drain), tracer nanoseconds.
    pub phase_ns: (u64, u64),
    /// Process CPU time over the measured phase, nanoseconds.
    pub phase_cpu_ns: u64,
    /// `HierarchyRuntime::recover` wall time (`zipf_durable` only).
    pub recover_s: f64,
    /// Messages submitted in the phase.
    pub submitted: u64,
    /// Submissions refused at admission (`PushOutcome` other than
    /// `Admitted`).
    pub refused: u64,
    /// Messages executed, by the sum of the senders' on-chain nonces.
    pub committed: u64,
    /// `step_wave` calls in the phase.
    pub waves: u64,
    /// Blocks the phase's waves reported.
    pub wave_blocks: u64,
    /// Virtual milliseconds from the first submission to quiescence.
    pub virtual_ms: u64,
    /// Messages per block.
    pub block_capacity: u64,
    /// Stats-getter deltas over the phase.
    pub counters: Counters,
    /// Storage-probe counts over the whole iteration.
    pub store: StoreCounts,
    /// Digest of every subnet's head state root.
    pub digest: String,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Spans (traced iterations only).
    pub spans: Vec<Span>,
}

impl Iteration {
    /// Measured phase wall time, seconds.
    pub fn phase_s(&self) -> f64 {
        (self.phase_ns.1 - self.phase_ns.0) as f64 / 1e9
    }

    /// Process CPU microseconds per committed message over the phase.
    pub fn cpu_us_per_msg(&self) -> f64 {
        self.phase_cpu_ns as f64 / 1e3 / self.committed as f64
    }

    /// Committed messages per phase second.
    pub fn msgs_per_s(&self) -> f64 {
        self.committed as f64 / self.phase_s()
    }

    /// Share of submitted messages not committed: refused, evicted, or
    /// not executed at quiescence.
    pub fn fail_share(&self) -> f64 {
        1.0 - self.committed as f64 / self.submitted.max(1) as f64
    }

    /// Admitted messages neither evicted nor committed — lost work.
    pub fn lost(&self) -> u64 {
        let admitted = self.counters["chain.mempool.admitted"];
        let evicted = self.counters["chain.mempool.evicted"];
        admitted.saturating_sub(evicted + self.committed)
    }
}

/// Runs one iteration of `p.workload`.
///
/// # Errors
///
/// A runtime call failed; the message names it.
pub fn run(p: &Params, tracer: &Arc<Tracer>) -> Result<Iteration, String> {
    match p.workload {
        Workload::FlatLocal => flat_local(p, tracer),
        Workload::TreeCross => tree_cross(p, tracer),
        Workload::ZipfDurable => zipf_durable(p, tracer),
    }
}

const AMOUNT: TokenAmount = TokenAmount::from_atto(1_000);
const USER_FUNDS: u64 = 1_000;
const WAVE_BOUND: u64 = 100_000;

/// Runs `f` and returns its result with the process CPU seconds (all
/// threads) it took. Set-up is timed this way: it lasts milliseconds, and
/// its wall time mostly measures how long the host took to schedule the
/// wave threads it spawns, which varied by half between runs.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = process_cpu_ns();
    let out = f();
    (out, (process_cpu_ns() - start) as f64 / 1e9)
}

fn err(what: &'static str) -> impl Fn(RuntimeError) -> String {
    move |e| format!("{what}: {e}")
}

/// One pre-generated submission; indices into the per-subnet user lists.
enum Op {
    Send {
        s: usize,
        from: usize,
        to: usize,
    },
    Put {
        s: usize,
        from: usize,
        i: usize,
    },
    Cross {
        s: usize,
        from: usize,
        ts: usize,
        to: usize,
    },
}

/// Creates `n` empty users in every spawned subnet (timed as
/// `core.create_user`) and funds each from the banker the way
/// `hc_sim::FlatTopology::add_users` does: one `cross_transfer` per user,
/// then a drain per subnet.
fn fund_users(
    topo: &mut FlatTopology,
    tracer: &Tracer,
    n: usize,
) -> Result<Vec<Vec<UserHandle>>, String> {
    let mut users = Vec::with_capacity(topo.subnets.len());
    for subnet in topo.subnets.clone() {
        let mut locals = Vec::with_capacity(n);
        for _ in 0..n {
            let u = tracer
                .time("core.create_user", || {
                    topo.rt.create_user(&subnet, TokenAmount::ZERO)
                })
                .map_err(err("create_user"))?;
            topo.rt
                .cross_transfer(&topo.banker, &u, TokenAmount::from_whole(USER_FUNDS))
                .map_err(err("fund user"))?;
            locals.push(u);
        }
        // Waves at every parallelism: `run_until_quiescent` steps one
        // block at a time at parallelism 1 and so stops at another
        // virtual time, which would make the drains incomparable.
        let mut waves = 0;
        while !topo.rt.all_quiescent() && waves < WAVE_BOUND {
            topo.rt.step_wave().map_err(err("funding drain"))?;
            waves += 1;
        }
        users.push(locals);
    }
    if !topo.rt.all_quiescent() {
        return Err("funding drain did not quiesce".into());
    }
    Ok(users)
}

/// The measured phase's bookkeeping: its start and the stats before it.
struct Phase {
    start_ns: u64,
    start_cpu_ns: u64,
    start_ms: u64,
    before: Counters,
}

impl Phase {
    fn begin(rt: &HierarchyRuntime, tracer: &Tracer) -> Phase {
        let before = stats::snapshot(rt);
        Phase {
            start_cpu_ns: process_cpu_ns(),
            start_ns: tracer.now_ns(),
            start_ms: rt.now_ms(),
            before,
        }
    }

    fn end(self, rt: &HierarchyRuntime, tracer: &Tracer, it: &mut Iteration) {
        it.phase_ns = (self.start_ns, tracer.now_ns());
        it.phase_cpu_ns = process_cpu_ns() - self.start_cpu_ns;
        it.virtual_ms = rt.now_ms() - self.start_ms;
        it.counters = stats::delta(&self.before, &stats::snapshot(rt));
    }
}

/// Steps waves until the hierarchy is quiescent.
fn drain(rt: &mut HierarchyRuntime, tracer: &Tracer, it: &mut Iteration) -> Result<(), String> {
    while !rt.all_quiescent() {
        if it.waves >= WAVE_BOUND {
            return Err("drain did not quiesce".into());
        }
        wave(rt, tracer, it)?;
    }
    Ok(())
}

fn wave(rt: &mut HierarchyRuntime, tracer: &Tracer, it: &mut Iteration) -> Result<(), String> {
    let reports = tracer
        .time("core.step_wave", || rt.step_wave())
        .map_err(err("step_wave"))?;
    it.waves += 1;
    it.wave_blocks += reports.len() as u64;
    Ok(())
}

fn submit_ops(
    rt: &mut HierarchyRuntime,
    tracer: &Tracer,
    users: &[Vec<UserHandle>],
    ops: &[Op],
) -> Result<(), String> {
    for op in ops {
        match *op {
            Op::Send { s, from, to } => tracer.time("core.submit", || {
                rt.submit(&users[s][from], users[s][to].addr, AMOUNT, Method::Send)
            }),
            Op::Put { s, from, i } => {
                let user = &users[s][from];
                let method = Method::PutData {
                    key: b"ping".to_vec(),
                    data: i.to_le_bytes().to_vec(),
                };
                tracer.time("core.submit", || {
                    rt.submit(user, user.addr, TokenAmount::ZERO, method)
                })
            }
            Op::Cross { s, from, ts, to } => tracer.time("core.submit", || {
                rt.cross_transfer_lazy(&users[s][from], &users[ts][to], AMOUNT)
            }),
        }
        .map_err(err("submit"))?;
    }
    Ok(())
}

/// Sum of the on-chain nonces of `users` — the ground-truth count of
/// executed messages they sent.
fn nonce_sum<'a>(rt: &HierarchyRuntime, users: impl IntoIterator<Item = &'a UserHandle>) -> u64 {
    users
        .into_iter()
        .map(|u| {
            rt.node(&u.subnet)
                .and_then(|n| n.state().accounts().get(u.addr))
                .map_or(0, |a| a.nonce.value())
        })
        .sum()
}

/// Each subnet's head state root, in subnet order, rendered as hex.
fn head_roots(rt: &HierarchyRuntime) -> Vec<(String, String)> {
    rt.subnets()
        .filter_map(|s| rt.node(s).map(|n| (s, n)))
        .map(|(s, node)| {
            let chain = node.chain();
            let root = match chain.get(&chain.head()) {
                Some(block) => block.header.state_root,
                None => node.state().recompute_root(),
            };
            let hex: String = root.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
            (s.to_string(), hex)
        })
        .collect()
}

/// FNV-1a over the head roots: one short column that changes when any
/// subnet's state does.
fn digest(roots: &[(String, String)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (subnet, root) in roots {
        for b in subnet.bytes().chain([0]).chain(root.bytes()).chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Checks shared by every workload, run at the end of the phase.
fn check_end(rt: &HierarchyRuntime, it: &mut Iteration) {
    if !rt.all_quiescent() {
        it.failures
            .push("hierarchy not quiescent at the end".into());
    }
    if let Err(e) = audit_escrow(rt) {
        it.failures.push(format!("audit_escrow: {e}"));
    }
    if let Err(e) = audit_quiescent(rt) {
        it.failures.push(format!("audit_quiescent: {e}"));
    }
    let admitted = it.counters["chain.mempool.admitted"];
    let evicted = it.counters["chain.mempool.evicted"];
    if it.committed + evicted != admitted {
        it.failures.push(format!(
            "committed {} != admitted {admitted} - evicted {evicted}",
            it.committed
        ));
    }
    it.digest = digest(&head_roots(rt));
}

const FLAT_SUBNETS: usize = 8;

/// `flat_local` set-up: 8 sibling subnets with 8 funded users each.
fn build_flat(p: &Params, tracer: &Tracer) -> Result<(FlatTopology, Vec<Vec<UserHandle>>), String> {
    let config = RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        seed: p.seed,
        parallelism: p.parallelism,
        ..RuntimeConfig::default()
    };
    let mut topo = TopologyBuilder::new()
        .users_per_subnet(0)
        .runtime_config(config)
        .flat(FLAT_SUBNETS)
        .map_err(err("flat topology"))?;
    let users = fund_users(&mut topo, tracer, 8)?;
    Ok((topo, users))
}

fn flat_local(p: &Params, tracer: &Arc<Tracer>) -> Result<Iteration, String> {
    let (built, setup_s) = cpu_seconds(|| build_flat(p, tracer));
    let (mut topo, users) = built?;
    let mut it = Iteration {
        setup_s,
        block_capacity: topo.rt.config().engine_params.block_capacity as u64,
        ..Iteration::default()
    };

    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut ops = Vec::with_capacity(FLAT_SUBNETS * 8 * p.scale.flat_msgs_per_user);
    for (s, locals) in users.iter().enumerate() {
        for _ in 0..p.scale.flat_msgs_per_user {
            for from in 0..locals.len() {
                let mut to = rng.gen_range(0..locals.len() - 1);
                if to >= from {
                    to += 1;
                }
                ops.push(Op::Send { s, from, to });
            }
        }
    }

    let rt = &mut topo.rt;
    let phase = Phase::begin(rt, tracer);
    submit_ops(rt, tracer, &users, &ops)?;
    drain(rt, tracer, &mut it)?;
    phase.end(rt, tracer, &mut it);
    it.submitted = ops.len() as u64;
    it.committed = nonce_sum(rt, users.iter().flatten());
    check_end(rt, &mut it);
    it.spans = tracer.take();
    Ok(it)
}

/// `tree_cross` set-up: a fanout-2, depth-3 tree (14 subnets) with 4
/// funded users in each subnet and none at the root.
fn build_tree(p: &Params, tracer: &Tracer) -> Result<(FlatTopology, Vec<Vec<UserHandle>>), String> {
    let config = RuntimeConfig {
        net: NetConfig {
            drop_rate: 0.02,
            ..NetConfig::default()
        },
        seed: p.seed,
        parallelism: p.parallelism,
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let mut topo = TopologyBuilder::new()
        .users_per_subnet(0)
        .runtime_config(config)
        .tree(2, 3)
        .map_err(err("tree topology"))?;
    let users = fund_users(&mut topo, tracer, 4)?;
    Ok((topo, users))
}

fn tree_cross(p: &Params, tracer: &Arc<Tracer>) -> Result<Iteration, String> {
    const CROSS_RATIO: f64 = 0.25;
    let (built, setup_s) = cpu_seconds(|| build_tree(p, tracer));
    let (mut topo, users) = built?;
    let mut it = Iteration {
        setup_s,
        block_capacity: topo.rt.config().engine_params.block_capacity as u64,
        ..Iteration::default()
    };

    // The E10 mix (`hc_workload::ClosedBatch` without fees): per subnet,
    // senders round-robin; a message crosses to a uniformly drawn other
    // subnet with probability CROSS_RATIO, else goes to a uniformly drawn
    // local peer (a self-draw becomes a PutData).
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut ops = Vec::with_capacity(users.len() * p.scale.tree_msgs_per_subnet);
    for (s, locals) in users.iter().enumerate() {
        let others: Vec<usize> = (0..users.len()).filter(|&o| o != s).collect();
        for i in 0..p.scale.tree_msgs_per_subnet {
            let from = i % locals.len();
            if rng.gen_bool(CROSS_RATIO) {
                let ts = others[rng.gen_range(0..others.len())];
                let to = rng.gen_range(0..users[ts].len());
                ops.push(Op::Cross { s, from, ts, to });
            } else {
                let to = rng.gen_range(0..locals.len());
                ops.push(if to == from {
                    Op::Put { s, from, i }
                } else {
                    Op::Send { s, from, to }
                });
            }
        }
    }

    // Two leaves crash 4 s and 7 s (virtual) into the phase and rejoin
    // 10 s after their crash, by snapshot sync.
    let rt = &mut topo.rt;
    let leaves: Vec<&SubnetId> = topo.subnets.iter().filter(|s| s.depth() == 3).collect();
    let now = rt.now_ms();
    for (leaf, at) in [(leaves[0], 4_000), (leaves[leaves.len() - 1], 7_000)] {
        rt.schedule_crash(CrashFault {
            subnet: leaf.clone(),
            crash_at_ms: now + at,
            rejoin_at_ms: now + at + 10_000,
        });
    }

    let phase = Phase::begin(rt, tracer);
    submit_ops(rt, tracer, &users, &ops)?;
    drain(rt, tracer, &mut it)?;
    phase.end(rt, tracer, &mut it);
    it.submitted = ops.len() as u64;
    it.committed = nonce_sum(rt, users.iter().flatten());
    let c = &it.counters;
    if c["core.chaos.crashes"] != 2 || c["core.chaos.crashes_skipped"] != 0 {
        it.failures.push(format!(
            "expected 2 crashes, saw {} ({} skipped)",
            c["core.chaos.crashes"], c["core.chaos.crashes_skipped"]
        ));
    }
    if c["core.chaos.rejoins"] != 2 || c["core.chaos.catch_ups_completed"] != 2 {
        it.failures.push(format!(
            "expected 2 rejoins with catch-up, saw {} rejoins, {} catch-ups",
            c["core.chaos.rejoins"], c["core.chaos.catch_ups_completed"]
        ));
    }
    check_end(rt, &mut it);
    it.spans = tracer.take();
    Ok(it)
}

/// Removes an iteration's journal directory however the iteration ends.
struct TempDir(PathBuf);

impl TempDir {
    fn fresh(parent: &Path) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("journal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(device: Arc<dyn Persistence>) -> PersistenceConfig {
    PersistenceConfig::Durable(DurableOptions {
        device,
        wal: WalOptions {
            fsync: FsyncPolicy::EveryN(64),
            ..WalOptions::default()
        },
        keep_manifests: 0,
    })
}

/// `zipf_durable` set-up: the root alone, journaling through the probe
/// to an on-disk device in `dir`.
fn build_zipf(
    p: &Params,
    tracer: &Arc<Tracer>,
    dir: &Path,
    counters: &Arc<StoreCounters>,
) -> (RuntimeConfig, HierarchyRuntime) {
    let device = Arc::new(ProbedDevice::new(dir, counters.clone(), tracer.clone()));
    let config = RuntimeConfig {
        seed: p.seed,
        parallelism: p.parallelism,
        mempool: MempoolConfig {
            capacity_bytes: 200_000,
            ..MempoolConfig::default()
        },
        persistence: durable(device),
        ..RuntimeConfig::default()
    };
    let rt = tracer.time("core.new", || HierarchyRuntime::new(config.clone()));
    (config, rt)
}

/// Times one set-up of `p.workload` alone, in process CPU seconds, and
/// drops what it built.
///
/// # Errors
///
/// A runtime call failed; the message names it.
pub fn setup_s(p: &Params, tracer: &Arc<Tracer>) -> Result<f64, String> {
    let dir = TempDir::fresh(&p.tmp_dir)?;
    let counters = Arc::new(StoreCounters::default());
    Ok(match p.workload {
        Workload::FlatLocal => {
            let (built, secs) = cpu_seconds(|| build_flat(p, tracer));
            built?;
            secs
        }
        Workload::TreeCross => {
            let (built, secs) = cpu_seconds(|| build_tree(p, tracer));
            built?;
            secs
        }
        Workload::ZipfDurable => cpu_seconds(|| build_zipf(p, tracer, &dir.0, &counters)).1,
    })
}

fn zipf_durable(p: &Params, tracer: &Arc<Tracer>) -> Result<Iteration, String> {
    const POPULATION: u64 = 1_000_000;
    const ZIPF: f64 = 1.05;
    const MAX_FEE: u64 = 9;
    const EPOCH_MS: u64 = 1_000;
    const DRAIN_BOUND: u64 = 10_000;
    let ramp = RampProfile::Linear {
        start: 100,
        end: 1_000,
    };
    let dir = TempDir::fresh(&p.tmp_dir)?;
    let counters = Arc::new(StoreCounters::default());
    let mut it = Iteration::default();

    let ((mut config, mut rt), setup_s) = cpu_seconds(|| build_zipf(p, tracer, &dir.0, &counters));
    it.setup_s = setup_s;
    it.block_capacity = config.engine_params.block_capacity as u64;

    // The open loop of `hc_workload::OpenLoop` on the root alone, with
    // every call into the program timed from here.
    let mut generator = OpenLoopGenerator::new(POPULATION, ZIPF, p.seed, MAX_FEE);
    let mut accounts = LazyAccounts::new(TokenAmount::from_whole(100));
    let mut handle = |rt: &mut HierarchyRuntime, idx: u64| {
        let start = tracer.now_ns();
        let before = accounts.materialized();
        let h = accounts
            .handle(rt, idx)
            .map_err(err("LazyAccounts::handle"));
        let grew = accounts.materialized() > before;
        tracer.record(
            if grew {
                "core.create_user"
            } else {
                "workload.accounts"
            },
            start,
        );
        h
    };
    let phase = Phase::begin(&rt, tracer);
    for round in 0..p.scale.zipf_rounds {
        for _ in 0..ramp.rate_at(round, p.scale.zipf_rounds) {
            let op = tracer.time("workload.next_op", || generator.next_op());
            let from = handle(&mut rt, op.sender)?;
            let to = handle(&mut rt, op.receiver)?;
            let (_, outcome) = tracer
                .time("core.submit", || {
                    rt.submit_with_fee(&from, to.addr, AMOUNT, Method::Send, op.fee)
                })
                .map_err(err("submit_with_fee"))?;
            it.submitted += 1;
            if outcome != PushOutcome::Admitted {
                it.refused += 1;
            }
        }
        let target = rt.now_ms() + EPOCH_MS;
        while rt.now_ms() < target {
            wave(&mut rt, tracer, &mut it)?;
        }
    }
    let mut drained = 0;
    while !rt.all_quiescent() && drained < DRAIN_BOUND {
        wave(&mut rt, tracer, &mut it)?;
        drained += 1;
    }
    phase.end(&rt, tracer, &mut it);
    it.committed = nonce_sum(&rt, accounts.iter().map(|(_, h)| h));
    check_end(&rt, &mut it);

    // Restart from the journal and require the same head roots.
    let before = head_roots(&rt);
    drop(rt);
    config.persistence = durable(Arc::new(ProbedDevice::new(
        &dir.0,
        counters.clone(),
        tracer.clone(),
    )));
    let t = Instant::now();
    let start = tracer.now_ns();
    let recovered = HierarchyRuntime::recover(config);
    tracer.record("core.recover", start);
    it.recover_s = t.elapsed().as_secs_f64();
    let after = head_roots(&recovered);
    if before != after {
        it.failures
            .push("head state roots after recover differ from before the restart".into());
    }
    drop(recovered);
    it.store = counters.counts();
    it.spans = tracer.take();
    Ok(it)
}
