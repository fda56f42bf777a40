//! Determinism of the ledger at reduced size: two runs of every workload
//! at one seed give identical deterministic columns, those columns equal
//! the ones recorded in `reduced_columns.txt`, and `flat_local`'s drain
//! gives identical state roots at parallelism 1 and 2. Extra hashing,
//! extra journal writes or nondeterminism show up here as a changed
//! column; a change that alters them on purpose rewrites the file with
//! the lines this test prints on failure.
//!
//! The SHA-256 block counter is process-wide, so every run happens in
//! this one test, one after another.

use std::path::PathBuf;
use std::sync::Arc;

use perfbench::trace::Tracer;
use perfbench::workloads::{run, Iteration, Params, Scale, Workload};

/// One line of `reduced_columns.txt`.
fn columns(workload: Workload, it: &Iteration) -> String {
    format!(
        "{} committed={} virtual_ms={} chain_blocks={} sha256_blocks={} store_appends={} digest={}",
        workload.name(),
        it.committed,
        it.virtual_ms,
        it.counters["chain.blocks"],
        it.counters["types.sha256_blocks"],
        it.store.append_calls,
        it.digest,
    )
}

fn once(workload: Workload, parallelism: usize) -> Iteration {
    let params = Params {
        workload,
        seed: 5,
        parallelism,
        scale: Scale::REDUCED,
        tmp_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let it = run(&params, &Arc::new(Tracer::new(false))).expect("iteration runs");
    assert!(
        it.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        it.failures
    );
    assert!(it.committed > 0, "{} committed nothing", workload.name());
    it
}

#[test]
fn deterministic_columns_repeat() {
    let mut lines = String::new();
    for workload in Workload::ALL {
        let a = columns(workload, &once(workload, 2));
        let b = columns(workload, &once(workload, 2));
        assert_eq!(a, b, "{} is not deterministic", workload.name());
        lines += &a;
        lines.push('\n');
    }
    assert_eq!(
        lines,
        include_str!("reduced_columns.txt"),
        "deterministic columns changed; got:\n{lines}"
    );
    let sequential = once(Workload::FlatLocal, 1);
    let parallel = once(Workload::FlatLocal, 2);
    assert_eq!(sequential.digest, parallel.digest);
    assert_eq!(sequential.committed, parallel.committed);
    assert_eq!(sequential.virtual_ms, parallel.virtual_ms);
}
