//! # perfbench — the workspace's performance ledger
//!
//! Three seeded workloads drive the hierarchy through its public API
//! from one benchmark thread: `flat_local` (admission and block
//! execution), `tree_cross` (checkpoints, content resolution and
//! snapshot rejoin under loss and crashes) and `zipf_durable` (fee
//! admission under overload, lazy accounts, the on-disk journal and
//! recovery). Every call into the program is timed from here and the
//! program's own stats getters are diffed around the measured phase;
//! nothing inside the program is instrumented. See `README.md` for the
//! metrics and what each one should move.

// The one unsafe block reads the process CPU clock
// (`trace::process_cpu_ns`); everything else is safe code.
#![deny(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU clock through the 64-bit Linux C ABI");

pub mod report;
pub mod stats;
pub mod store_probe;
pub mod trace;
pub mod workloads;
