//! # cor — copy-on-reference process migration
//!
//! A from-scratch Rust reproduction of **"Attacking the Process Migration
//! Bottleneck"** (Edward R. Zayas, SOSP 1987): the Accent/SPICE
//! copy-on-reference migration facility, its substrates, and its complete
//! evaluation.
//!
//! Moving a large virtual address space dominates the cost of process
//! migration. The paper's answer is a *logical* transfer: ship an IOU for
//! the address space at migration time and fetch 512-byte pages on
//! reference during remote execution. This workspace rebuilds that system
//! as a deterministic simulation with **real data movement** — pages carry
//! actual bytes, messages really move them, and a calibrated 1987 cost
//! model turns the mechanics into the paper's elapsed times.
//!
//! ## Quick start
//!
//! ```
//! use cor::kernel::World;
//! use cor::migrate::{MigrationManager, Strategy};
//!
//! // A two-node testbed, a manager on each node, and a representative
//! // process on node `a`.
//! let (mut world, a, b) = World::testbed();
//! let src = MigrationManager::new(&mut world, a);
//! let dst = MigrationManager::new(&mut world, b);
//! let workload = cor::workloads::minprog::workload();
//! let pid = workload.build(&mut world, a).unwrap();
//!
//! // Migrate copy-on-reference, then run it to completion remotely.
//! let report = src
//!     .migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
//!     .unwrap();
//! let exec = world.run(b, pid).unwrap();
//! assert!(exec.finished);
//! // The address-space transfer was sub-second despite 139 KB of RealMem.
//! assert!(report.timings.rimas_transfer.as_secs_f64() < 1.0);
//! ```
//!
//! ## Layer map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `cor-sim` | virtual time, deterministic RNG, metrics, the journal-level knob |
//! | [`trace`] | `cor-trace` | typed journal, causal spans, per-node metrics, Perfetto/JSONL export |
//! | [`mem`] | `cor-mem` | pages, sparse address spaces, AMaps, copy-on-write, imaginary mappings, disk, resident sets |
//! | [`ipc`] | `cor-ipc` | ports, rights, typed messages, imaginary segments, the backing protocol |
//! | [`net`] | `cor-net` | the wire model and the NetMsgServer (IOU caching, stand-ins, fragmentation) |
//! | [`kernel`] | `cor-kernel` | nodes, processes, the pager/scheduler, trace execution, the cost model |
//! | [`migrate`] | `cor-migrate` | **the paper's contribution**: ExciseProcess/InsertProcess, the MigrationManager, transfer strategies |
//! | [`workloads`] | `cor-workloads` | the seven representative processes of §4.1 |
//!
//! The copy-on-reference facility is generic (paper §6): the
//! `lazy_file_server` example uses imaginary segments to ship a file
//! lazily with no migration involved.

pub use cor_ipc as ipc;
pub use cor_kernel as kernel;
pub use cor_mem as mem;
pub use cor_migrate as migrate;
pub use cor_net as net;
pub use cor_sim as sim;
pub use cor_trace as trace;
pub use cor_workloads as workloads;

/// The Accent page size (512 bytes), re-exported for convenience.
pub use cor_mem::PAGE_SIZE;
