//! Heap allocations per measured operation on a fixed Era-CE-CD YCSB-A
//! scenario: 5 servers, 50 closed-loop clients, 1,000 records of 32 KB
//! synthetic values loaded, then 2,000 measured ops (50:50 Zipfian).
//!
//! A counting global allocator, delegating to the system allocator,
//! counts every `alloc`, `alloc_zeroed` and `realloc` from the start of
//! the measured phase (op-stream generation plus the run) to its end.
//! The harness is off (`harness = false`), so the scenario runs on the
//! main thread alone and the count is exact and repeatable.
//!
//! Budget: when the transport boxed three closures per message (six per
//! RPC), the scenario counted 52.4 heap allocations per measured op.
//! With one box per message, one box per RPC, plain fan-out reply
//! handles, shared YCSB keys and placement computed once per op, it
//! counts 21.9. The test fails above 60% of the old figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eckv::prelude::*;
use eckv::ycsb::{load_ops, run_ops, Workload, YcsbConfig};

/// Heap allocations per measured op before the one-box message path.
const BEFORE: f64 = 52.4;

/// The most allocations per measured op this test accepts.
const BUDGET: f64 = BEFORE * 0.6;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a counter in front.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs the scenario and returns heap allocations per measured op.
fn allocations_per_measured_op() -> f64 {
    let cfg = YcsbConfig {
        workload: Workload::A,
        record_count: 1_000,
        ops_per_client: 40,
        clients: 50,
        value_len: 32 << 10,
        seed: 1,
    };
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::SdscComet, 5, cfg.clients).client_nodes(10),
            Scheme::era_ce_cd(3, 2),
        )
        .window(1)
        .validate(false),
    );
    let mut sim = Simulation::new();
    run_workload(&world, &mut sim, load_ops(&cfg));
    world.reset_metrics();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run_workload(&world, &mut sim, run_ops(&cfg));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let m = world.metrics.borrow();
    let ops = cfg.clients as u64 * cfg.ops_per_client;
    assert_eq!(m.ops(), ops, "every measured op completes");
    assert_eq!(m.errors, 0, "no measured op fails");
    allocations as f64 / ops as f64
}

fn main() {
    let per_op = allocations_per_measured_op();
    println!("alloc_budget: {per_op:.1} heap allocations per measured op (budget {BUDGET:.1})");
    assert!(
        per_op <= BUDGET,
        "{per_op:.1} heap allocations per measured op exceed the budget of {BUDGET:.1} \
         (60% of {BEFORE})"
    );
}
