//! Memory footprint of machine construction.
//!
//! Runs under a counting global allocator (this file is its own test binary
//! and holds one test, so nothing else allocates concurrently) and checks
//! that `Machine::new` stays small per node: cache tag pages and event-queue
//! entries are allocated as a run touches them, not up front for the
//! configured cache capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cni::core::machine::{Machine, MachineConfig};
use cni::nic::taxonomy::NiKind;
use cni::workloads::{Workload, WorkloadParams};

/// Bytes requested from the allocator so far (growth only for reallocs).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this forwarder) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 1024-node CNI512Q machine (256 KB processor cache and a 512-block
/// device cache per node) is built from at most 8 KiB of allocations per
/// node. Filling every cache set up front took about 74 KiB per node.
#[test]
fn machine_new_allocates_at_most_8_kib_per_node() {
    const NODES: usize = 1024;
    let cfg = MachineConfig::isca96(NODES, NiKind::Cni512Q);
    let programs = Workload::Em3d.programs(NODES, &WorkloadParams::tiny());
    let before = REQUESTED.load(Ordering::Relaxed);
    let machine = Machine::new(cfg, programs);
    let per_node = (REQUESTED.load(Ordering::Relaxed) - before) / NODES;
    drop(machine);
    assert!(
        per_node <= 8 * 1024,
        "Machine::new requested {per_node} bytes per node"
    );
}
