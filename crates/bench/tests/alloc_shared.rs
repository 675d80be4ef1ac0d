//! Allocation-count proof that the per-run topology copy is gone.
//!
//! Wall-clock cannot show it: on the sparse 10k-node kernel the old
//! O(V + E) deployment copy was well under 1% of a run. Counting
//! allocated bytes can: running on an `Arc`-shared scenario must allocate
//! *exactly* the scenario's heap footprint less than running on a
//! per-run copy of the same scenario — the only difference between the
//! two paths is the copy the Arc refactor removed.
//!
//! This file holds a single test (plus its `#[global_allocator]`), so no
//! concurrent test can perturb the byte counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pbbf_net_sim::{CachedDeployment, NetConfig, NetMode, NetSim};
use pbbf_topology::Topology;

/// System allocator wrapped with a byte counter (allocations only —
/// frees are irrelevant to "how much did this path allocate").
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_allocated_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

/// The topology's heap footprint: positions (16 B/node), CSR offsets
/// (4 B × (n + 1)), and the flat neighbor array (4 B per directed edge).
fn topology_heap_bytes(t: &Topology) -> u64 {
    (t.len() * 16 + (t.len() + 1) * 4 + t.edge_count() * 2 * 4) as u64
}

#[test]
fn shared_run_skips_the_topology_copy() {
    let mut cfg = NetConfig::table2();
    cfg.nodes = 2000;
    cfg.duration_secs = 120.0;
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(pbbf_core::PbbfParams::new(0.25, 0.05).expect("valid")),
    );
    let deployment = NetSim::draw_deployment(&cfg, 4).unwrap();
    let topo_bytes = topology_heap_bytes(deployment.topology());
    assert!(topo_bytes > 100_000, "scenario large enough to measure");

    // Warm-up: fault in lazy statics and the timing side of the run so
    // the measured passes see steady state.
    let reference = sim.run_on(4, &deployment);

    let shared = bytes_allocated_during(|| {
        assert_eq!(sim.run_on(4, &deployment), reference);
    });
    let copied = bytes_allocated_during(|| {
        let copy = CachedDeployment::new(deployment.topology().clone(), deployment.source());
        assert_eq!(sim.run_on(4, &copy), reference);
    });

    // The run is deterministic, so the copied path allocates exactly the
    // shared path's bytes plus the scenario copy; a small cushion below
    // the full footprint keeps the assert robust to allocator-side
    // rounding while still failing loudly if the per-run copy ever
    // returns to the shared path.
    assert!(
        copied >= shared + topo_bytes * 9 / 10,
        "copied path must pay the O(V + E) scenario copy: \
         shared {shared} B, copied {copied} B, topology {topo_bytes} B"
    );
    assert!(
        shared + topo_bytes * 11 / 10 + 4096 >= copied,
        "the copy should be the *only* difference: \
         shared {shared} B, copied {copied} B, topology {topo_bytes} B"
    );
}
