//! Allocation gate for the BSP path.
//!
//! This binary installs a global allocator that counts every `alloc` and `realloc` call, and
//! holds exactly one test, so no concurrent test in the same process can add to the count.
//!
//! The claim under test: a superstep's heap allocations grow with the number of vertices, not
//! with the number of pins, and stay well below one per vertex. The engine stores each sent
//! payload once and queues a 12-byte envelope per destination in buffers it keeps across
//! supersteps; each worker groups its inbox into a kept flat array of payload references; the
//! topology is built once per call, flat; vertices add to their worker's accumulator in place;
//! and a query vertex counts its neighbor data in its worker's buffer and sends it inline when
//! it has at most two entries. So a whole `partition_distributed` call — engine set-up included
//! — stays within 0.5 allocations per vertex (|Q| + |D|) per SHP iteration; what is left is
//! mostly one boxed payload per query with a fanout above two. A payload shared per pin behind
//! an `Arc`, with the topology rebuilt per level from a `Vec` per vertex, costs about 1.1; a
//! payload copied per pin and a `Vec` per receiving vertex about four.

use shp::core::{partition_distributed, ShpConfig};
use shp::datagen::Dataset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation calls. Relaxed ordering is fine: the count publishes no other data, and
/// it is read after the measured call has joined its worker threads.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn bsp_allocations_grow_with_vertices_not_pins() {
    let graph = Dataset::EmailEnron.generate(0.1, 0x5047);
    let vertices = (graph.num_queries() + graph.num_data()) as f64;
    for config in [ShpConfig::recursive_bisection(8), ShpConfig::direct(8)] {
        let config = config.with_seed(1).with_max_iterations(5);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = partition_distributed(&graph, &config, 2).expect("valid configuration");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

        let iterations = result.history.len();
        assert!(iterations > 0, "{:?} ran no iteration", config.mode);
        let per_vertex_iteration = allocations as f64 / (vertices * iterations as f64);
        println!(
            "{:?}: {allocations} allocations over {iterations} iterations, \
             {per_vertex_iteration:.2} per vertex per iteration",
            config.mode
        );
        assert!(
            per_vertex_iteration <= 0.5,
            "{:?} made {per_vertex_iteration:.2} allocations per vertex per iteration",
            config.mode
        );
    }
}
