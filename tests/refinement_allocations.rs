//! Allocation gate for the refinement iteration.
//!
//! This binary installs a global allocator that counts the bytes of every `alloc` and
//! `realloc` call, and holds exactly one test, so no concurrent test in the same process can
//! add to the count.
//!
//! The claim under test: once an `ActiveSet` exists, an iteration allocates in proportion to
//! the work the iteration does, not to the number of data vertices. The controller's observed
//! graphs have every key as a data vertex, but only the sampled keys have queries, so an
//! iteration that sized a buffer by |D| — a proposal list, a recomputed-proposal vector — would
//! allocate four times as much on a key space four times as large.

use shp::core::{BalanceMode, NeighborData, Objective, Refiner, SwapStrategy, TargetConstraint};
use shp::datagen::{planted_partition, PlantedConfig};
use shp::hypergraph::{GraphBuilder, Partition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocated bytes. Relaxed ordering is fine: the count publishes no other data, and
/// it is read on the thread that ran the measured iterations (with one worker).
struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes allocated by iterations 2–10 of direct SHP-k (k = 64, histogram strategy, movement
/// penalty 0.1) on 1,024 sampled queries of 8 keys in a key space of `keys`, started from
/// `key mod 64` with that start as the previous assignment.
fn iteration_bytes(keys: usize) -> u64 {
    let (sampled, _) = planted_partition(&PlantedConfig {
        num_blocks: 64,
        block_size: 16,
        num_queries: 1_024,
        query_degree: 8,
        noise: 0.1,
        seed: 0x5047,
    });
    let mut builder = GraphBuilder::new();
    for q in 0..sampled.num_queries() as u32 {
        builder.add_query(sampled.query_neighbors(q).iter().copied());
    }
    builder.ensure_data_count(keys);
    let graph = builder.build().unwrap();
    let start: Vec<u32> = (0..keys as u32).map(|key| key % 64).collect();
    let mut partition = Partition::from_assignment(&graph, 64, start.clone()).unwrap();
    let mut nd = NeighborData::build(&graph, &partition);
    let refiner = Refiner::new(
        &graph,
        Objective::PFanout { p: 0.5 },
        TargetConstraint::all(64),
        SwapStrategy::Histogram,
        BalanceMode::Expectation,
        false,
        0.1,
        0x5049_2017,
    )
    .with_movement_penalty(&start, 0.1);
    let mut active = refiner.new_active_set();
    refiner.run_iteration_with(&mut active, &mut partition, &mut nd, 0);
    let before = BYTES.load(Ordering::Relaxed);
    let mut moved = 0;
    for iteration in 1..10 {
        moved += refiner
            .run_iteration_with(&mut active, &mut partition, &mut nd, iteration)
            .moved;
    }
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    println!("{keys} keys: {bytes} bytes over iterations 2-10, {moved} moves");
    assert!(moved > 0, "iterations 2-10 moved nothing on {keys} keys");
    bytes
}

#[test]
fn refinement_allocations_do_not_grow_with_keys_that_have_no_query() {
    let small = iteration_bytes(65_536);
    let large = iteration_bytes(262_144);
    let growth = large as f64 / small as f64;
    println!("growth {growth:.3}x for 4x the keys");
    assert!(
        growth <= 1.2,
        "iterations 2-10 allocated {large} bytes on 262,144 keys against {small} on 65,536 \
         ({growth:.2}x)"
    );
}
