//! Concurrency suite for `shp-serving`'s `EpochSwap`: reads hammered from many threads while
//! a writer performs repeated live swaps must never drop a query or observe a torn partition
//! map. Two placements that disagree on *every* key are alternated, so any torn read —
//! a multiget resolving some keys against the old generation and some against the new —
//! produces an impossible fanout or a wrong value and fails loudly.

use shp::faults::{FaultInjector, FaultPlan};
use shp::hypergraph::{GraphBuilder, Partition};
use shp::serving::{
    value_of, EngineConfig, EpochSwap, PartitionDelta, PartitionSnapshot, RoutePlan, ServingEngine,
    ServingError, ShardRouter, ShardSet,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const GROUPS: u32 = 8;
const SIZE: u32 = 32;

/// Number of hammering reader threads; `SHP_TEST_WORKERS` (the CI multi-threaded job) raises
/// it so the single-threaded default run cannot mask races.
fn reader_threads() -> usize {
    std::env::var("SHP_TEST_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(4)
}

/// `GROUPS` communities of `SIZE` keys; one query per member spanning its community.
fn community_graph() -> shp::hypergraph::BipartiteGraph {
    let mut b = GraphBuilder::new();
    for g in 0..GROUPS {
        let members: Vec<u32> = (0..SIZE).map(|i| g * SIZE + i).collect();
        for _ in 0..SIZE {
            b.add_query(members.clone());
        }
    }
    b.build().unwrap()
}

/// Groups colocated: every community on its own shard (fanout 1 per community query).
fn aligned(graph: &shp::hypergraph::BipartiteGraph) -> Partition {
    Partition::from_assignment(
        graph,
        GROUPS,
        (0..GROUPS * SIZE).map(|v| v / SIZE).collect(),
    )
    .unwrap()
}

/// Groups scattered round-robin: every community query touches every shard (fanout GROUPS).
/// Disagrees with [`aligned`] on the shard of all but `SIZE` keys.
fn scattered(graph: &shp::hypergraph::BipartiteGraph) -> Partition {
    Partition::from_assignment(
        graph,
        GROUPS,
        (0..GROUPS * SIZE).map(|v| v % GROUPS).collect(),
    )
    .unwrap()
}

/// Raw `EpochSwap` hammering: every loaded snapshot must be *pure* — exactly placement A or
/// exactly placement B, never a mix — and the epochs a reader observes must never go
/// backwards.
#[test]
fn epoch_swap_readers_never_observe_a_torn_or_regressing_generation() {
    let graph = community_graph();
    let a = PartitionSnapshot::from_partition(&aligned(&graph), 0).unwrap();
    let assignment_a = a.assignment().to_vec();
    let swap = EpochSwap::new(a);
    let stop = AtomicBool::new(false);
    let loads = AtomicU64::new(0);
    const SWAPS: u64 = 400;
    let readers = reader_threads();
    // The swaps start only once every reader has loaded a generation, so they cannot all land
    // before any reader runs.
    let loaded = Barrier::new(readers + 1);

    std::thread::scope(|scope| {
        let swap_ref = &swap;
        let stop_ref = &stop;
        let loads_ref = &loads;
        let loaded_ref = &loaded;
        let assignment_a = &assignment_a;
        let graph_ref = &graph;
        for _ in 0..readers {
            scope.spawn(move || {
                let assignment_b: Vec<u32> = scattered(graph_ref).assignment().to_vec();
                let mut last_epoch = 0u64;
                let mut waited = false;
                while !stop_ref.load(Ordering::Relaxed) {
                    let snapshot = swap_ref.load();
                    // Purity: the whole assignment equals A's or B's, never a blend.
                    let assignment = snapshot.assignment();
                    assert!(
                        assignment[..] == assignment_a[..] || assignment[..] == assignment_b[..],
                        "torn generation at epoch {}",
                        snapshot.epoch()
                    );
                    // Epochs move forward only.
                    assert!(
                        snapshot.epoch() >= last_epoch,
                        "epoch regressed: {} after {last_epoch}",
                        snapshot.epoch()
                    );
                    last_epoch = snapshot.epoch();
                    loads_ref.fetch_add(1, Ordering::Relaxed);
                    if !waited {
                        loaded_ref.wait();
                        waited = true;
                    }
                }
            });
        }
        let graph = &graph;
        loaded.wait();
        for epoch in 1..=SWAPS {
            let partition = if epoch % 2 == 1 {
                scattered(graph)
            } else {
                aligned(graph)
            };
            swap_ref.swap(PartitionSnapshot::from_partition(&partition, epoch).unwrap());
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(swap.swap_count(), SWAPS);
    assert!(loads.load(Ordering::Relaxed) > 0, "readers must have run");
}

/// Engine-level hammering: concurrent multigets race repeated `install_partition` swaps.
/// Every multiget must complete with the full, correct value set, its fanout must match one
/// of the two pure placements (1 or GROUPS — anything else is a torn route), and the engine's
/// report must account for every single query issued.
#[test]
fn multigets_survive_live_swaps_without_drops_or_torn_routing() {
    let graph = community_graph();
    let engine = ServingEngine::new(&aligned(&graph), EngineConfig::default()).unwrap();
    engine.reset_metrics();

    const QUERIES_PER_READER: u64 = 300;
    const SWAPS: u64 = 120;
    let readers = reader_threads();
    let done_swapping = AtomicBool::new(false);
    // The readers start only once the first install is live, so each is served at epoch ≥ 1
    // however the threads are scheduled; the writer keeps swapping under their load.
    let installed = Barrier::new(readers + 1);

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let graph_ref = &graph;
        let done_ref = &done_swapping;
        let installed_ref = &installed;

        let clients: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    installed_ref.wait();
                    for i in 0..QUERIES_PER_READER {
                        // Each multiget requests one full community (plus duplicates).
                        let group = ((reader as u64 + i) % GROUPS as u64) as u32;
                        let base = group * SIZE;
                        let mut keys: Vec<u32> = (base..base + SIZE).collect();
                        keys.push(base); // duplicate: must still be answered once
                        let result = engine_ref.multiget(&keys).unwrap();
                        // No drops, correct values, ascending order.
                        assert_eq!(result.values.len(), SIZE as usize);
                        for (offset, &(key, value)) in result.values.iter().enumerate() {
                            assert_eq!(key, base + offset as u32);
                            assert_eq!(value, value_of(key), "wrong record for key {key}");
                        }
                        // Fanout must correspond to a *pure* generation: 1 under the aligned
                        // placement, GROUPS under the scattered one. A torn partition map
                        // would route a community across 2..GROUPS-1 shards.
                        assert!(
                            result.fanout == 1 || result.fanout == GROUPS,
                            "torn routing: community served with fanout {} at epoch {}",
                            result.fanout,
                            result.epoch
                        );
                        let _ = graph_ref; // graph kept alive for symmetry with real replay
                    }
                })
            })
            .collect();

        let swapper = scope.spawn(move || {
            for i in 0..SWAPS {
                let next = if i % 2 == 0 {
                    scattered(graph_ref)
                } else {
                    aligned(graph_ref)
                };
                engine_ref.install_partition(&next).unwrap();
                if i == 0 {
                    installed_ref.wait();
                }
                std::thread::yield_now();
            }
            done_ref.store(true, Ordering::Relaxed);
        });

        for client in clients {
            client.join().expect("client thread panicked");
        }
        swapper.join().expect("swapper thread panicked");
    });

    assert!(done_swapping.load(Ordering::Relaxed));
    assert_eq!(engine.swap_count(), SWAPS);
    let report = engine.report();
    // No serving gap: every issued multiget is accounted for.
    assert_eq!(report.queries, readers as u64 * QUERIES_PER_READER);
    // The readers raced at least one installed generation.
    assert!(report.max_epoch >= 1);
}

/// The rebuilt lock-free metrics record path: multigets hammered from many threads while the
/// swapper installs generation after generation must be accounted **exactly**. The sharded
/// counters, the latency histogram, and the exact per-fanout histogram may lose no update —
/// under the old `Mutex<Vec>` implementation this test merely serialized; under the lock-free
/// one it proves the relaxed-atomic shards still add up to the last query.
#[test]
fn metrics_accounting_stays_exact_while_records_race_live_swaps() {
    let graph = community_graph();
    let engine = ServingEngine::new(&aligned(&graph), EngineConfig::default()).unwrap();
    engine.reset_metrics();

    const QUERIES_PER_READER: u64 = 400;
    const SWAPS: u64 = 100;
    let readers = reader_threads().max(2);

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let graph_ref = &graph;
        let clients: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    for i in 0..QUERIES_PER_READER {
                        let group = ((reader as u64 + i) % GROUPS as u64) as u32;
                        let base = group * SIZE;
                        let keys: Vec<u32> = (base..base + SIZE).collect();
                        engine_ref.multiget(&keys).unwrap();
                    }
                })
            })
            .collect();
        let swapper = scope.spawn(move || {
            for i in 0..SWAPS {
                let next = if i % 2 == 0 {
                    scattered(graph_ref)
                } else {
                    aligned(graph_ref)
                };
                engine_ref.install_partition(&next).unwrap();
                std::thread::yield_now();
            }
        });
        for client in clients {
            client.join().expect("client thread panicked");
        }
        swapper.join().expect("swapper thread panicked");
    });

    let total = readers as u64 * QUERIES_PER_READER;
    let report = engine.report();
    assert_eq!(
        report.queries, total,
        "a dropped record() would show up here"
    );

    // Exact fanout accounting: every multiget recorded exactly one fanout, and each one is a
    // pure generation's (1 aligned, GROUPS scattered).
    let observed: u64 = report.fanout_histogram.iter().sum();
    assert_eq!(observed, total);
    for (fanout, &count) in report.fanout_histogram.iter().enumerate() {
        assert!(
            count == 0 || fanout == 1 || fanout == GROUPS as usize,
            "impossible fanout {fanout} recorded {count} times"
        );
    }

    // The exported telemetry snapshot agrees with the report to the last update: per-shard
    // request counters sum to the total shard touches, and the exact fanout histogram carries
    // the same mass.
    let snapshot = engine.telemetry_snapshot("t");
    assert_eq!(snapshot.counters["t/queries"], total);
    let shard_total: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("t/shard_requests/"))
        .map(|(_, &count)| count)
        .sum();
    let fanout_mass: u64 = report
        .fanout_histogram
        .iter()
        .enumerate()
        .map(|(fanout, &count)| fanout as u64 * count)
        .sum();
    assert_eq!(shard_total, fanout_mass);
    let exported = &snapshot.histograms["t/fanout"];
    assert_eq!(exported.count, total);
    assert_eq!(exported.sum, fanout_mass as f64);
    // The latency histogram counted every multiget too (out-of-range values land in the
    // underflow bucket, so nothing escapes the count).
    assert_eq!(snapshot.histograms["t/latency"].count, total);
}

/// Delta-map installs raced against concurrent multigets: the controller's `install_delta`
/// path (COW snapshot, moved keys only — no full-map clone) must give readers the same
/// guarantees as a full install. Every multiget resolves a pure generation (fanout 1 or
/// GROUPS, correct values), and the epoch a reader observes never goes backwards.
#[test]
fn delta_installs_race_concurrent_readers_without_torn_reads() {
    let graph = community_graph();
    let engine = ServingEngine::new(&aligned(&graph), EngineConfig::default()).unwrap();
    engine.reset_metrics();

    const QUERIES_PER_READER: u64 = 300;
    const DELTAS: u64 = 120;
    let readers = reader_threads();
    // The readers start only once the first delta is live (see the full-install test above).
    let installed = Barrier::new(readers + 1);

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let graph_ref = &graph;
        let installed_ref = &installed;
        let clients: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    installed_ref.wait();
                    let mut last_epoch = 0u64;
                    for i in 0..QUERIES_PER_READER {
                        let group = ((reader as u64 + i) % GROUPS as u64) as u32;
                        let base = group * SIZE;
                        let keys: Vec<u32> = (base..base + SIZE).collect();
                        let result = engine_ref.multiget(&keys).unwrap();
                        assert_eq!(result.values.len(), SIZE as usize);
                        for (offset, &(key, value)) in result.values.iter().enumerate() {
                            assert_eq!(key, base + offset as u32);
                            assert_eq!(value, value_of(key), "wrong record for key {key}");
                        }
                        assert!(
                            result.fanout == 1 || result.fanout == GROUPS,
                            "torn routing: community served with fanout {} at epoch {}",
                            result.fanout,
                            result.epoch
                        );
                        assert!(
                            result.epoch >= last_epoch,
                            "epoch regressed: {} after {last_epoch}",
                            result.epoch
                        );
                        last_epoch = result.epoch;
                    }
                })
            })
            .collect();

        // The single writer flips the live placement via *deltas* computed against whatever
        // snapshot is current — exactly what the repartition controller does per epoch.
        let swapper = scope.spawn(move || {
            for i in 0..DELTAS {
                let target = if i % 2 == 0 {
                    scattered(graph_ref)
                } else {
                    aligned(graph_ref)
                };
                let base = engine_ref.current_snapshot();
                let delta = PartitionDelta::between(&base, &target).unwrap();
                // Alternating full-disagreement placements: all but SIZE keys move each time.
                assert_eq!(delta.len(), ((GROUPS - 1) * SIZE) as usize);
                engine_ref.install_delta(&delta).unwrap();
                if i == 0 {
                    installed_ref.wait();
                }
                std::thread::yield_now();
            }
        });

        for client in clients {
            client.join().expect("client thread panicked");
        }
        swapper.join().expect("swapper thread panicked");
    });

    assert_eq!(engine.current_epoch(), DELTAS);
    let report = engine.report();
    assert_eq!(report.queries, readers as u64 * QUERIES_PER_READER);
    assert!(report.max_epoch >= 1);
}

/// Communities 1..GROUPS rotated one shard to the right among the *live* shards; community 0
/// stays on shard 0. Disagrees with [`aligned`] on every key outside community 0 while never
/// placing anything on shard 0, so a scripted crash of shard 0 keeps one exact, static set of
/// unreachable keys across every delta install.
fn live_rotated(graph: &shp::hypergraph::BipartiteGraph) -> Partition {
    Partition::from_assignment(
        graph,
        GROUPS,
        (0..GROUPS * SIZE)
            .map(|v| {
                let g = v / SIZE;
                if g == 0 {
                    0
                } else {
                    (g % (GROUPS - 1)) + 1
                }
            })
            .collect(),
    )
    .unwrap()
}

/// Partial-failure invariant under concurrency: with shard 0 scripted dead and no replicas,
/// every multiget must degrade **precisely** — `missing_keys` is exactly the requested keys
/// of the dead community, every other key is served with the correct value, and the two sets
/// stay disjoint and exhaustive — while a writer races delta installs that shuffle all live
/// communities between shards. A torn fault path would either drop a live key into
/// `missing_keys` or invent a value for a dead one.
#[test]
fn degraded_multigets_stay_precise_while_deltas_race_live_installs() {
    let graph = community_graph();
    let injector = Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 0), 0x0DD));
    let engine = ServingEngine::new(&aligned(&graph), EngineConfig::default())
        .unwrap()
        .with_fault_injector(injector);
    engine.reset_metrics();

    const QUERIES_PER_READER: u64 = 300;
    const DELTAS: u64 = 120;
    let readers = reader_threads();

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let graph_ref = &graph;
        let clients: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    for i in 0..QUERIES_PER_READER {
                        // One live community, plus (on even queries) half of the dead one.
                        let group = 1 + ((reader as u64 + i) % (GROUPS as u64 - 1)) as u32;
                        let base = group * SIZE;
                        let mut keys: Vec<u32> = (base..base + SIZE).collect();
                        let include_dead = i % 2 == 0;
                        if include_dead {
                            keys.extend(0..SIZE / 2);
                        }
                        let result = engine_ref.multiget(&keys).unwrap();

                        // Missing is exactly the requested ∩ dead-community set — never a
                        // live key, never a dead key served.
                        let expected_missing: Vec<u32> = if include_dead {
                            (0..SIZE / 2).collect()
                        } else {
                            Vec::new()
                        };
                        assert_eq!(result.missing_keys, expected_missing);
                        assert_eq!(result.values.len(), SIZE as usize);
                        for (offset, &(key, value)) in result.values.iter().enumerate() {
                            assert_eq!(key, base + offset as u32);
                            assert_eq!(value, value_of(key), "wrong record for key {key}");
                        }
                        assert_eq!(result.is_degraded(), include_dead);
                        assert!(
                            result.epoch >= last_epoch,
                            "epoch regressed: {} after {last_epoch}",
                            result.epoch
                        );
                        last_epoch = result.epoch;

                        // The typed escalation matches the partial result.
                        if include_dead {
                            let err = result.require_complete().unwrap_err();
                            assert!(matches!(
                                err,
                                ServingError::DegradedService { missing }
                                    if missing == (SIZE / 2) as usize
                            ));
                        } else {
                            result.require_complete().unwrap();
                        }
                    }
                })
            })
            .collect();

        // The writer shuffles every *live* community between shards via deltas; the dead
        // community never moves, so the expected missing set above is exact at every epoch.
        let swapper = scope.spawn(move || {
            for i in 0..DELTAS {
                let target = if i % 2 == 0 {
                    live_rotated(graph_ref)
                } else {
                    aligned(graph_ref)
                };
                let base = engine_ref.current_snapshot();
                let delta = PartitionDelta::between(&base, &target).unwrap();
                assert_eq!(delta.len(), ((GROUPS - 1) * SIZE) as usize);
                engine_ref.install_delta(&delta).unwrap();
                std::thread::yield_now();
            }
        });

        for client in clients {
            client.join().expect("client thread panicked");
        }
        swapper.join().expect("swapper thread panicked");
    });

    // Degradation accounting is exact: every even-indexed query of every reader was degraded.
    let total = readers as u64 * QUERIES_PER_READER;
    let degraded = readers as u64 * QUERIES_PER_READER / 2;
    let report = engine.report();
    assert_eq!(report.queries, total);
    assert_eq!(report.degraded_queries, degraded);
    assert_eq!(report.missing_keys, degraded * (SIZE / 2) as u64);
    assert!((report.availability - 0.5).abs() < 1e-12);
}

/// The same scripted crash with 2-way replication: failover routing must keep every racing
/// multiget **complete** and correct — the dead primary's keys are served from its replica
/// while the writer races delta installs over the live communities.
#[test]
fn replicated_failover_keeps_results_complete_while_deltas_race() {
    let graph = community_graph();
    let injector = Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 0), 0x0DD));
    let engine = ServingEngine::new(
        &aligned(&graph),
        EngineConfig {
            replication: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .with_fault_injector(injector);
    engine.reset_metrics();

    const QUERIES_PER_READER: u64 = 300;
    const DELTAS: u64 = 120;
    let readers = reader_threads();

    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let graph_ref = &graph;
        let clients: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    for i in 0..QUERIES_PER_READER {
                        let group = 1 + ((reader as u64 + i) % (GROUPS as u64 - 1)) as u32;
                        let base = group * SIZE;
                        let mut keys: Vec<u32> = (base..base + SIZE).collect();
                        keys.extend(0..SIZE / 2); // dead primary — must fail over
                        let result = engine_ref
                            .multiget(&keys)
                            .unwrap()
                            .require_complete()
                            .unwrap();
                        assert_eq!(result.values.len(), (SIZE + SIZE / 2) as usize);
                        for &(key, value) in &result.values {
                            assert_eq!(value, value_of(key), "wrong record for key {key}");
                        }
                    }
                })
            })
            .collect();

        let swapper = scope.spawn(move || {
            for i in 0..DELTAS {
                let target = if i % 2 == 0 {
                    live_rotated(graph_ref)
                } else {
                    aligned(graph_ref)
                };
                let base = engine_ref.current_snapshot();
                let delta = PartitionDelta::between(&base, &target).unwrap();
                engine_ref.install_delta(&delta).unwrap();
                std::thread::yield_now();
            }
        });

        for client in clients {
            client.join().expect("client thread panicked");
        }
        swapper.join().expect("swapper thread panicked");
    });

    let report = engine.report();
    assert_eq!(report.queries, readers as u64 * QUERIES_PER_READER);
    assert_eq!(report.degraded_queries, 0, "failover must mask the crash");
    assert_eq!(report.availability, 1.0);
    assert!(
        report.retries > 0,
        "the dead primary must have cost retries"
    );
}

/// Service times are drawn without a lock: a shard's `n`-th request takes draw `n`, where `n`
/// comes from its request counter. Racing single-shard plans from many threads must hand out
/// exactly the draws a sequential run does — no draw index reused or skipped — so every
/// shard ends with the same request count and the same multiset of latencies.
#[test]
fn concurrent_requests_take_every_draw_index_exactly_once() {
    let graph = community_graph();
    let snapshot = PartitionSnapshot::from_partition(&aligned(&graph), 0).unwrap();
    let build = || ShardSet::build(&snapshot, EngineConfig::default().latency_model, 0x5047);
    // Plan i fetches one key of community i % GROUPS, so it contacts one shard and its
    // latency is exactly one draw.
    let plans: Vec<RoutePlan> = (0..GROUPS * SIZE * 8)
        .map(|i| {
            let key = (i % GROUPS) * SIZE + (i / GROUPS) % SIZE;
            ShardRouter::new().route(&snapshot, &[key]).unwrap()
        })
        .collect();
    let serve = |set: &ShardSet, plan: &RoutePlan| {
        assert_eq!(plan.fanout(), 1);
        (plan.batches[0].shard, set.execute(plan).unwrap().latency)
    };
    let per_shard = |served: Vec<(u32, f64)>| {
        let mut latencies = vec![Vec::new(); GROUPS as usize];
        for (shard, latency) in served {
            latencies[shard as usize].push(latency.to_bits());
        }
        for shard in &mut latencies {
            shard.sort_unstable();
        }
        latencies
    };

    let sequential = build();
    let expected: Vec<(u32, f64)> = plans.iter().map(|p| serve(&sequential, p)).collect();
    let concurrent = build();
    // Contiguous chunks: every reader cycles through every shard, so all of them race on each
    // shard's counter.
    let chunks: Vec<&[RoutePlan]> = plans
        .chunks(plans.len().div_ceil(reader_threads()))
        .collect();
    let start = std::sync::Barrier::new(chunks.len());
    let raced: Vec<(u32, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let (concurrent, start) = (&concurrent, &start);
                scope.spawn(move || {
                    start.wait();
                    chunk
                        .iter()
                        .map(|p| serve(concurrent, p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    assert_eq!(sequential.shard_requests(), concurrent.shard_requests());
    assert_eq!(per_shard(expected), per_shard(raced));
}

/// A sequence of delta installs must leave the engine in a state **bit-identical** to the
/// same sequence done through full-map installs: same snapshot pages, same epochs, same
/// multiget values *and latencies* (service-time draws depend only on seed, epoch, shard and
/// the shard's request count, which both paths reset at every install).
#[test]
fn delta_install_sequence_is_bit_identical_to_full_installs() {
    let graph = community_graph();
    let full = ServingEngine::new(&aligned(&graph), EngineConfig::default()).unwrap();
    let delta = ServingEngine::new(&aligned(&graph), EngineConfig::default()).unwrap();

    for step in 0..6u64 {
        let target = if step % 2 == 0 {
            scattered(&graph)
        } else {
            aligned(&graph)
        };
        full.install_partition(&target).unwrap();
        let diff = PartitionDelta::between(&delta.current_snapshot(), &target).unwrap();
        delta.install_delta(&diff).unwrap();

        assert_eq!(full.current_epoch(), delta.current_epoch());
        assert_eq!(full.current_snapshot(), delta.current_snapshot());
        // Identical multigets resolve to identical results on both engines — values, fanout,
        // epoch, and the (seeded) simulated latency.
        for group in 0..GROUPS {
            let keys: Vec<u32> = (group * SIZE..(group + 1) * SIZE).collect();
            let a = full.multiget(&keys).unwrap();
            let b = delta.multiget(&keys).unwrap();
            assert_eq!(a.values, b.values);
            assert_eq!(a.fanout, b.fanout);
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.latency.to_bits(), b.latency.to_bits());
        }
    }
}
