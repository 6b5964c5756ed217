//! Seeded input generation. Everything a workload reads is written here from `--seed` alone,
//! so the same seed gives the same files; the workload process then receives only the files.

use crate::Args;
use shp_datagen::{planted_partition, Dataset, PlantedConfig};
use shp_hypergraph::{io, Partition};
use std::path::{Path, PathBuf};

/// Buckets of the bisection workload and of the BSP workload.
pub const BISECT_K: u32 = 2048;
pub const BSP_K: u32 = 32;

/// Planted-partition shape of the serving graph: 64 blocks of 4096 keys, one shard per block.
pub const SHARDS: u32 = 64;
const BLOCK_SIZE: usize = 4096;
const SERVE_QUERIES: usize = 65_536;
const QUERY_DEGREE: usize = 8;
const NOISE: f64 = 0.05;

/// Input files of a workload inside its work directory.
pub fn graph_path(args: &Args) -> PathBuf {
    let name = if is_partition_workload(&args.workload) {
        "graph.hgr"
    } else {
        "graph.shpb"
    };
    args.dir.join(name)
}

/// The placement a serving workload starts from: the generator's true blocks for
/// `serve-read`, keys hashed `key mod 64` for `serve-repartition`.
pub fn placement_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(if workload == "serve-read" {
        "truth.part"
    } else {
        "hashed.part"
    })
}

pub fn is_partition_workload(workload: &str) -> bool {
    workload == "bisect-k2048" || workload == "bsp-k32"
}

/// Writes the workload's inputs into `args.dir`.
pub fn generate(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("create {:?}: {e}", args.dir))?;
    let path = graph_path(args);
    if is_partition_workload(&args.workload) {
        // Full-scale synthetic email-Enron (power law), handed over as hMETIS text.
        let graph = Dataset::EmailEnron.generate(1.0, args.seed);
        io::write_hmetis_file(&graph, &path).map_err(|e| format!("write {path:?}: {e}"))?;
    } else {
        let (graph, truth) = planted_partition(&PlantedConfig {
            num_blocks: SHARDS,
            block_size: BLOCK_SIZE,
            num_queries: SERVE_QUERIES,
            query_degree: QUERY_DEGREE,
            noise: NOISE,
            seed: args.seed,
        });
        io::write_shpb_file(&graph, &path).map_err(|e| format!("write {path:?}: {e}"))?;
        let hashed: Vec<u32> = (0..graph.num_data() as u32)
            .map(|key| key % SHARDS)
            .collect();
        for (name, assignment) in [("truth.part", truth), ("hashed.part", hashed)] {
            let partition = Partition::from_assignment(&graph, SHARDS, assignment)
                .map_err(|e| format!("placement {name}: {e}"))?;
            io::write_partition_file(&partition, args.dir.join(name))
                .map_err(|e| format!("write {name}: {e}"))?;
        }
    }
    Ok(())
}

/// Size of a file in bytes (0 when it cannot be read).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
