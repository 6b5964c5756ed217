//! # shp-bench
//!
//! Shared harness utilities for the benchmark binaries that regenerate the tables and figures
//! of the SHP paper's evaluation (Section 4). Each binary in `src/bin/` is named after the
//! table or figure it reproduces (`table1_datasets` … `table3_scalability`, `fig4_latency` …
//! `fig8_objectives`) and prints the same rows/series the paper reports.
//!
//! All binaries accept the environment variable `SHP_BENCH_SCALE` (default `0.01`) controlling
//! the fraction of the published dataset sizes that is synthesized, so the full suite runs on a
//! laptop while preserving the qualitative shapes of the results.
//!
//! The library also holds the reference implementations ([`oracles`]) that the conformance
//! tests and the hot-path benches check the optimized gain kernel, CSR build, text readers and
//! serving metrics against, and the harness those tests share ([`conformance`]). No shipped
//! crate depends on this one, so they never reach production.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use shp_baselines::full_registry;
use shp_core::api::{NoopObserver, PartitionSpec};
use shp_datagen::Dataset;
use shp_hypergraph::{BipartiteGraph, Partition};
use std::time::Duration;

pub mod bench_json;
pub mod conformance;
pub mod oracles;

// Unit tests of shipped modules against `oracles`. Each module is named after the shipped
// module it checks, so its tests keep the paths they had as that module's own unit tests.
#[cfg(test)]
mod builder;
#[cfg(test)]
mod gains;
#[cfg(test)]
mod io;
#[cfg(test)]
mod metrics;
#[cfg(test)]
mod refinement;

/// Default dataset scale used by the benchmark binaries.
pub const DEFAULT_SCALE: f64 = 0.01;

/// Reads the benchmark scale from `SHP_BENCH_SCALE` (fraction of the published dataset size).
pub fn bench_scale() -> f64 {
    std::env::var("SHP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(DEFAULT_SCALE)
}

/// Reads an environment variable as usize with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Generates a dataset at the benchmark scale with the standard seed, removing trivial queries
/// (degree ≤ 1) exactly as the paper's experiments do.
pub fn load_dataset(dataset: Dataset, scale: f64) -> BipartiteGraph {
    dataset.generate(scale, 0x5047).filter_small_queries(2)
}

/// Result of running one partitioner on one graph.
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    /// Algorithm name as printed in the tables.
    pub algorithm: String,
    /// Average fanout of the produced partition.
    pub fanout: f64,
    /// Realized imbalance.
    pub imbalance: f64,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// The partition itself.
    pub partition: Partition,
}

/// The registry names compared in the quality tables. `shpk` and `shp2` are ours; the
/// remaining entries are the stand-ins for the third-party packages of the paper.
pub fn quality_algorithms() -> Vec<String> {
    vec![
        "shpk".to_string(),
        "shp2".to_string(),
        "multilevel".to_string(),
        "label-propagation".to_string(),
        "greedy".to_string(),
        "random".to_string(),
    ]
}

/// Runs one registry algorithm on a graph through the unified `Partitioner` trait.
///
/// # Panics
/// Panics on an unknown registry name or an invalid spec (the harness passes literal specs).
pub fn run_algorithm(
    name: &str,
    graph: &BipartiteGraph,
    k: u32,
    epsilon: f64,
    seed: u64,
) -> AlgorithmRun {
    let registry = full_registry();
    let spec = PartitionSpec::new(k).with_epsilon(epsilon).with_seed(seed);
    let outcome = registry
        .run(name, graph, &spec, &mut NoopObserver)
        .expect("registered algorithm and valid spec");
    AlgorithmRun {
        algorithm: outcome.algorithm,
        fanout: outcome.fanout,
        imbalance: outcome.imbalance,
        elapsed: outcome.elapsed,
        partition: outcome.partition,
    }
}

/// A minimal fixed-width text table printer used by every benchmark binary.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same arity as the header).
    pub fn add_row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i] + 2))
                .collect::<String>()
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.add_row(["alpha", "1"]);
        t.add_row(["b", "12345"]);
        let rendered = t.render();
        assert!(rendered.contains("alpha"));
        assert!(rendered.contains("12345"));
        assert_eq!(rendered.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn text_table_rejects_wrong_arity() {
        let mut t = TextTable::new(["a", "b"]);
        t.add_row(["only-one"]);
    }

    #[test]
    fn run_algorithm_covers_all_quality_algorithms() {
        let graph = load_dataset(Dataset::EmailEnron, 0.005);
        for name in quality_algorithms() {
            let run = run_algorithm(&name, &graph, 4, 0.05, 1);
            assert!(run.fanout >= 1.0, "{name} fanout {}", run.fanout);
            assert_eq!(run.partition.num_buckets(), 4);
        }
    }

    #[test]
    fn bench_scale_defaults_and_parses() {
        // The default is used when the variable is unset or invalid (we cannot mutate the
        // environment safely in parallel tests, so just check the default constant).
        const { assert!(DEFAULT_SCALE > 0.0 && DEFAULT_SCALE <= 1.0) };
        assert!(bench_scale() > 0.0);
    }

    #[test]
    fn shp_beats_random_on_a_registry_dataset() {
        let graph = load_dataset(Dataset::Fb10M, 0.005);
        let shp = run_algorithm("shp2", &graph, 8, 0.05, 1);
        let random = run_algorithm("random", &graph, 8, 0.05, 1);
        assert!(
            shp.fanout < random.fanout,
            "shp2 {} vs random {}",
            shp.fanout,
            random.fanout
        );
    }
}
