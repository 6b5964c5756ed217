//! Figure 4: distribution of multi-get latency as a function of query fanout.
//!
//! * `--synthetic` (Figure 4a): one key on each of 40 shards; the multiget of the first `f`
//!   keys contacts exactly `f` shards, for every fanout 1..40.
//! * `--replay` (Figure 4b): a Facebook-like friendship graph sharded over 40 servers with SHP,
//!   every query served once, latency bucketed by the realized fanout of every query.
//!
//! Both serve through `ServingEngine::multiget` with the default engine configuration (no
//! cache, the default `LatencyModel`). Without arguments both experiments run.

use shp_bench::{env_usize, TextTable};
use shp_core::{partition_recursive, ShpConfig};
use shp_datagen::{social_graph, SocialGraphConfig};
use shp_hypergraph::{DataId, GraphBuilder, Partition};
use shp_serving::{EngineConfig, ServingEngine, ServingReport};
use shp_sharding_sim::LatencySummary;
use std::collections::BTreeMap;

/// Serves every multiget once on a fresh engine over `placement`. Returns the engine's report
/// and a latency summary per realized fanout, ascending.
fn serve<'a>(
    placement: &Partition,
    multigets: impl IntoIterator<Item = &'a [DataId]>,
) -> (ServingReport, Vec<(u32, LatencySummary)>) {
    let engine = ServingEngine::new(placement, EngineConfig::default()).expect("k >= 1");
    let mut latencies: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for keys in multigets {
        let result = engine.multiget(keys).expect("every key is placed");
        latencies
            .entry(result.fanout)
            .or_default()
            .push(result.latency);
    }
    let by_fanout = latencies
        .into_iter()
        .map(|(fanout, samples)| (fanout, LatencySummary::from_samples(&samples)))
        .collect();
    (engine.report(), by_fanout)
}

fn print_table(title: &str, report: &ServingReport, by_fanout: &[(u32, LatencySummary)]) {
    println!("{title}");
    println!("average fanout: {:.2}\n", report.mean_fanout);
    let mut table = TextTable::new(["fanout", "queries", "p50", "p90", "p95", "p99", "mean"]);
    for (fanout, summary) in by_fanout {
        table.add_row([
            fanout.to_string(),
            summary.count.to_string(),
            format!("{:.2}t", summary.p50),
            format!("{:.2}t", summary.p90),
            format!("{:.2}t", summary.p95),
            format!("{:.2}t", summary.p99),
            format!("{:.2}t", summary.mean),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_synthetic = args.is_empty() || args.iter().any(|a| a == "--synthetic");
    let run_replay = args.is_empty() || args.iter().any(|a| a == "--replay");
    let servers = env_usize("SHP_BENCH_SERVERS", 40) as u32;
    let users = env_usize("SHP_BENCH_USERS", 20_000);

    if run_synthetic {
        // Figure 4a: key v lives alone on shard v, so the first f keys fan out to f shards.
        let keys: Vec<DataId> = (0..servers).collect();
        let graph = GraphBuilder::from_hyperedges(vec![keys.clone()]).expect("one query");
        let placement =
            Partition::from_assignment(&graph, servers, keys.clone()).expect("one key per shard");
        let samples = 20_000;
        let multigets =
            (1..=servers.min(40) as usize).flat_map(|f| std::iter::repeat_n(&keys[..f], samples));
        let (report, by_fanout) = serve(&placement, multigets);
        print_table(
            "Figure 4a — synthetic queries (latency in units of t, the single-request mean)",
            &report,
            &by_fanout,
        );
    }

    if run_replay {
        // Figure 4b: a social graph sharded with SHP over 40 servers, every query served once.
        let graph = social_graph(&SocialGraphConfig {
            num_users: users,
            avg_degree: 20,
            avg_community_size: 120,
            cross_community_fraction: 0.08,
            seed: 0x5047,
        });
        let queries = || graph.queries().map(|q| graph.query_neighbors(q));
        let config = ShpConfig::recursive_bisection(servers).with_seed(0x5047);
        let shp = partition_recursive(&graph, &config).expect("valid config");
        let (report, by_fanout) = serve(&shp.partition, queries());
        print_table(
            &format!(
                "Figure 4b — real-world-style workload on {servers} servers sharded with SHP (average fanout {:.1})",
                report.mean_fanout
            ),
            &report,
            &by_fanout,
        );

        // For contrast, the same workload under random sharding (the \"fanout 40\" end of the plot).
        let random = shp_baselines::RandomPartitioner::new(1).partition_into(&graph, servers, 0.05);
        let (random_report, _) = serve(&random, queries());
        println!(
            "Random sharding for comparison: average fanout {:.1}, mean latency {:.2}t (SHP mean {:.2}t) — {:.1}x reduction\n",
            random_report.mean_fanout,
            random_report.mean_latency,
            report.mean_latency,
            random_report.mean_latency / report.mean_latency.max(1e-9),
        );
    }
}
