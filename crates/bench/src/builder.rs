//! Checks `shp_hypergraph::GraphBuilder`'s flat-arena CSR build against the per-query-`Vec`
//! build of [`crate::oracles::ingest`].

mod tests {
    use crate::oracles::ingest::ReferenceBuilder;
    use shp_hypergraph::GraphBuilder;

    #[test]
    fn legacy_kernel_is_bit_identical_to_flat_for_all_ingestion_shapes() {
        let hyperedges: Vec<Vec<u32>> = vec![vec![9, 2, 2, 0], vec![5], vec![1, 8, 3, 3]];
        let edges: Vec<(u32, u32)> = vec![(5, 1), (0, 9), (0, 4), (3, 3), (5, 1), (5, 0)];
        for dedup in [true, false] {
            let mut legacy = ReferenceBuilder::new();
            if !dedup {
                legacy = legacy.without_dedup();
            }
            for pins in &hyperedges {
                legacy.add_query(pins.iter().copied());
            }
            legacy.add_edges(edges.iter().copied());
            legacy.set_data_weights((0..10).collect());
            let legacy = legacy.build().unwrap();
            for workers in [1usize, 2, 4, 8] {
                let mut flat = GraphBuilder::new().with_workers(workers);
                if !dedup {
                    flat = flat.without_dedup();
                }
                for pins in &hyperedges {
                    flat.add_query_slice(pins);
                }
                flat.add_edges(edges.iter().copied());
                flat.set_data_weights((0..10).collect());
                assert_eq!(
                    flat.build().unwrap(),
                    legacy,
                    "dedup={dedup} workers={workers}"
                );
            }
        }
    }
}
