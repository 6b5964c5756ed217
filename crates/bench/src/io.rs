//! Checks `shp_hypergraph::io`'s zero-copy parallel parsers against the per-line readers of
//! [`crate::oracles::ingest`].

mod tests {
    use crate::oracles::ingest::{read_edge_list, read_hmetis};
    use shp_hypergraph::io::{parse_edge_list_bytes, parse_hmetis_bytes, write_hmetis};
    use shp_hypergraph::{GraphBuilder, GraphError};

    #[test]
    fn edge_list_matches_legacy_reader_for_every_worker_count() {
        let mut text = String::from("# header\n");
        for q in 0..500u32 {
            for v in 0..(q % 7 + 1) {
                text.push_str(&format!("{q}\t{}\n", (q * 31 + v * 17) % 211));
            }
        }
        let legacy = read_edge_list(text.as_bytes()).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let parsed = parse_edge_list_bytes(text.as_bytes(), workers).unwrap();
            assert_eq!(parsed, legacy, "workers={workers}");
        }
    }

    #[test]
    fn edge_list_errors_match_legacy_lines_for_every_worker_count() {
        let mut text = String::new();
        for q in 0..300u32 {
            text.push_str(&format!("{q} {}\n", q % 97));
        }
        text.push_str("17 banana\n"); // line 301
        for q in 0..50u32 {
            text.push_str(&format!("{q} 1\n"));
        }
        let legacy = read_edge_list(text.as_bytes()).unwrap_err();
        let GraphError::Parse {
            line: legacy_line,
            message: legacy_message,
        } = legacy
        else {
            panic!("expected a parse error");
        };
        assert_eq!(legacy_line, 301);
        for workers in [1usize, 2, 4, 8] {
            match parse_edge_list_bytes(text.as_bytes(), workers) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!(line, legacy_line, "workers={workers}");
                    assert_eq!(message, legacy_message, "workers={workers}");
                }
                other => panic!("workers={workers}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn hmetis_ignores_trailing_lines_like_legacy() {
        // Garbage after the declared hyperedges must be ignored by both readers.
        let text = "2 3\n1 2\n2 3\nthis is not a hyperedge\n";
        let legacy = read_hmetis(text.as_bytes()).unwrap();
        for workers in [1usize, 2, 4, 8] {
            assert_eq!(
                parse_hmetis_bytes(text.as_bytes(), workers).unwrap(),
                legacy,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn hmetis_matches_legacy_reader_for_every_worker_count() {
        // The paper's Figure-1 graph.
        let mut b = GraphBuilder::new();
        b.add_query([0u32, 1, 5]);
        b.add_query([0u32, 1, 2, 3]);
        b.add_query([3u32, 4, 5]);
        let g = b.build().unwrap();
        let mut buf = Vec::new();
        write_hmetis(&g, &mut buf).unwrap();
        let legacy = read_hmetis(&buf[..]).unwrap();
        for workers in [1usize, 2, 4, 8] {
            assert_eq!(
                parse_hmetis_bytes(&buf, workers).unwrap(),
                legacy,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn hmetis_errors_match_legacy_lines_for_every_worker_count() {
        let mut text = String::from("% comment\n200 50\n");
        for q in 0..150u32 {
            text.push_str(&format!("{} {}\n", q % 50 + 1, (q * 7) % 50 + 1));
        }
        text.push_str("3 99\n"); // line 153: vertex 99 outside 1..=50
        for _ in 0..60 {
            text.push_str("1 2\n");
        }
        let GraphError::Parse {
            line: legacy_line,
            message: legacy_message,
        } = read_hmetis(text.as_bytes()).unwrap_err()
        else {
            panic!("expected a parse error");
        };
        assert_eq!(legacy_line, 153);
        for workers in [1usize, 2, 4, 8] {
            match parse_hmetis_bytes(text.as_bytes(), workers) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!(line, legacy_line, "workers={workers}");
                    assert_eq!(message, legacy_message, "workers={workers}");
                }
                other => panic!("workers={workers}: expected a parse error, got {other:?}"),
            }
        }
    }
}
