//! **Figure 7** — the integrated value index on DBLP (Section 4.6):
//!
//! * (a) implementation-independent metrics of the two value queries,
//!   structural index vs value index (the paper reports near-identical
//!   sel/pp and fpr ≈ 1.7% for the high-selectivity query);
//! * (b) runtime against the F&B baseline (the paper reports > 2× for the
//!   FIX value index, because F&B must refine value predicates per node).
//!
//! Also sweeps β to expose the size-vs-pruning tradeoff the paper leaves
//! as future work.
//!
//! Run: `cargo run --release -p fix-bench --bin fig7 [-- --scale 2]`

use std::time::Instant;

use fix_bench::baselines::{eval_fb, FbIndex};
use fix_bench::{metric_percentages, ms, parse_cli, Dataset};
use fix_core::{FixIndex, FixOptions};
use fix_xpath::{parse_path, TwigQuery};

const QUERIES: [(&str, &str); 2] = [
    (
        "DBLP_vl_hi",
        r#"//proceedings[publisher="Springer"][title]"#,
    ),
    (
        "DBLP_vl_lo",
        r#"//inproceedings[year="1998"][title]/author"#,
    ),
];

fn main() {
    let (scale, _) = parse_cli();
    println!("Figure 7 reproduction (scale {scale})\n");

    // (a) metrics: structural vs integrated value index.
    println!("(a) implementation-independent metrics");
    println!(
        "{:<11} {:<46} {:>7} {:>7} {:>7} {:>7}",
        "query", "path", "index", "sel%", "pp%", "fpr%"
    );
    let mut structural_coll = Dataset::Dblp.load(scale);
    let structural = FixIndex::build(&mut structural_coll, FixOptions::large_document(6));
    let mut value_coll = Dataset::Dblp.load(scale);
    let valued = FixIndex::build(
        &mut value_coll,
        FixOptions::large_document(6)
            .with_values(64)
            .with_edge_bloom(),
    );
    for (name, q) in QUERIES {
        for (tag, idx, coll) in [
            ("struct", &structural, &structural_coll),
            ("value", &valued, &value_coll),
        ] {
            let out = idx.query(coll, q).expect("covered");
            let (sel, pp, fpr) = metric_percentages(&out.metrics);
            println!(
                "{:<11} {:<46} {:>7} {:>6.2} {:>6.2} {:>6.2}",
                name, q, tag, sel, pp, fpr
            );
        }
    }

    // (b) runtime: F&B (structural covering index + per-node value
    // refinement) vs clustered FIX with values.
    println!("\n(b) runtime (ms, best of 3)");
    let mut clustered_coll = Dataset::Dblp.load(scale);
    let clustered = FixIndex::build(
        &mut clustered_coll,
        FixOptions::large_document(6)
            .clustered()
            .with_values(64)
            .with_edge_bloom(),
    );
    let fb: Vec<FbIndex> = clustered_coll
        .iter()
        .map(|(_, d)| FbIndex::build(d))
        .collect();
    println!(
        "{:<11} {:>10} {:>14} {:>9}",
        "query", "F&B", "FIX clustered", "speedup"
    );
    for (name, q) in QUERIES {
        let path = parse_path(q).expect("parseable");
        let mut fb_best = f64::MAX;
        let mut fb_n = 0;
        for _ in 0..3 {
            let t = Instant::now();
            fb_n = clustered_coll
                .iter()
                .zip(&fb)
                .map(|((_, d), idx)| {
                    let tq = TwigQuery::from_path(&path, &clustered_coll.labels).expect("twig");
                    eval_fb(d, idx, &tq).len()
                })
                .sum();
            fb_best = fb_best.min(t.elapsed().as_secs_f64());
        }
        let mut fix_best = f64::MAX;
        let mut fix_n = 0;
        for _ in 0..3 {
            let t = Instant::now();
            fix_n = clustered
                .query(&clustered_coll, q)
                .expect("covered")
                .results
                .len();
            fix_best = fix_best.min(t.elapsed().as_secs_f64());
        }
        assert_eq!(fb_n, fix_n, "{name}: result mismatch");
        println!(
            "{:<11} {:>10} {:>14} {:>8.1}x",
            name,
            ms(std::time::Duration::from_secs_f64(fb_best)),
            ms(std::time::Duration::from_secs_f64(fix_best)),
            fb_best / fix_best,
        );
    }

    // β sweep: index size vs pruning (Section 4.6's open tuning question).
    println!(
        "\nβ sweep (value-hash range vs size and pruning, query = {})",
        QUERIES[0].1
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>7}",
        "β", "UIdx KiB", "patterns", "cands", "fpr%"
    );
    for beta in [2u32, 8, 32, 128, 512] {
        let mut coll = Dataset::Dblp.load(scale);
        let idx = FixIndex::build(
            &mut coll,
            FixOptions::large_document(6)
                .with_values(beta)
                .with_edge_bloom(),
        );
        let out = idx.query(&coll, QUERIES[0].1).expect("covered");
        println!(
            "{:<8} {:>12} {:>12} {:>10} {:>6.2}",
            beta,
            idx.stats().index_bytes() / 1024,
            idx.stats().distinct_patterns,
            out.metrics.candidates,
            100.0 * out.metrics.fpr(),
        );
    }
}
