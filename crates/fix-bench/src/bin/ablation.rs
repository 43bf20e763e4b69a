//! **Ablation study** — design choices DESIGN.md calls out, measured:
//!
//! 1. *Feature mode*: the paper's skew-spectral key vs the sound
//!    symmetric-norm default — including the false-negative count the skew
//!    key incurs on recursive data (the Theorem 3 induced-vs-homomorphic
//!    gap; a reproduction finding).
//! 2. *Edge-fingerprint feature*: candidates with and without the 64-bit
//!    edge Bloom filter (Section 3.4's "other features" invitation).
//! 3. *Extended σ₂ feature*: pruning gain of a second eigenvalue.
//! 4. *Depth limit k*: construction cost vs covering power.
//! 5. *Subpattern enumeration*: the paper's literal `GEN-SUBPATTERN`
//!    unfolding vs the memoized truncation (why the paper's Treebank ICT
//!    was 375 s).
//!
//! Run: `cargo run --release -p fix-bench --bin ablation [-- --scale 0.5]`

use std::time::Instant;

use std::sync::OnceLock;

use fix_bench::{parse_cli, Dataset};

/// Shared plain (non-extended) Treebank index for the probe comparison.
static FIX_PLAIN: OnceLock<(fix_core::Collection, FixIndex)> = OnceLock::new();
use fix_core::{ground_truth, FixIndex, FixOptions};
use fix_datagen::{random_twigs, QueryGenConfig};
use fix_xpath::parse_path;

fn main() {
    let (scale, _) = parse_cli();
    println!("Ablation study (scale {scale})\n");
    feature_mode(scale);
    edge_bloom(scale);
    extended_sigma2(scale);
    depth_limit(scale);
    literal_gen_subpattern(scale);
    rtree_probe(scale);
    operators(scale);
    feature_collisions(scale);
}

/// 1. Skew-spectral (paper) vs symmetric-norm (sound default) on the
///    recursive Treebank analogue: candidates, and — the finding — false
///    negatives of the paper's key.
fn feature_mode(scale: f64) {
    println!("1. feature mode on Treebank ({} random queries)", 200);
    println!(
        "{:<16} {:>12} {:>12} {:>16}",
        "mode", "avg cands", "queries", "false negatives"
    );
    for (name, paper_mode) in [("SymmetricNorm", false), ("SkewSpectral", true)] {
        let mut coll = Dataset::Treebank.load(scale);
        let opts = if paper_mode {
            FixOptions::large_document(6).paper_mode()
        } else {
            FixOptions::large_document(6)
        };
        let idx = FixIndex::build(&mut coll, opts);
        let docs: Vec<&fix_xml::Document> = coll.iter().map(|(_, d)| d).collect();
        let queries = random_twigs(
            &docs,
            &coll.labels,
            QueryGenConfig {
                count: 200,
                max_depth: 5,
                ..Default::default()
            },
        );
        let mut cands = 0u64;
        let mut used = 0u64;
        let mut false_negs = 0u64;
        for q in &queries {
            let out = match idx.query_path(&coll, q) {
                Ok(o) => o,
                Err(_) => continue,
            };
            used += 1;
            cands += out.metrics.candidates;
            let truth = ground_truth(&coll, q, 6);
            // producing < truth ⟺ the pruning lost a true anchor.
            false_negs += truth - out.metrics.producing.min(truth);
        }
        println!(
            "{:<16} {:>12.1} {:>12} {:>16}",
            name,
            cands as f64 / used.max(1) as f64,
            used,
            false_negs
        );
    }
    println!("   (the skew key's false negatives are the Theorem 3 induced-vs-homomorphic gap)\n");
}

/// 2. Edge Bloom fingerprint on XMark's branching queries.
fn edge_bloom(scale: f64) {
    println!("2. edge-fingerprint feature on XMark");
    println!(
        "{:<58} {:>12} {:>12}",
        "query", "cands plain", "cands +bloom"
    );
    let queries = [
        "//item/mailbox/mail/text/emph/keyword",
        "//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
        "//category/description[parlist]/parlist/listitem/text",
        "//open_auction[seller]/annotation/description/text",
    ];
    let mut c1 = Dataset::Xmark.load(scale);
    let plain = FixIndex::build(&mut c1, FixOptions::large_document(6));
    let mut c2 = Dataset::Xmark.load(scale);
    let bloom = FixIndex::build(&mut c2, FixOptions::large_document(6).with_edge_bloom());
    for q in queries {
        let a = plain.query(&c1, q).expect("covered");
        let b = bloom.query(&c2, q).expect("covered");
        assert_eq!(a.results.len(), b.results.len(), "bloom changed results");
        println!(
            "{:<58} {:>12} {:>12}",
            q, a.metrics.candidates, b.metrics.candidates
        );
    }
    println!();
}

/// 3. Extended σ₂ feature (soundness caveat documented; measured here).
fn extended_sigma2(scale: f64) {
    println!("3. extended σ₂ feature on XMark (candidates; lost results flagged)");
    println!(
        "{:<58} {:>12} {:>12} {:>6}",
        "query", "cands base", "cands +σ₂", "lost"
    );
    let queries = [
        "//item/mailbox/mail/text/emph/keyword",
        "//closed_auction/annotation/description/text",
        "//description/parlist/listitem",
    ];
    let mut c1 = Dataset::Xmark.load(scale);
    let base = FixIndex::build(&mut c1, FixOptions::large_document(6));
    let mut opts = FixOptions::large_document(6);
    opts.extended_features = true;
    let mut c2 = Dataset::Xmark.load(scale);
    let ext = FixIndex::build(&mut c2, opts);
    for q in queries {
        let a = base.query(&c1, q).expect("covered");
        let b = ext.query(&c2, q).expect("covered");
        let lost = a.results.len().saturating_sub(b.results.len());
        println!(
            "{:<58} {:>12} {:>12} {:>6}",
            q, a.metrics.candidates, b.metrics.candidates, lost
        );
    }
    println!();
}

/// 4. Depth-limit sweep on XMark: ICT, index size, and whether the paper's
///    deepest query is covered.
fn depth_limit(scale: f64) {
    println!("4. depth limit k on XMark");
    println!(
        "{:<4} {:>10} {:>12} {:>12} {:>10} {:>24}",
        "k", "ICT ms", "UIdx KiB", "patterns", "cands", "covers depth-6 query?"
    );
    let deep_query = "//item[name]/mailbox/mail[to]/text[bold]/emph/bold";
    for k in [2usize, 3, 4, 6, 8] {
        let mut coll = Dataset::Xmark.load(scale);
        let idx = FixIndex::build(&mut coll, FixOptions::large_document(k));
        let (covers, cands) = match idx.query(&coll, deep_query) {
            Ok(out) => ("yes", out.metrics.candidates.to_string()),
            Err(_) => ("no (falls back)", "-".into()),
        };
        println!(
            "{:<4} {:>10} {:>12} {:>12} {:>10} {:>24}",
            k,
            idx.stats().build_time.as_millis(),
            idx.stats().index_bytes() / 1024,
            idx.stats().distinct_patterns,
            cands,
            covers,
        );
    }
    println!();
}

/// 6. R-tree vs B-tree probe structures (the paper's closing future-work
///    item): entries examined per containment probe.
fn rtree_probe(scale: f64) {
    use fix_bench::baselines::SpatialIndex;
    println!("\n6. probe structure on Treebank with extended (λ_max, σ₂) keys");
    println!("   (with the default 1-D key the B-tree is already optimal; the R-tree");
    println!("    pays off only once the key has a second independent dimension)");
    println!(
        "{:<38} {:>10} {:>14} {:>14}",
        "query", "cands", "B-tree scanned", "R-tree tested"
    );
    let mut coll = Dataset::Treebank.load(scale);
    let mut opts = FixOptions::large_document(6);
    opts.extended_features = true;
    let idx = FixIndex::build(&mut coll, opts);
    let spatial = SpatialIndex::build(&idx, 16);
    for q in ["//NP/PP/NP/NN", "//VP/S/NP", "//S/VP/NP/PP", "//PP/NP/NP"] {
        let path = parse_path(q).expect("parseable");
        let cands = idx.candidates(&coll, &path).expect("covered");
        // The B-tree probe scans the whole λ_max suffix of the partition
        // and post-filters on σ₂; count the suffix length by disabling the
        // σ₂ filter.
        let scanned = {
            let mut plain = FixOptions::large_document(6);
            plain.extended_features = false;
            // Same entries, so the suffix length equals the plain
            // candidate count.
            let mut c2 = Dataset::Treebank.load(scale);
            let plain_idx = FIX_PLAIN.get_or_init(|| {
                let i = FixIndex::build(&mut c2, plain);
                (c2, i)
            });
            plain_idx
                .1
                .candidates(&plain_idx.0, &path)
                .expect("covered")
                .len()
        };
        let (rt_cands, stats) = spatial.candidates(&idx, &coll, &path).expect("covered");
        assert_eq!(cands.len(), rt_cands.len(), "probe structures disagree");
        println!(
            "{:<38} {:>10} {:>14} {:>14}",
            q,
            cands.len(),
            scanned,
            stats.points_tested
        );
    }
    println!();
}

/// 7. Refinement/baseline operator comparison on XMark: the same queries
///    through the navigational evaluator, the structural-join plan, and
///    the TwigStack holistic filter (descendant semantics for the latter).
fn operators(scale: f64) {
    use fix_bench::baselines::{eval_structural, twigstack_filter, RegionIndex};
    use fix_exec::{eval_path, eval_twig};
    use fix_xpath::TwigQuery;
    println!("7. twig operators on XMark (ms, best of 3; TwigStack = filter phase)");
    println!(
        "{:<58} {:>9} {:>9} {:>9} {:>11}",
        "query", "NoK", "DP", "StructJoin", "TwigStack"
    );
    let coll = Dataset::Xmark.load(scale);
    let (_, doc) = coll.iter().next().expect("single document");
    let regions = RegionIndex::build(doc);
    for q in [
        "//item/mailbox/mail/text/emph/keyword",
        "//open_auction[seller]/annotation/description/text",
        "//description/parlist/listitem",
        "//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
    ] {
        let path = parse_path(q).expect("parseable");
        let twig = TwigQuery::from_path(&path, &coll.labels).expect("twig");
        let time = |f: &mut dyn FnMut() -> usize| {
            let mut best = f64::MAX;
            for _ in 0..3 {
                let t = Instant::now();
                let _n = f();
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            best
        };
        let nok = time(&mut || eval_path(doc, &coll.labels, &path).len());
        let dp = time(&mut || eval_twig(doc, &twig).len());
        let sj = time(&mut || eval_structural(doc, &regions, &twig).len());
        let ts = time(&mut || twigstack_filter(doc, &regions, &twig).1.pushed);
        println!(
            "{:<58} {:>9.3} {:>9.3} {:>10.3} {:>11.3}",
            q, nok, dp, sj, ts
        );
    }
}

/// 8. Feature collisions — Section 3.2 claims "the probability of two
///    anti-symmetric matrices being isospectral but non-isomorphic is
///    expected to be very small". Measured: distinct patterns whose
///    feature keys collide (root label and λ_max within 1e-9 relative).
fn feature_collisions(scale: f64) {
    println!("\n8. feature collisions (distinct patterns sharing a feature key)");
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>10}",
        "data set", "patterns", "distinct keys", "collisions", "rate"
    );
    for ds in Dataset::ALL {
        let mut coll = ds.load(scale);
        let idx = FixIndex::build(&mut coll, ds.default_options());
        // One representative entry per pattern: identical patterns share
        // the exact same feature bits, so dedup on (root, λ_max bits).
        let mut keys = std::collections::HashSet::new();
        let mut features = std::collections::HashSet::new();
        for (k, _) in idx.entries() {
            // Quantize λ_max to 1e-9 relative so roundoff twins count as
            // one key.
            let quant = (k.lmax / (1e-9 * (1.0 + k.lmax.abs()))).round() as i64;
            keys.insert((k.root, quant, k.lmin.to_bits(), k.sigma2.to_bits()));
            features.insert((k.root, quant));
        }
        let patterns = idx.stats().distinct_patterns;
        let distinct_keys = features.len() as u64;
        let collisions = patterns.saturating_sub(distinct_keys);
        println!(
            "{:<10} {:>12} {:>14} {:>12} {:>9.1}%",
            ds.name(),
            patterns,
            distinct_keys,
            collisions,
            100.0 * collisions as f64 / patterns.max(1) as f64
        );
        let _ = keys;
    }
    println!("   (collisions only cost extra candidates, never results — the paper's\n    \"very small\" expectation is roughly right for label-rich data)");
}

/// 5. Literal GEN-SUBPATTERN (paper) vs memoized truncation, on a reduced
///    Treebank (the literal unfolding is exponential — which is the
///    point).
fn literal_gen_subpattern(scale: f64) {
    let reduced = (scale * 0.25).max(0.05);
    println!("5. subpattern enumeration on Treebank (reduced scale {reduced:.2})");
    for (name, literal) in [
        ("memoized truncation", false),
        ("literal GEN-SUBPATTERN", true),
    ] {
        let mut coll = Dataset::Treebank.load(reduced);
        let mut opts = FixOptions::large_document(6);
        opts.literal_gen_subpattern = literal;
        let t = Instant::now();
        let idx = FixIndex::build(&mut coll, opts);
        println!(
            "   {:<24} ICT {:>10?}  ({} entries, {} distinct patterns)",
            name,
            t.elapsed(),
            idx.entry_count(),
            idx.stats().distinct_patterns
        );
        // Both variants must produce identical query results.
        let q = parse_path("//EMPTY/S/NP[PP]/NP").expect("parseable");
        let out = idx.query_path(&coll, &q).expect("covered");
        let truth = ground_truth(&coll, &q, 6);
        assert_eq!(out.metrics.producing, truth);
    }
}
