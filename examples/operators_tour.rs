//! A tour of the query-operator zoo: the same twig evaluated by five
//! independent engines — navigational (NoK-style), bottom-up DP,
//! structural semi-joins, the F&B covering index, and TwigStack (holistic,
//! descendant semantics) — with their work counters side by side.
//!
//! Run with: `cargo run --release --example operators_tour`

use std::time::Instant;

use fix::core::Collection;
use fix::datagen::{xmark, GenConfig};
use fix::exec::{eval_path, eval_twig};
use fix::xpath::{parse_path, TwigQuery};
use fix_bench::baselines::{
    eval_fb, eval_structural, eval_twigstack, twigstack_filter, FbIndex, RegionIndex,
};

fn main() {
    let mut coll = Collection::new();
    coll.add_xml(&xmark(GenConfig::scaled(0.5)))
        .expect("parses");
    let (_, doc) = coll.iter().next().expect("one document");
    println!("XMark-like document: {} nodes\n", doc.len());

    let regions = RegionIndex::build(doc);
    let fb = FbIndex::build(doc);
    println!(
        "F&B index: {} classes, {} edges ({} KiB)\n",
        fb.len(),
        fb.edge_count(),
        fb.size_bytes() / 1024
    );

    for q in [
        "//item/mailbox/mail/text/emph/keyword",
        "//open_auction[seller]/annotation/description/text",
        "//category/description[parlist]/parlist/listitem/text",
    ] {
        let path = parse_path(q).expect("parseable");
        let twig = TwigQuery::from_path(&path, &coll.labels).expect("twig");
        println!("{q}");

        let t = Instant::now();
        let nok = eval_path(doc, &coll.labels, &path);
        println!(
            "  navigational       {:>5} results in {:?}",
            nok.len(),
            t.elapsed()
        );

        let t = Instant::now();
        let dp = eval_twig(doc, &twig);
        println!(
            "  bottom-up DP       {:>5} results in {:?}",
            dp.len(),
            t.elapsed()
        );

        let t = Instant::now();
        let sj = eval_structural(doc, &regions, &twig);
        println!(
            "  structural joins   {:>5} results in {:?}",
            sj.len(),
            t.elapsed()
        );

        let t = Instant::now();
        let fbr = eval_fb(doc, &fb, &twig);
        println!(
            "  F&B covering index {:>5} results in {:?}",
            fbr.len(),
            t.elapsed()
        );

        assert_eq!(nok, dp);
        assert_eq!(nok, sj);
        assert_eq!(nok, fbr);

        // TwigStack evaluates descendant-edge semantics (a superset of the
        // child-edge results), so it is reported, not asserted equal.
        let t = Instant::now();
        let ts = eval_twigstack(doc, &regions, &twig);
        let (_, stats) = twigstack_filter(doc, &regions, &twig);
        println!(
            "  TwigStack (// sem) {:>5} results in {:?} (scanned {}, pushed {})\n",
            ts.len(),
            t.elapsed(),
            stats.scanned,
            stats.pushed
        );
    }
}
