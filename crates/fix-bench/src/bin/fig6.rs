//! **Figure 6** — runtime comparison on XMark, Treebank, and DBLP:
//! NoK (no index) vs unclustered FIX, and the disk-based F&B index vs
//! clustered FIX, over {high, low} selectivity × {simple, branching} path
//! queries.
//!
//! Two time columns per method:
//! * `cpu` — measured wall-clock on this machine (all data memory-resident);
//! * `+disk` — cpu plus a 2006-disk model (8 ms random read, 0.13 ms
//!   sequential page) applied to the I/O each method performs:
//!   NoK streams the whole corpus; unclustered FIX descends the B-tree,
//!   scans one leaf range, then fetches each candidate's pattern instance
//!   with a *random* read (measured cold against the paged primary
//!   storage); clustered FIX reads its copies *sequentially*; the F&B
//!   evaluation touches its whole graph, free when it fits the 4 MiB cache
//!   (the paper's DBLP observation), a sequential scan otherwise.
//!
//! Expected shape (paper): FIX beats NoK on selective queries by up to an
//! order of magnitude (the "900%" headline); FIX-clustered beats F&B on
//! XMark/Treebank; F&B wins on DBLP (tiny fully-cached covering index over
//! regular shallow data).
//!
//! Run: `cargo run --release -p fix-bench --bin fig6 [-- xmark|treebank|dblp] [--scale 2]`

use std::time::{Duration, Instant};

use fix_bench::baselines::{eval_fb, FbIndex};
use fix_bench::{ms, parse_cli, Dataset, DiskModel};
use fix_core::FixIndex;
use fix_exec::eval_path;
use fix_storage::PAGE_SIZE;
use fix_xpath::{parse_path, TwigQuery};

const QUERIES: [(Dataset, &[(&str, &str)]); 3] = [
    (
        Dataset::Xmark,
        &[
            ("XMark_hi_sp", "//item/mailbox/mail/text/emph/keyword"),
            ("XMark_lo_sp", "//description/parlist/listitem"),
            (
                "XMark_hi_bp",
                "//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
            ),
            (
                "XMark_lo_bp",
                "//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
            ),
        ],
    ),
    (
        Dataset::Treebank,
        &[
            ("Trbnk_hi_sp", "//EMPTY/S/NP/NP/PP"),
            ("Trbnk_lo_sp", "//EMPTY/S/VP"),
            ("Trbnk_hi_bp", "//EMPTY/S/NP[PP]/NP"),
            ("Trbnk_lo_bp", "//EMPTY/S[VP]/NP"),
        ],
    ),
    (
        Dataset::Dblp,
        &[
            ("DBLP_hi_sp", "//inproceedings/title/i"),
            ("DBLP_lo_sp", "//dblp/inproceedings/author"),
            ("DBLP_hi_bp", "//inproceedings[url]/title[sub][i]"),
            ("DBLP_lo_bp", "//article[number]/author"),
        ],
    ),
];

/// F&B graphs larger than this are charged a sequential scan per query.
const FB_CACHE_BYTES: u64 = 4 << 20;
/// Entries per B-tree leaf page (32-byte keys + 8-byte values).
const LEAF_FANOUT: u64 = (PAGE_SIZE as u64) / 40;

fn best_of<F: FnMut() -> usize>(mut f: F) -> (usize, Duration) {
    let mut best = Duration::MAX;
    let mut n = 0;
    for _ in 0..3 {
        let t = Instant::now();
        n = f();
        best = best.min(t.elapsed());
    }
    (n, best)
}

/// B-tree probe: `height` random descents plus a sequential leaf scan over
/// the candidate range.
fn btree_disk(model: &DiskModel, height: u64, candidates: u64) -> Duration {
    Duration::from_secs_f64(
        (height as f64 * model.random_ms + candidates.div_ceil(LEAF_FANOUT) as f64 * model.seq_ms)
            / 1e3,
    )
}

fn run_dataset(ds: Dataset, scale: f64, model: &DiskModel) {
    let mut coll = ds.load(scale);
    let stats = coll.stats();
    println!(
        "\n=== {} (scale {scale}: {} elements, ~{} KiB) ===",
        ds.name(),
        stats.elements,
        stats.bytes / 1024
    );
    let u = FixIndex::build(&mut coll, ds.default_options());
    let c = FixIndex::build(&mut coll, ds.default_options().clustered());
    let fb: Vec<FbIndex> = coll.iter().map(|(_, d)| FbIndex::build(d)).collect();
    let fb_bytes: u64 = fb.iter().map(|i| i.size_bytes() as u64).sum();
    println!(
        "UIdx {} KiB, CIdx {} KiB, F&B graph {} KiB ({} classes)",
        u.stats().index_bytes() / 1024,
        c.stats().index_bytes() / 1024,
        fb_bytes / 1024,
        fb.iter().map(FbIndex::len).sum::<usize>(),
    );
    let avg_copy = c.stats().clustered_bytes as f64 / c.entry_count().max(1) as f64;
    let btree_height = 3u64; // measured trees are height 2-3 at these scales

    println!(
        "{:<12} {:>7} {:>7} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
        "query",
        "results",
        "cands",
        "NoK cpu",
        "+disk",
        "FIXu cpu",
        "+disk",
        "F&B cpu",
        "+disk",
        "FIXc cpu",
        "+disk"
    );

    for &(name, query) in QUERIES
        .iter()
        .find(|(d, _)| *d == ds)
        .map(|(_, q)| *q)
        .unwrap()
    {
        let path = parse_path(query).expect("parseable");

        // NoK: full navigational scan of the whole collection.
        let (nok_n, nok_cpu) = best_of(|| {
            coll.iter()
                .map(|(_, d)| eval_path(d, &coll.labels, &path).len())
                .sum()
        });
        let nok_disk = nok_cpu + model.scan(stats.bytes as u64);

        // FIX unclustered: measure candidate fetches against cold paged
        // primary storage (fresh pool ⇒ misses = distinct pages, with the
        // genuine random/sequential classification).
        let (u_n, u_cpu) = best_of(|| u.query(&coll, query).expect("covered").results.len());
        coll.enable_paged_storage(8192);
        let out = u.query(&coll, query).expect("covered");
        let cands = out.metrics.candidates;
        let u_disk = u_cpu + model.time(coll.io_stats()) + btree_disk(model, btree_height, cands);

        // F&B: covering evaluation on the index graph.
        let (fb_n, fb_cpu) = best_of(|| {
            coll.iter()
                .zip(&fb)
                .map(|((_, d), idx)| {
                    let q = TwigQuery::from_path(&path, &coll.labels).expect("twig");
                    eval_fb(d, idx, &q).len()
                })
                .sum()
        });
        let fb_disk = if fb_bytes > FB_CACHE_BYTES {
            fb_cpu + model.scan(fb_bytes)
        } else {
            fb_cpu
        };

        // FIX clustered: copies are read in key order — sequential.
        let (c_n, c_cpu) = best_of(|| c.query(&coll, query).expect("covered").results.len());
        let copy_pages = ((cands as f64 * avg_copy) / PAGE_SIZE as f64).ceil();
        let c_disk = c_cpu
            + btree_disk(model, btree_height, cands)
            + Duration::from_secs_f64(copy_pages * model.seq_ms / 1e3);

        assert_eq!(nok_n, u_n, "{name}: NoK vs FIXu result mismatch");
        assert_eq!(nok_n, fb_n, "{name}: NoK vs F&B result mismatch");
        assert_eq!(nok_n, c_n, "{name}: NoK vs FIXc result mismatch");
        println!(
            "{:<12} {:>7} {:>7} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
            name,
            nok_n,
            cands,
            ms(nok_cpu),
            ms(nok_disk),
            ms(u_cpu),
            ms(u_disk),
            ms(fb_cpu),
            ms(fb_disk),
            ms(c_cpu),
            ms(c_disk),
        );
    }
}

fn main() {
    let (scale, rest) = parse_cli();
    let model = DiskModel::default();
    let only: Option<Dataset> = rest.first().and_then(|s| Dataset::parse(s));
    println!("Figure 6 reproduction — all times in ms (cpu = best of 3)");
    for ds in [Dataset::Xmark, Dataset::Treebank, Dataset::Dblp] {
        if only.map(|o| o == ds).unwrap_or(true) {
            run_dataset(ds, scale, &model);
        }
    }
}
