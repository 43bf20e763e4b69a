//! The differential test oracle for incremental index maintenance: for
//! arbitrary interleavings of `add_xml` / `remove_document` / `compact` /
//! `vacuum` / `query`, the incrementally-maintained database must agree —
//! query by query — with (a) a database freshly rebuilt from the same
//! logical collection and (b) the naive brute-force evaluator in
//! `fix_datagen::naive`, which shares no index, pruning, or refinement
//! code with the engine. After compaction, the incremental index must be
//! *byte-identical* to the rebuild: same key stream, same values, same
//! clustered copy-heap order.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fix::core::{Collection, DocId, FixIndex};
use fix::datagen::naive::NaiveStore;
use fix::{FixDatabase, FixOptions, ShardRouter, ShardedDatabase, StorageMode};

/// Small random documents over labels `p0..p4` rooted at `p0`, with
/// occasional `wN` text leaves so value predicates have something to hit.
fn doc_strategy() -> impl Strategy<Value = String> {
    #[derive(Debug, Clone)]
    enum T {
        Leaf(u8),
        Text(u8, u8),
        Node(u8, Vec<T>),
    }
    fn render(t: &T, out: &mut String) {
        match t {
            T::Leaf(l) => out.push_str(&format!("<p{l}/>")),
            T::Text(l, v) => out.push_str(&format!("<p{l}>w{v}</p{l}>")),
            T::Node(l, c) => {
                out.push_str(&format!("<p{l}>"));
                for x in c {
                    render(x, out);
                }
                out.push_str(&format!("</p{l}>"));
            }
        }
    }
    let leaf = prop_oneof![
        (0u8..5).prop_map(T::Leaf),
        (0u8..5, 0u8..3).prop_map(|(l, v)| T::Text(l, v)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        ((0u8..5), prop::collection::vec(inner, 1..4)).prop_map(|(l, c)| T::Node(l, c))
    })
    .prop_map(|t| {
        let mut s = String::from("<p0>");
        render(&t, &mut s);
        s.push_str("</p0>");
        s
    })
}

/// Queries over the same label space: single steps, chains, interior
/// `//`, branching predicates, rooted anchors, value tests. Depth ≤ 3,
/// so both option profiles below cover every query.
fn query_strategy() -> impl Strategy<Value = String> {
    let l = || 0u8..5;
    prop_oneof![
        l().prop_map(|a| format!("//p{a}")),
        (l(), l()).prop_map(|(a, b)| format!("//p{a}/p{b}")),
        (l(), l()).prop_map(|(a, b)| format!("//p{a}//p{b}")),
        (l(), l(), l()).prop_map(|(a, b, c)| format!("//p{a}[p{b}]/p{c}")),
        (l(), l()).prop_map(|(a, b)| format!("/p0//p{a}[p{b}]")),
        (l(), l(), 0u8..3).prop_map(|(a, b, v)| format!(r#"//p{a}[p{b}="w{v}"]"#)),
    ]
}

/// Index configurations under test: clustered and unclustered, collection
/// and large-document mode, with and without the value index and bloom
/// pruning, explicit-only and eager auto-compaction, sequential and
/// parallel refinement.
fn options_strategy() -> impl Strategy<Value = FixOptions> {
    (
        prop_oneof![Just(0usize), Just(4usize)],
        prop::bool::ANY,
        prop::option::of(1u32..16),
        prop::bool::ANY,
        prop_oneof![Just(0.0f64), Just(0.5f64)],
        1usize..3,
    )
        .prop_map(|(depth, clustered, beta, bloom, ratio, qthreads)| {
            let mut b = FixOptions::builder()
                .depth_limit(depth)
                .clustered(clustered)
                .edge_bloom(bloom)
                .compact_ratio(ratio)
                .query_threads(qthreads);
            if let Some(beta) = beta {
                b = b.values(beta);
            }
            b.build()
        })
}

/// One step of a random maintenance interleaving.
#[derive(Debug, Clone)]
enum Op {
    Add(String),
    Remove(u8),
    Compact,
    Vacuum,
    Query(String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        doc_strategy().prop_map(Op::Add),
        (0u8..8).prop_map(Op::Remove),
        Just(Op::Compact),
        Just(Op::Vacuum),
        query_strategy().prop_map(Op::Query),
    ]
}

/// A fresh database over the same logical collection: every document in
/// the current id space (tombstoned ones included, so ids line up),
/// indexed from scratch, then the same tombstones applied.
fn rebuild(model: &[(String, bool)], opts: &FixOptions) -> FixDatabase {
    let mut db = FixDatabase::in_memory();
    for (xml, _) in model {
        db.add_xml(xml).unwrap();
    }
    db.build(opts.clone()).unwrap();
    for (i, (_, live)) in model.iter().enumerate() {
        if !live {
            db.remove_document(DocId(i as u32)).unwrap();
        }
    }
    db
}

/// The oracle: incremental == rebuild (results *and* work counters,
/// except the delta attribution, which only the incremental side has) and
/// incremental == naive (results).
fn check_query(
    db: &FixDatabase,
    naive: &NaiveStore,
    model: &[(String, bool)],
    opts: &FixOptions,
    q: &str,
) -> Result<(), TestCaseError> {
    let inc = db.query(q);
    let frs = rebuild(model, opts).query(q);
    match (inc, frs) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.results, &b.results, "incremental vs rebuild on {}", q);
            // Work counters are label-id-sensitive (bloom fingerprints,
            // value buckets); the from-XML rebuild only shares label
            // numbering when no synthetic value labels interleave.
            if opts.value_beta.is_none() {
                prop_assert_eq!(
                    a.metrics.candidates,
                    b.metrics.candidates,
                    "candidate counts diverge on {}",
                    q
                );
                prop_assert_eq!(
                    a.metrics.producing,
                    b.metrics.producing,
                    "producing counts diverge on {}",
                    q
                );
            }
            let raw: Vec<(u32, u32)> = a.results.iter().map(|&(d, n)| (d.0, n.0)).collect();
            let truth = naive
                .query_str(q)
                .expect("oracle parses what the engine parses");
            prop_assert_eq!(raw, truth, "incremental vs naive oracle on {}", q);
        }
        (a, b) => prop_assert!(
            false,
            "outcome disagreement on {}: incremental {:?}, rebuild {:?}",
            q,
            a.map(|o| o.results.len()),
            b.map(|o| o.results.len())
        ),
    }
    Ok(())
}

/// Byte-identity of the (compacted) incremental index against a full
/// rebuild over the same collection: same encoded key stream with the
/// same values, and for clustered indexes the same copy records in the
/// same order. The reference collection carries over the label table —
/// label ids are interned in arrival order (synthetic value labels
/// included), so they are history, not content; key bytes embed them.
fn check_byte_identity(db: &FixDatabase, opts: &FixOptions) -> Result<(), TestCaseError> {
    let coll = db.collection();
    let mut reference = Collection::new();
    reference.labels = coll.labels.clone();
    for (_, d) in coll.iter() {
        reference
            .add_xml(&fix::xml::to_xml_string(d, &coll.labels))
            .unwrap();
    }
    let rebuilt = FixIndex::build(&mut reference, opts.clone());
    let (a, b) = (db.index().unwrap(), &rebuilt);
    let ka: Vec<([u8; 40], u64)> = a.entries().map(|(k, v)| (k.encode(), v)).collect();
    let kb: Vec<([u8; 40], u64)> = b.entries().map(|(k, v)| (k.encode(), v)).collect();
    prop_assert_eq!(ka, kb, "compacted key stream differs from rebuild");
    let ra = a.clustered_records().map(|r| {
        r.into_iter()
            .map(|(k, rec)| (k.encode(), rec))
            .collect::<Vec<_>>()
    });
    let rb = b.clustered_records().map(|r| {
        r.into_iter()
            .map(|(k, rec)| (k.encode(), rec))
            .collect::<Vec<_>>()
    });
    prop_assert_eq!(ra, rb, "compacted copy heap differs from rebuild");
    Ok(())
}

static PAGED_SEQ: AtomicU64 = AtomicU64::new(0);

/// The paged-engine leg of the oracle: rebuild the logical collection
/// with `StorageMode::Paged` and a deliberately tiny pool, save it
/// through the v4 paged format, reopen from disk, and demand the same
/// answers the in-memory database serves. Query evaluation then runs
/// against demand-read pages with constant eviction pressure.
fn check_paged_reopen(
    db: &FixDatabase,
    model: &[(String, bool)],
    opts: &FixOptions,
    queries: &[String],
) -> Result<(), TestCaseError> {
    let mut popts = opts.clone();
    popts.storage = StorageMode::Paged;
    popts.pool_pages = 8;
    let mut on_disk = rebuild(model, &popts);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "fix-differential-{}-{}.fix",
        std::process::id(),
        PAGED_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    on_disk.save_as(&path).unwrap();
    let reopened = FixDatabase::open(&path).unwrap();
    for q in queries {
        match (db.query(q), reopened.query(q)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.results, &b.results, "in-memory vs paged reopen on {}", q);
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "outcome disagreement on {}: in-memory {:?}, paged {:?}",
                q,
                a.map(|o| o.results.len()),
                b.map(|o| o.results.len())
            ),
        }
    }
    let stats = reopened.pool_stats().expect("paged database has a pool");
    prop_assert!(stats.resident <= stats.capacity);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_equals_rebuild_equals_naive(
        seed_docs in prop::collection::vec(doc_strategy(), 1..4),
        opts in options_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..9),
        final_queries in prop::collection::vec(query_strategy(), 1..3),
    ) {
        let mut db = FixDatabase::in_memory();
        let mut naive = NaiveStore::new();
        // The logical collection: XML by current document id, plus a
        // liveness flag. Vacuum renumbers, so it compacts this list too.
        let mut model: Vec<(String, bool)> = Vec::new();
        for xml in &seed_docs {
            db.add_xml(xml).unwrap();
            naive.add_xml(xml).unwrap();
            model.push((xml.clone(), true));
        }
        db.build(opts.clone()).unwrap();

        for op in &ops {
            match op {
                Op::Add(xml) => {
                    db.add_xml(xml).unwrap();
                    naive.add_xml(xml).unwrap();
                    model.push((xml.clone(), true));
                }
                Op::Remove(i) => {
                    if !model.is_empty() {
                        let id = *i as usize % model.len();
                        db.remove_document(DocId(id as u32)).unwrap();
                        naive.remove(id as u32);
                        model[id].1 = false;
                    }
                }
                Op::Compact => db.compact().unwrap(),
                Op::Vacuum => {
                    db.vacuum().unwrap();
                    model.retain(|(_, live)| *live);
                    naive = NaiveStore::new();
                    for (xml, _) in &model {
                        naive.add_xml(xml).unwrap();
                    }
                }
                Op::Query(q) => check_query(&db, &naive, &model, &opts, q)?,
            }
        }

        for q in &final_queries {
            check_query(&db, &naive, &model, &opts, q)?;
        }
        // Fold whatever delta is left and demand the rebuild's bytes.
        db.compact().unwrap();
        prop_assert_eq!(db.index().unwrap().delta_len(), 0);
        check_byte_identity(&db, &opts)?;
        for q in &final_queries {
            check_query(&db, &naive, &model, &opts, q)?;
        }
        check_paged_reopen(&db, &model, &opts, &final_queries)?;
    }
}

static WAL_SEQ: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The WAL leg of the oracle: run the same maintenance interleaving
    /// on a path-bound database whose mutations commit through the
    /// write-ahead log, kill it (drop, no save) at a proptest-chosen cut
    /// point, reopen — crash recovery replays the log — and finish the
    /// interleaving. The survivor must answer every final query exactly
    /// like an uninterrupted in-memory database that saw the identical
    /// sequence. A tiny seal threshold keeps the cut landing on sealed
    /// *and* unsealed segments.
    #[test]
    fn wal_kill_and_reopen_agrees_with_uninterrupted(
        seed_docs in prop::collection::vec(doc_strategy(), 1..4),
        opts in options_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..9),
        cut_sel in 0usize..16,
        final_queries in prop::collection::vec(query_strategy(), 1..3),
    ) {
        let mut wopts = opts.clone();
        wopts.wal_seal_bytes = 96;

        let mut reference = FixDatabase::in_memory();
        for xml in &seed_docs {
            reference.add_xml(xml).unwrap();
        }
        reference.build(wopts.clone()).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!(
            "fix-differential-wal-{}-{}.fixdb",
            std::process::id(),
            WAL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(fix::storage::wal_dir(&path));
        let mut db = FixDatabase::open(&path).unwrap();
        for xml in &seed_docs {
            db.add_xml(xml).unwrap();
        }
        db.build(wopts.clone()).unwrap();
        db.save().unwrap();

        // One mutation script, two consumers; `len` tracks the shared id
        // space so Remove picks the same victim on both sides.
        let mut len = seed_docs.len();
        // `cut == ops.len()` kills *after* the whole script — the
        // recovery-only case with nothing left to apply.
        let cut = cut_sel % (ops.len() + 1);
        let mut db = Some(db);
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                drop(db.take()); // the kill: no save since the checkpoint
                db = Some(FixDatabase::open(&path).unwrap());
                prop_assert_eq!(
                    db.as_ref().unwrap().len(),
                    reference.len(),
                    "crash recovery lost or invented documents at cut {}", cut
                );
            }
            let w = db.as_mut().unwrap();
            match op {
                Op::Add(xml) => {
                    reference.add_xml(xml).unwrap();
                    w.add_xml(xml).unwrap();
                    len += 1;
                }
                Op::Remove(i) => {
                    if len > 0 {
                        let id = *i as usize % len;
                        reference.remove_document(DocId(id as u32)).unwrap();
                        w.remove_document(DocId(id as u32)).unwrap();
                    }
                }
                Op::Compact => {
                    reference.compact().unwrap();
                    w.compact().unwrap();
                }
                Op::Vacuum => {
                    reference.vacuum().unwrap();
                    w.vacuum().unwrap();
                    len = reference.len();
                }
                // Queries are checked at the end; mid-stream they would
                // only repeat the main oracle's work.
                Op::Query(_) => {}
            }
        }
        if cut >= ops.len() {
            drop(db.take());
            db = Some(FixDatabase::open(&path).unwrap());
        }
        let db = db.unwrap();

        prop_assert_eq!(db.len(), reference.len(), "final document count diverged");
        for q in &final_queries {
            match (db.query(q), reference.query(q)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.results, &b.results, "WAL survivor vs uninterrupted on {}", q);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "outcome disagreement on {}: survivor {:?}, uninterrupted {:?}",
                    q,
                    a.map(|o| o.results.len()),
                    b.map(|o| o.results.len())
                ),
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(fix::storage::wal_dir(&path));
    }
}

static FAULT_SEQ: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The read-fault leg of the oracle: save the collection through the
    /// paged format, then sweep an injected physical-read fault (I/O
    /// error, short read, torn bytes) over the open and query paths. The
    /// contract under fault is exactly two outcomes — the *correct*
    /// answer (the fault landed on a read the operation never made, or
    /// was detected and the page re-read is irrelevant) or a structured
    /// `FixError` — never a panic, never a wrong answer. Wrong answers
    /// are checked against an uninterrupted in-memory database over the
    /// same documents.
    #[test]
    fn read_faults_never_panic_or_lie(
        seed_docs in prop::collection::vec(doc_strategy(), 2..5),
        opts in options_strategy(),
        queries in prop::collection::vec(query_strategy(), 2..4),
        nth in 0usize..24,
        kind_sel in 0u8..3,
    ) {
        use fix::storage::{set_read_fault, ReadFaultKind, ReadFaultPlan};

        let model: Vec<(String, bool)> =
            seed_docs.iter().map(|x| (x.clone(), true)).collect();
        let truth = rebuild(&model, &opts);

        let mut popts = opts.clone();
        popts.storage = StorageMode::Paged;
        popts.pool_pages = 8;
        let mut on_disk = rebuild(&model, &popts);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fix-differential-fault-{}-{}.fix",
            std::process::id(),
            FAULT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        on_disk.save_as(&path).unwrap();

        let kind = match kind_sel {
            0 => ReadFaultKind::Error,
            1 => ReadFaultKind::Short,
            _ => ReadFaultKind::Torn { keep: 7 },
        };

        // Leg 1: the fault lands somewhere in open (superblock, metadata
        // tail, first page attaches). Open must return — Ok (fault fell
        // past the reads open performs) or a structured error.
        set_read_fault(Some(ReadFaultPlan::new(nth, kind)));
        let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || FixDatabase::open(&path),
        ));
        set_read_fault(None);
        prop_assert!(opened.is_ok(), "open panicked under read fault {:?} at {}", kind, nth);

        // Leg 2: clean open, then the fault lands mid-query on a
        // demand-read page. Either the exact in-memory answer or a
        // structured error (the faulted page may stay quarantined for
        // the rest of the loop — subsequent structured errors are part
        // of the contract, silent misses are not).
        let reopened = FixDatabase::open(&path).unwrap();
        for q in &queries {
            set_read_fault(Some(ReadFaultPlan::new(nth, kind)));
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || reopened.query(q),
            ));
            set_read_fault(None);
            let res = match res {
                Ok(r) => r,
                Err(_) => {
                    prop_assert!(false, "query {} panicked under read fault {:?} at {}", q, kind, nth);
                    unreachable!()
                }
            };
            match (res, truth.query(q)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        &a.results, &b.results,
                        "fault survivor answered {} wrong (fault {:?} at {})", q, kind, nth
                    );
                }
                // Structured failure under injection is allowed; so are
                // queries both sides reject (e.g. depth coverage).
                (Err(_), _) => {}
                (Ok(_), Err(_)) => prop_assert!(
                    false,
                    "survivor answered {} but the oracle rejects it", q
                ),
            }

            // Same contract for the lazy path, whether the fault lands
            // while constructing the iterator (scan, copy fetches) or
            // while draining it (document reads).
            set_read_fault(Some(ReadFaultPlan::new(nth, kind)));
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || reopened.query_iter(q).and_then(|hits| hits.into_outcome()),
            ));
            set_read_fault(None);
            prop_assert!(res.is_ok(), "query_iter {} panicked under read fault {:?} at {}", q, kind, nth);
            if let (Ok(Ok(a)), Ok(b)) = (res, truth.query(q)) {
                prop_assert_eq!(
                    &a.results, &b.results,
                    "lazy fault survivor answered {} wrong (fault {:?} at {})", q, kind, nth
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Shard counts every sharded leg runs at (the acceptance matrix).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Asserts one query agrees between the unsharded reference and every
/// sharded layout: byte-identical hit streams always, and equal
/// `entries`/`producing` sums (both are per-unit quantities, so they are
/// invariant to where a document lives). Candidate counts are *not*
/// compared — each shard discovers its own edge universe and eigenvalue
/// encoder, so pruning power legitimately differs by layout.
fn check_sharded_query(
    reference: &FixDatabase,
    sharded: &[ShardedDatabase],
    q: &str,
) -> Result<(), TestCaseError> {
    let want = reference.query(q);
    for db in sharded {
        match (db.query(q), &want) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    &a.results,
                    &b.results,
                    "hit stream diverged at {} shards on {}",
                    db.shard_count(),
                    q
                );
                prop_assert_eq!(
                    a.metrics.entries,
                    b.metrics.entries,
                    "entries sum diverged at {} shards on {}",
                    db.shard_count(),
                    q
                );
                prop_assert_eq!(
                    a.metrics.producing,
                    b.metrics.producing,
                    "producing sum diverged at {} shards on {}",
                    db.shard_count(),
                    q
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "outcome disagreement at {} shards on {}: sharded {:?}, unsharded {:?}",
                db.shard_count(),
                q,
                a.map(|o| o.results.len()),
                b.as_ref()
                    .map(|o| o.results.len())
                    .map_err(|e| e.to_string())
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shard-differential leg of the oracle: replay every random
    /// build/add/remove/compact interleaving against the unsharded engine
    /// and against hash-sharded layouts at shard counts {1, 2, 3, 8}
    /// simultaneously — the scatter-gather answer must be byte-identical
    /// at every step. `Vacuum` is replayed as `Compact` on all sides:
    /// vacuum renumbers the global id space, which is a resharding event,
    /// not a maintenance step a sharded layout performs in place.
    #[test]
    fn sharded_matches_unsharded_at_every_shard_count(
        seed_docs in prop::collection::vec(doc_strategy(), 1..4),
        opts in options_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..9),
        final_queries in prop::collection::vec(query_strategy(), 1..3),
    ) {
        let mut reference = FixDatabase::in_memory();
        for xml in &seed_docs {
            reference.add_xml(xml).unwrap();
        }
        reference.build(opts.clone()).unwrap();

        let mut sharded: Vec<ShardedDatabase> = SHARD_COUNTS
            .iter()
            .map(|&n| ShardedDatabase::build(&seed_docs, n, ShardRouter::Hash, opts.clone()).unwrap())
            .collect();

        let mut len = seed_docs.len();
        for op in &ops {
            match op {
                Op::Add(xml) => {
                    reference.add_xml(xml).unwrap();
                    for db in &mut sharded {
                        db.add_xml(xml).unwrap();
                    }
                    len += 1;
                }
                Op::Remove(i) => {
                    if len > 0 {
                        let id = *i as usize % len;
                        reference.remove_document(DocId(id as u32)).unwrap();
                        for db in &mut sharded {
                            db.remove_document(DocId(id as u32)).unwrap();
                        }
                    }
                }
                Op::Compact | Op::Vacuum => {
                    reference.compact().unwrap();
                    for db in &mut sharded {
                        db.compact().unwrap();
                    }
                }
                Op::Query(q) => check_sharded_query(&reference, &sharded, q)?,
            }
        }
        for q in &final_queries {
            check_sharded_query(&reference, &sharded, q)?;
        }
        // Fold everything and demand the same answers once more: the
        // merged stream must be insensitive to per-shard compaction state.
        reference.compact().unwrap();
        for db in &mut sharded {
            db.compact().unwrap();
        }
        for q in &final_queries {
            check_sharded_query(&reference, &sharded, q)?;
        }
    }
}

/// The stale-index footgun, pinned deterministically: a database mutated
/// after `build()` must serve the *merged* truth — new documents appear
/// in answers immediately, removed ones vanish immediately, with no
/// rebuild and no error. Guards against the failure mode where
/// post-build mutations silently don't reach queries until a compaction.
#[test]
fn mutated_database_never_serves_stale_answers() {
    for clustered in [false, true] {
        let opts = FixOptions::builder()
            .clustered(clustered)
            .compact_ratio(0.0)
            .build();
        let mut db = FixDatabase::in_memory();
        db.add_xml("<p0><p1><p2/></p1></p0>").unwrap();
        db.build(opts).unwrap();

        // Insert: visible in the very next query, straight from the delta.
        let added = db.add_xml("<p0><p1><p2/></p1><p1/></p0>").unwrap();
        assert_eq!(
            db.index().unwrap().delta_len(),
            1,
            "insert must land in the delta"
        );
        let out = db.query("//p1/p2").unwrap();
        assert_eq!(
            out.results.iter().filter(|(d, _)| *d == added).count(),
            1,
            "clustered={clustered}: freshly added document missing from results"
        );
        assert_eq!(out.results.len(), 2);

        // Remove: gone from the very next query, no vacuum needed.
        db.remove_document(added).unwrap();
        let out = db.query("//p1/p2").unwrap();
        assert!(
            out.results.iter().all(|(d, _)| *d != added),
            "clustered={clustered}: tombstoned document still answered"
        );
        assert_eq!(out.results.len(), 1);

        // And the delta still holds the (masked) entry until compaction.
        assert_eq!(db.index().unwrap().delta_len(), 1);
        db.compact().unwrap();
        assert_eq!(db.index().unwrap().delta_len(), 0);
        assert_eq!(db.query("//p1/p2").unwrap().results.len(), 1);
    }
}
