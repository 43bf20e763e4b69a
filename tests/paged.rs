//! Facade-level tests of the paged (v4) storage engine: byte-identical
//! query answers against the in-memory backend, bounded residency under a
//! tiny buffer pool, metadata-only cold start, and several databases
//! sharing one pool.

use std::path::PathBuf;

use fix::datagen::{tcmd, GenConfig};
use fix::{BufferPool, FixDatabase, FixOptions, StorageMode};

/// Queries that exercise the index, refinement (document reads through
/// the heap), and value predicates over the TCMD corpus.
const QUERIES: &[&str] = &[
    "//article/prolog/authors/author",
    "//article[epilog]/prolog/authors/author",
    "//article/epilog[acknoledgements]/references/a_id",
    "//prolog[keywords]//author",
    "//author/contact[phone]",
    "//references//a_id",
];

struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("fix-paged-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        Self(p)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn corpus(scale: f64) -> Vec<String> {
    tcmd(GenConfig::scaled(scale))
}

fn build_db(docs: &[String], opts: FixOptions) -> FixDatabase {
    let mut db = FixDatabase::in_memory();
    for d in docs {
        db.add_xml(d).unwrap();
    }
    db.build(opts).unwrap();
    db
}

fn answers(db: &FixDatabase) -> Vec<Vec<(u32, u32)>> {
    QUERIES
        .iter()
        .map(|q| {
            db.query(q)
                .unwrap()
                .results
                .iter()
                .map(|&(d, n)| (d.0, n.0))
                .collect()
        })
        .collect()
}

/// The heart of the acceptance criteria: a database saved paged and
/// reopened from disk answers every query byte-identically to the
/// in-memory database it was built from — clustered and unclustered.
#[test]
fn paged_reopen_answers_are_byte_identical_to_in_memory() {
    let docs = corpus(0.05);
    for clustered in [false, true] {
        let opts = FixOptions::builder()
            .clustered(clustered)
            .values(8)
            .storage(StorageMode::Paged)
            .pool_pages(16)
            .build();
        let mem = build_db(&docs, opts.clone());
        let expected = answers(&mem);

        let path = TempPath::new(&format!("identical-{clustered}.fix"));
        let mut to_save = build_db(&docs, opts);
        to_save.save_as(&path.0).unwrap();

        let paged = FixDatabase::open(&path.0).unwrap();
        assert_eq!(
            paged.index().unwrap().options().storage,
            StorageMode::Paged,
            "reopened database must identify as paged"
        );
        assert_eq!(paged.len(), mem.len());
        assert_eq!(
            answers(&paged),
            expected,
            "clustered={clustered}: paged answers diverge from in-memory"
        );
    }
}

/// With an index many pages larger than the pool, residency stays at or
/// under the configured frame budget while a full query sweep runs —
/// eviction is doing its job, and answers are still right.
#[test]
fn resident_pages_stay_bounded_under_a_tiny_pool() {
    let docs = corpus(0.2);
    let opts = FixOptions::builder()
        .clustered(true)
        .storage(StorageMode::Paged)
        .pool_pages(8)
        .build();
    let expected = answers(&build_db(&docs, opts.clone()));

    let path = TempPath::new("bounded.fix");
    build_db(&docs, opts).save_as(&path.0).unwrap();
    let file_pages = std::fs::metadata(&path.0).unwrap().len() / 8192;
    assert!(
        file_pages > 32,
        "corpus too small to stress an 8-page pool ({file_pages} pages)"
    );

    let db = FixDatabase::open(&path.0).unwrap();
    assert_eq!(answers(&db), expected);
    let stats = db.pool_stats().unwrap();
    assert_eq!(stats.capacity, 8);
    assert!(
        stats.resident <= stats.capacity,
        "resident {} frames exceeds the {}-frame pool",
        stats.resident,
        stats.capacity
    );
    assert!(stats.evictions > 0, "a sweep this size must evict");
    assert!(stats.hits > 0 && stats.misses > 0);
    assert!(stats.hit_rate() > 0.0);
}

/// Cold start is O(metadata): opening a paged file reads the superblock
/// and the metadata tail, not the pages. The facade's bytes-read counter
/// makes that directly observable.
#[test]
fn cold_start_reads_metadata_not_the_whole_file() {
    let docs = corpus(0.2);
    let opts = FixOptions::builder()
        .storage(StorageMode::Paged)
        .pool_pages(32)
        .build();
    let path = TempPath::new("coldstart.fix");
    build_db(&docs, opts).save_as(&path.0).unwrap();
    let file_len = std::fs::metadata(&path.0).unwrap().len();

    let db = FixDatabase::open(&path.0).unwrap();
    let read = db
        .metrics()
        .snapshot()
        .counter("fix_persist_bytes_read_total")
        .unwrap();
    assert!(read > 0);
    assert!(
        read < file_len / 4,
        "cold start read {read} of {file_len} bytes — not metadata-only"
    );
}

/// Two databases opened through `open_shared` compete for one pool's
/// frames: combined residency respects the shared budget and both keep
/// answering correctly.
#[test]
fn two_databases_share_one_buffer_pool() {
    let docs_a = corpus(0.08);
    let docs_b: Vec<String> = corpus(0.08).into_iter().rev().collect();
    let opts = FixOptions::builder()
        .clustered(true)
        .storage(StorageMode::Paged)
        .pool_pages(12)
        .build();

    let expected_a = answers(&build_db(&docs_a, opts.clone()));
    let expected_b = answers(&build_db(&docs_b, opts.clone()));

    let path_a = TempPath::new("shared-a.fix");
    let path_b = TempPath::new("shared-b.fix");
    build_db(&docs_a, opts.clone()).save_as(&path_a.0).unwrap();
    build_db(&docs_b, opts).save_as(&path_b.0).unwrap();

    let pool = BufferPool::shared(12);
    let a = FixDatabase::open_shared(&path_a.0, &pool).unwrap();
    let b = FixDatabase::open_shared(&path_b.0, &pool).unwrap();
    for _ in 0..3 {
        assert_eq!(answers(&a), expected_a);
        assert_eq!(answers(&b), expected_b);
    }
    let stats = pool.stats();
    assert!(
        stats.resident <= 12,
        "two tenants hold {} frames in a 12-frame pool",
        stats.resident
    );
    assert!(
        stats.evictions > 0,
        "tenants must have contended for frames"
    );
    // Both facades report the same shared pool.
    assert_eq!(a.pool_stats().unwrap().capacity, 12);
    assert_eq!(b.pool_stats().unwrap().capacity, 12);
}

/// A reopened paged database stays a live database: inserts land in the
/// delta, queries merge them immediately, and saving again (still paged)
/// round-trips the grown collection.
#[test]
fn paged_database_accepts_inserts_and_resaves() {
    let docs = corpus(0.03);
    let opts = FixOptions::builder()
        .clustered(true)
        .storage(StorageMode::Paged)
        .pool_pages(16)
        .build();
    let path = TempPath::new("resave.fix");
    build_db(&docs, opts).save_as(&path.0).unwrap();

    let mut db = FixDatabase::open(&path.0).unwrap();
    let before = db.len();
    db.add_xml(
        "<article><prolog><authors><author><name>x</name></author></authors></prolog></article>",
    )
    .unwrap();
    let hits = db.query("//prolog/authors/author").unwrap().results.len();
    assert!(hits > 0);
    db.save().unwrap();

    let again = FixDatabase::open(&path.0).unwrap();
    assert_eq!(again.len(), before + 1);
    assert_eq!(
        again
            .query("//prolog/authors/author")
            .unwrap()
            .results
            .len(),
        hits,
        "resaved paged database lost the delta insert"
    );
}

/// The lazy path's fault contract, pinned deterministically: tear each
/// data page of a saved database in turn and `query_iter` either returns
/// the exact answer (the page was not needed) or a typed
/// `FixError::Corrupt` — while constructing the iterator (B-tree scan,
/// clustered copy fetch) or while draining it (document reads) — and
/// never panics.
#[test]
fn query_iter_reports_a_torn_page_as_corrupt() {
    const PAGE: usize = fix::storage::PAGE_SIZE;
    let docs = corpus(0.02);
    let q = QUERIES[0];
    for clustered in [false, true] {
        let opts = FixOptions::builder()
            .clustered(clustered)
            .storage(StorageMode::Paged)
            .pool_pages(16)
            .build();
        let mut mem = build_db(&docs, opts);
        let want = mem.query(q).unwrap().results;
        let path = TempPath::new(&format!("lazy-torn-{clustered}"));
        mem.save_as(&path.0).unwrap();
        let clean = std::fs::read(&path.0).unwrap();
        let meta_off = u64::from_le_bytes(clean[20..28].try_into().unwrap()) as usize;

        let (mut at_construction, mut while_draining) = (0, 0);
        for page in 1..meta_off / PAGE {
            let mut torn = clean.clone();
            torn[page * PAGE + PAGE / 2] ^= 0xFF;
            std::fs::write(&path.0, &torn).unwrap();
            let db = FixDatabase::open(&path.0).unwrap();
            match db.query_iter(q) {
                Err(fix::FixError::Corrupt { .. }) => at_construction += 1,
                Err(e) => panic!("page {page}: untyped failure {e}"),
                Ok(hits) => match hits.into_outcome() {
                    Ok(out) => assert_eq!(out.results, want, "page {page}: wrong answer"),
                    Err(fix::FixError::Corrupt { .. }) => while_draining += 1,
                    Err(e) => panic!("page {page}: untyped failure {e}"),
                },
            }
        }
        assert!(
            at_construction > 0 && while_draining > 0,
            "clustered={clustered}: faults seen at construction {at_construction}, draining {while_draining}"
        );
    }
}
