//! Persistence: build a database, save it as one `.fixdb` file, open it
//! back, and insert more documents incrementally.
//!
//! Run with: `cargo run --release --example persistent_database`

use fix::datagen::{tcmd, GenConfig};
use fix::{FixDatabase, FixError, FixOptions};

fn main() -> Result<(), FixError> {
    let dir = std::env::temp_dir().join("fix-example-db");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("articles.fixdb");
    std::fs::remove_file(&path).ok();

    // 1. Open (fresh path → empty database bound to it), fill, build with
    //    the parallel pipeline, save.
    let mut db = FixDatabase::open(&path)?;
    for doc in tcmd(GenConfig::scaled(0.2)) {
        db.add_xml(&doc)?;
    }
    let stats = *db.build(FixOptions::builder().threads(0).build())?;
    println!(
        "built {} entries with {} threads (stream {:?}, extract {:?})",
        stats.entries, stats.threads, stats.stream_time, stats.extract_time
    );
    db.save()?;
    let entries = db.stats().expect("built").entries;
    println!(
        "saved {} documents / {} entries to {} ({} KiB)",
        db.len(),
        entries,
        path.display(),
        std::fs::metadata(&path)
            .map(|m| m.len() / 1024)
            .unwrap_or(0)
    );

    // 2. Open into fresh process state; results must be identical.
    let reopened = FixDatabase::open(&path)?;
    let q = "/article/epilog[acknoledgements]/references/a_id";
    let before = db.query(q)?.results.len();
    let after = reopened.query(q)?.results.len();
    assert_eq!(before, after);
    println!("reopened: {q} -> {after} results (identical to pre-save)");

    // 3. Incremental insert: an unclustered in-memory database keeps its
    //    construction state, so post-build adds stream straight into the
    //    index.
    let mut live = FixDatabase::in_memory();
    for doc in tcmd(GenConfig::scaled(0.05)) {
        live.add_xml(&doc)?;
    }
    live.build(FixOptions::collection())?;
    let added = live.add_xml(
        "<article><prolog><title>fresh</title><authors><author><name>N</name></author></authors></prolog><epilog><references><a_id>r1</a_id></references></epilog></article>",
    )?;
    println!(
        "inserted doc {} incrementally; index now has {} entries",
        added.0,
        live.stats().expect("built").entries
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
