//! Write-ahead-log integration tests over the `FixDatabase` facade: the
//! redesigned mutation API (`WriteBatch` through `write`) must make every
//! committed batch durable without a full save — killing the process
//! (dropping the database) and reopening replays the log to the exact
//! live answers. The suite covers tail replay, sealed-segment freezing,
//! batch atomicity under injected append faults, stale-log discard when
//! the base image changes underneath the log, checkpointing structural
//! ops (vacuum), and the tombstone-in-unsealed-tail regression.

use std::path::PathBuf;
use std::time::Duration;

use fix::core::DocId;
use fix::storage::{wal_dir, FaultKind, FaultPlan};
use fix::{Durability, FixDatabase, FixError, FixOptions, WriteBatch};

const QUERIES: &[&str] = &["//a/b", "//c", "/r[c]/a"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fix-wal-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.fixdb"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(wal_dir(&path)).ok();
    path
}

/// A checkpointed two-document base with one indexed level of structure.
fn base(path: &PathBuf, opts: FixOptions) -> FixDatabase {
    let mut db = FixDatabase::open(path).unwrap();
    db.add_xml("<r><a><b/></a></r>").unwrap();
    db.add_xml("<r><c/><a><b/></a></r>").unwrap();
    db.build(opts).unwrap();
    db.save().unwrap();
    db
}

fn answers(db: &FixDatabase) -> Vec<Vec<(fix::core::DocId, fix::xml::NodeId)>> {
    QUERIES
        .iter()
        .map(|q| db.query(q).unwrap().results)
        .collect()
}

/// Committed batches survive a kill (drop without save): reopening
/// replays the unsealed tail and answers exactly like the live database.
#[test]
fn kill_and_reopen_replays_tail_batches() {
    let path = scratch("tail-replay");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
    let image_after_checkpoint = std::fs::read(&path).unwrap();

    let mut batch = WriteBatch::new();
    batch.add_xml("<r><c/><c/></r>");
    batch.add_xml("<r><a><b/><b/></a></r>");
    db.write(batch).unwrap();
    db.remove_document(DocId(0)).unwrap();

    let live_len = db.len();
    let live = answers(&db);
    drop(db);

    // Nothing checkpointed the image: durability came from the log alone.
    assert_eq!(
        std::fs::read(&path).unwrap(),
        image_after_checkpoint,
        "the mutations must not have rewritten the base image"
    );
    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), live_len);
    assert_eq!(answers(&db), live);
    // Two committed batches → two log records, both replayed.
    assert_eq!(
        db.wal_stats().expect("replay re-engages the log").replayed,
        2,
        "every committed record must be replayed"
    );
}

/// Regression for the dangling-tombstone hazard: a document that exists
/// *only* in the unsealed WAL tail is removed in a later tail record.
/// Replay must apply the add before the remove — reopening yields a
/// database where the document is gone, not a tombstone pointing at a
/// document the base image never heard of.
#[test]
fn tombstone_for_tail_only_document_survives_reopen() {
    let path = scratch("tail-tombstone");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());

    // The victim lives only in the log: added and removed after the
    // checkpoint, with a distinctive shape no base document has.
    let victim = db.add_xml("<r><c/><c/><c/></r>").unwrap();
    db.remove_document(victim).unwrap();
    let live_len = db.len();
    let live = answers(&db);
    drop(db);

    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), live_len);
    assert_eq!(answers(&db), live);
    assert!(
        db.query("//c")
            .unwrap()
            .results
            .iter()
            .all(|m| m.0 != victim),
        "the tail-only victim must stay removed after replay"
    );

    // The replayed state must itself be durable: reopen once more.
    drop(db);
    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), live_len);
    assert_eq!(answers(&db), live);
}

/// A batch naming an unknown document is rejected whole — the valid adds
/// in it must not land, and nothing may reach the log.
#[test]
fn invalid_batch_is_rejected_atomically() {
    let path = scratch("atomic-reject");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
    let len = db.len();
    let appends = db.wal_stats().map(|w| w.appends).unwrap_or(0);

    let mut batch = WriteBatch::new();
    batch.add_xml("<r><a/></r>");
    batch.remove_document(DocId(999));
    match db.write(batch) {
        Err(FixError::NoSuchDocument { doc: 999 }) => {}
        other => panic!("expected NoSuchDocument, got {other:?}"),
    }
    assert_eq!(db.len(), len, "the add in the rejected batch leaked");
    assert_eq!(
        db.wal_stats().map(|w| w.appends).unwrap_or(0),
        appends,
        "a rejected batch must never reach the log"
    );
}

/// An injected append fault fails the batch without applying it, and the
/// write path recovers: the next batch checkpoints the image first and
/// commits, and a reopen sees exactly the committed state.
#[test]
fn append_fault_loses_only_the_faulted_batch() {
    for kind in [FaultKind::Error, FaultKind::Torn { keep: 7 }] {
        let path = scratch(&format!("append-fault-{kind:?}"));
        let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
        let mut ok = WriteBatch::new();
        ok.add_xml("<r><c/></r>");
        db.write(ok).unwrap();
        let committed_len = db.len();
        let committed = answers(&db);

        db.set_wal_fault(Some(FaultPlan::new(0, kind)));
        let mut doomed = WriteBatch::new();
        doomed.add_xml("<r><a><b/></a><c/></r>");
        match db.write(doomed) {
            Err(FixError::Io(_)) => {}
            other => panic!("{kind:?}: expected an I/O failure, got {other:?}"),
        }
        assert_eq!(
            db.len(),
            committed_len,
            "{kind:?}: the faulted batch leaked"
        );
        assert_eq!(answers(&db), committed, "{kind:?}: answers drifted");

        // A crash here must come back to the committed prefix — a torn
        // record is truncated away on recovery, never half-applied.
        drop(db);
        let mut db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), committed_len, "{kind:?}: reopen after fault");
        assert_eq!(answers(&db), committed, "{kind:?}: reopen answers");

        // The path heals: the next write checkpoints and commits.
        let mut retry = WriteBatch::new();
        retry.add_xml("<r><a><b/></a><c/></r>");
        db.write(retry).unwrap();
        let healed = answers(&db);
        let healed_len = db.len();
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(db.len(), healed_len, "{kind:?}: post-heal reopen");
        assert_eq!(answers(&db), healed, "{kind:?}: post-heal answers");
    }
}

/// A log is only valid against the exact image it extends. If the image
/// changes underneath it (here: a different database saved over the same
/// path out-of-band), recovery must discard the stale log rather than
/// replay records into the wrong state.
#[test]
fn stale_log_beside_a_foreign_image_is_discarded() {
    let path = scratch("stale-log");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
    db.add_xml("<r><c/><c/></r>").unwrap();
    assert!(
        wal_dir(&path).is_dir(),
        "the mutation must have engaged the log"
    );
    drop(db);

    // Replace the image out-of-band, leaving the old log beside it.
    let foreign_path = scratch("stale-log-foreign");
    let mut foreign = FixDatabase::open(&foreign_path).unwrap();
    foreign.add_xml("<r><a><b/></a></r>").unwrap();
    foreign
        .build(FixOptions::builder().compact_ratio(0.0).build())
        .unwrap();
    foreign.save().unwrap();
    let foreign_answers = answers(&foreign);
    drop(foreign);
    std::fs::copy(&foreign_path, &path).unwrap();

    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(
        db.len(),
        1,
        "the stale log must not replay onto a foreign image"
    );
    assert_eq!(answers(&db), foreign_answers);
}

/// `save_as` to a different target must not leave the source's log
/// beside the copy — the copy is a complete checkpoint, and a later open
/// of it must not replay the source's records on top.
#[test]
fn save_as_other_target_carries_no_log() {
    let path = scratch("save-to-src");
    let copy = scratch("save-to-copy");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
    db.add_xml("<r><c/><c/></r>").unwrap();
    let live_len = db.len();
    let live = answers(&db);

    db.save_as(&copy).unwrap();
    assert!(
        !wal_dir(&copy).exists(),
        "a checkpoint copy must carry no log"
    );
    let opened = FixDatabase::open(&copy).unwrap();
    assert_eq!(opened.len(), live_len);
    assert_eq!(answers(&opened), live);
}

/// Vacuum renumbers documents, so it cannot be expressed as a log
/// record — on a path-bound database it checkpoints the image itself,
/// and the change is durable the moment the call returns. Killing right
/// after the vacuum, or after post-vacuum logged writes, loses nothing.
#[test]
fn vacuum_then_mutate_survives_reopen() {
    let path = scratch("vacuum");
    let mut db = base(&path, FixOptions::builder().compact_ratio(0.0).build());
    db.add_xml("<r><c/><c/></r>").unwrap();
    db.remove_document(DocId(0)).unwrap();
    db.vacuum().unwrap();
    let vacuumed_len = db.len();
    let vacuumed = answers(&db);
    // Kill immediately: the vacuum itself must be durable.
    drop(db);
    let mut db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), vacuumed_len, "vacuum evaporated in the crash");
    assert_eq!(answers(&db), vacuumed);

    // Post-vacuum writes log against the fresh checkpoint.
    db.add_xml("<r><a><b/></a><a><b/></a></r>").unwrap();
    let live_len = db.len();
    let live = answers(&db);
    drop(db);

    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), live_len);
    assert_eq!(answers(&db), live);
}

/// Sealed segments freeze delta runs; a mutation stream that seals
/// several segments must tier them and replay to the same logical state.
#[test]
fn sealing_stream_tiers_runs_and_replays() {
    let path = scratch("seal-tier");
    let mut db = base(
        &path,
        FixOptions::builder()
            .compact_ratio(0.0)
            .wal_seal_bytes(1) // every batch seals its segment
            .build(),
    );
    for i in 0..9 {
        let doc = if i % 2 == 0 {
            "<r><c/></r>"
        } else {
            "<r><a><b/></a></r>"
        };
        db.add_xml(doc).unwrap();
    }
    let w = db.wal_stats().unwrap();
    assert!(w.seals >= 8, "expected a seal per batch, saw {}", w.seals);
    let frozen: usize = db.level_stats().iter().map(|l| l.runs).sum();
    assert!(
        frozen > 0 && frozen < 9,
        "9 seals must tier into fewer live runs, saw {frozen}"
    );
    // Read amplification stays logarithmic in the seals, not linear: a
    // scan reads the base tree, every frozen run and the unsealed tail,
    // and a level cascades into the next at `fanout` runs, so it holds at
    // most `fanout - 1` between merges.
    let idx = db.index().unwrap();
    let fanout = idx.options().tier_fanout;
    let tail = usize::from(idx.delta_stats().tail_entries > 0);
    let levels = db.level_stats().len();
    let read_amp = 1 + frozen + tail;
    let bound = (fanout - 1) * levels.max(1) + 2;
    assert!(
        read_amp <= bound,
        "read amplification {read_amp} exceeds the tiering bound {bound} \
         ({} seals, {frozen} live runs across {levels} levels)",
        w.seals
    );

    let live_len = db.len();
    let live = answers(&db);
    drop(db);
    let db = FixDatabase::open(&path).unwrap();
    assert_eq!(db.len(), live_len);
    assert_eq!(answers(&db), live);
}

/// Every durability mode — per-record fsync, group commit, async — must
/// produce identical post-replay answers for the same mutation script.
/// (Async flushes on drop, which stands in for a clean process exit.)
#[test]
fn durability_modes_agree_after_replay() {
    let mut per_mode = Vec::new();
    for (name, durability) in [
        ("sync", Durability::Sync),
        (
            "group",
            Durability::Group {
                max_wait: Duration::from_millis(2),
            },
        ),
        ("async", Durability::Async),
    ] {
        let path = scratch(&format!("durability-{name}"));
        let mut db = base(
            &path,
            FixOptions::builder()
                .compact_ratio(0.0)
                .durability(durability)
                .build(),
        );
        for _ in 0..4 {
            db.add_xml("<r><c/><a><b/></a></r>").unwrap();
        }
        db.remove_document(DocId(2)).unwrap();
        // Group commit amortises fsyncs and async defers them; neither
        // may fsync more than once per mutation (the sync ceiling).
        let fsyncs = db.wal_stats().unwrap().fsyncs;
        if name != "sync" {
            assert!(fsyncs <= 5, "{name}: {fsyncs} fsyncs for 5 mutations");
        }
        let live = answers(&db);
        drop(db);
        let db = FixDatabase::open(&path).unwrap();
        assert_eq!(answers(&db), live, "{name}: replay diverged from live");
        per_mode.push(answers(&db));
    }
    assert!(
        per_mode.windows(2).all(|w| w[0] == w[1]),
        "durability is a performance knob, not a semantics knob"
    );
}
