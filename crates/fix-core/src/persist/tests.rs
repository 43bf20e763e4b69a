use std::path::Path;

use fix_storage::{crc32, FaultKind, FaultPlan, PAGE_SIZE};

use super::format::{
    container, decode_superblock, walk, Container, Kind, Row, Status, FRAME_HEADER_LEN, MAGIC_V3,
    MAGIC_V4, V3, V4_META,
};
use super::open::load_bytes;
use super::*;
use crate::builder::FixIndex;
use crate::collection::{Collection, DocId};
use crate::options::{FixOptions, StorageMode};

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fix-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_collection() -> Collection {
    let mut c = Collection::new();
    c.add_xml(
        "<bib><article><author><email/></author><title>holistic</title><ee/></article></bib>",
    )
    .unwrap();
    c.add_xml("<bib><book><author><phone/></author><title>web data</title></book></bib>")
        .unwrap();
    c.add_xml(
        "<bib><article><author><phone/><email/></author><title>joins</title></article></bib>",
    )
    .unwrap();
    c
}

fn same_outcomes(a: &(Collection, FixIndex), b: &(Collection, FixIndex), queries: &[&str]) {
    for q in queries {
        let ra = a.1.query(&a.0, q).unwrap();
        let rb = b.1.query(&b.0, q).unwrap();
        assert_eq!(ra.results, rb.results, "results differ on {q}");
        assert_eq!(ra.metrics, rb.metrics, "metrics differ on {q}");
    }
}

fn load_impl(path: &Path) -> Result<(Collection, FixIndex), FixError> {
    load_any(path, None).map(|(coll, idx, _)| (coll, idx))
}

/// The image's walk: the whole file for v3, the metadata tail for v4.
fn rows_of(image: &[u8]) -> Vec<Row<'_>> {
    match container(image).unwrap() {
        Container::V3 => walk(image, 0, &V3),
        Container::V4 => {
            let sb = decode_superblock(image, image.len() as u64).unwrap();
            walk(&image[sb.meta_off as usize..], sb.meta_off, &V4_META)
        }
    }
}

/// File offset of a byte in the middle of `kind`'s payload.
fn mid_payload(image: &[u8], kind: Kind) -> usize {
    let rows = rows_of(image);
    let row = rows.iter().find(|r| r.kind == Some(kind)).unwrap();
    row.offset as usize + FRAME_HEADER_LEN + row.payload.len() / 2
}

/// The fixed corpus behind the golden images and the per-frame table
/// test: the sample collection with one tombstone and, when `delta`, two
/// post-build inserts. `rich` = clustered + value index.
fn fixed_db(rich: bool, paged: bool, delta: bool) -> (Collection, FixIndex) {
    let mut coll = sample_collection();
    let mut opts = FixOptions::large_document(4).with_compact_ratio(0.0);
    if rich {
        opts = opts.clustered().with_values(16);
    }
    if paged {
        opts.storage = StorageMode::Paged;
    }
    let mut idx = FixIndex::build(&mut coll, opts);
    idx.removed.insert(DocId(1));
    if delta {
        for xml in [
            "<bib><book><author><phone/></author></book></bib>",
            "<bib><article><author><email/></author><ee/></article></bib>",
        ] {
            idx.insert_xml(&mut coll, xml).unwrap();
        }
    }
    (coll, idx)
}

/// Byte-identity guard: CRC-32 of every saved image of the fixed corpus —
/// (rich, paged, delta) — recorded at the commit before `persist.rs`
/// became this module. Any drift in either writer, any encoder or the
/// frame order fails here; and since these are the parent's bytes, the
/// image checks below are "files the parent wrote still open".
#[test]
fn saved_images_match_the_recorded_goldens() {
    const GOLDEN: [(bool, bool, bool, u32); 8] = [
        (false, false, false, 0xfebf49c5),
        (false, false, true, 0x31792651),
        (false, true, false, 0x3e8069a1),
        (false, true, true, 0xb12cee59),
        (true, false, false, 0x80ca9865),
        (true, false, true, 0x37e6508c),
        (true, true, false, 0xec29f19f),
        (true, true, true, 0x7b421b94),
    ];
    for (rich, paged, delta, want) in GOLDEN {
        let db = fixed_db(rich, paged, delta);
        let path = temp(&format!("golden-{rich}-{paged}-{delta}.fixdb"));
        save_impl(&path, &db.0, &db.1).unwrap();
        let image = std::fs::read(&path).unwrap();
        assert_eq!(
            crc32(&image),
            want,
            "image drifted: rich={rich} paged={paged} delta={delta} ({} B)",
            image.len()
        );
        let report = verify_bytes(&image);
        assert!(report.is_ok(), "{report}");
        let loaded = load_impl(&path).unwrap();
        assert_eq!(loaded.1.delta_len() > 0, delta);
        same_outcomes(&db, &loaded, &["//article[author]/ee", "//author[email]"]);
        let summary = salvage_file(&path, &temp("golden-salvaged.fixdb")).unwrap();
        assert_eq!(summary.documents, db.0.len(), "{summary}");
        assert!(summary.dropped.is_empty(), "{summary}");
    }
}

/// One table-driven guard over every frame of both layouts (plus the
/// delta frame): damage inside frame *k* is pinned on frame *k* by all
/// three consumers of the walk.
#[test]
fn every_frame_of_both_layouts_is_guarded_by_name() {
    for (paged, layout) in [(false, &V3), (true, &V4_META)] {
        let db = fixed_db(true, paged, true);
        let src = temp(&format!("frames-{paged}.fixdb"));
        let dst = temp(&format!("frames-{paged}-out.fixdb"));
        save_impl(&src, &db.0, &db.1).unwrap();
        let good = std::fs::read(&src).unwrap();

        let rows = rows_of(&good);
        let kinds: Vec<Kind> = rows.iter().filter_map(|r| r.kind).collect();
        let want: Vec<Kind> = layout.frames.iter().copied().chain([Kind::Delta]).collect();
        assert_eq!(kinds, want, "the walk follows the layout");
        assert!(rows.iter().all(|r| r.status == Status::Ok));
        let footer = rows.last().unwrap();
        assert_eq!((footer.kind, footer.name), (None, "footer"));
        let clean = verify_bytes(&good);
        assert!(clean.is_ok(), "{clean}");
        assert_eq!(clean.version, if paged { 4 } else { 3 });
        // v4 adds the superblock row in front and the pages row behind.
        assert_eq!(clean.sections.len(), rows.len() + if paged { 2 } else { 0 });

        for (k, row) in rows.iter().enumerate() {
            let Some(kind) = row.kind else { continue };
            let name = kind.name();

            // (1) A flipped payload byte: a CRC mismatch on that frame
            // (and on the footer, whose checksum covers every frame).
            let mut bad = good.clone();
            bad[mid_payload(&good, kind)] ^= 0xFF;
            std::fs::write(&src, &bad).unwrap();
            let report = verify_bytes(&bad);
            let corrupt: Vec<(&str, u64)> = report
                .sections
                .iter()
                .filter(|s| matches!(s.status, SectionStatus::Corrupt(_)))
                .map(|s| (s.section.as_str(), s.offset))
                .collect();
            let mut want = vec![(name, row.offset), ("footer", footer.offset)];
            if kind == Kind::PageCrcs {
                // Without their checksums the pages cannot be vouched for.
                want.push(("pages", PAGE_SIZE as u64));
            }
            assert_eq!(corrupt, want, "{report}");
            let hit = report.sections.iter().find(|s| s.section == name).unwrap();
            assert_eq!(hit.len, row.payload.len() as u64);
            match &hit.status {
                SectionStatus::Corrupt(d) => {
                    assert!(d.contains("checksum mismatch at offset 0x"), "{d}")
                }
                SectionStatus::Ok => unreachable!(),
            }
            match load_impl(&src) {
                Err(FixError::Corrupt { section, detail }) => {
                    assert_eq!(section, name, "open must name the damaged frame: {detail}")
                }
                other => panic!("{name}: open returned {:?}", other.map(|_| ())),
            }
            let summary = salvage_file(&src, &dst).unwrap();
            assert!(!summary.dropped.is_empty(), "{summary}");
            for d in &summary.dropped {
                assert!(d.starts_with(&format!("{name}: ")), "{name}: {summary}");
            }
            let lost_docs = matches!(kind, Kind::Documents | Kind::DocDir);
            assert_eq!(
                summary.documents,
                if lost_docs { 0 } else { db.0.len() },
                "{name}: {summary}"
            );
            assert_eq!(summary.options_recovered, kind != Kind::Options);
            assert_eq!(
                summary.tombstones,
                usize::from(kind != Kind::Tombstones && !lost_docs)
            );
            assert!(verify_file(&dst).unwrap().is_ok());
            assert_eq!(load_impl(&dst).unwrap().0.len(), summary.documents);

            // (2) A flipped frame id: the walk cannot resync, so every
            // later mandatory frame is listed as unreachable and there is
            // no footer row. (A delta frame with a foreign id is simply
            // not a delta frame; the footer check catches that instead.)
            if kind == Kind::Delta {
                continue;
            }
            let mut bad = good.clone();
            bad[row.offset as usize] ^= 0x40;
            std::fs::write(&src, &bad).unwrap();
            let report = verify_bytes(&bad);
            let tail: Vec<&SectionReport> = report
                .sections
                .iter()
                .skip_while(|s| s.section != name)
                .take_while(|s| s.section != "pages")
                .collect();
            let rest = &layout.frames[k + 1..];
            assert_eq!(tail.len(), 1 + rest.len(), "{report}");
            assert_eq!((tail[0].offset, tail[0].len), (row.offset, 0));
            assert!(
                matches!(&tail[0].status, SectionStatus::Corrupt(d) if d.contains("expected section id"))
            );
            for (s, later) in tail[1..].iter().zip(rest) {
                assert_eq!(s.section, later.name());
                assert_eq!(
                    s.status,
                    SectionStatus::Corrupt("unreachable after a structural failure".into())
                );
            }
            assert!(matches!(
                load_impl(&src),
                Err(FixError::Corrupt { section, .. }) if section == name
            ));
            let summary = salvage_file(&src, &dst).unwrap();
            let dropped: Vec<&str> = summary
                .dropped
                .iter()
                .map(|d| d.split(':').next().unwrap())
                .collect();
            let unreachable: Vec<&str> = std::iter::once(name)
                .chain(rest.iter().map(|k| k.name()))
                .collect();
            assert_eq!(dropped[..unreachable.len()], unreachable[..], "{summary}");
        }
    }
}

#[test]
fn round_trip_unclustered() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::large_document(4));
    let path = temp("uncl.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert_eq!(loaded.0.len(), 3);
    assert_eq!(loaded.1.entry_count(), idx.entry_count());
    same_outcomes(
        &(coll, idx),
        &loaded,
        &[
            "//article[author]/ee",
            "//author[phone][email]",
            "//book/title",
        ],
    );
}

#[test]
fn round_trip_clustered_with_values() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(
        &mut coll,
        FixOptions::large_document(4)
            .clustered()
            .with_values(16)
            .with_edge_bloom(),
    );
    let path = temp("clust.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert!(loaded.1.options().clustered);
    assert_eq!(loaded.1.options().value_beta, Some(16));
    assert!(loaded.1.options().edge_bloom);
    same_outcomes(
        &(coll, idx),
        &loaded,
        &["//article[author]/ee", r#"//article[title="joins"]/author"#],
    );
}

#[test]
fn collection_mode_round_trip() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::collection());
    let path = temp("coll.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert_eq!(loaded.1.options().depth_limit, 0);
    same_outcomes(&(coll, idx), &loaded, &["//article/title", "/bib/book"]);
}

#[test]
fn parse_depth_limit_round_trips() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(
        &mut coll,
        FixOptions::large_document(4).with_max_parse_depth(33),
    );
    let path = temp("depth.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert_eq!(loaded.1.options().max_parse_depth, 33);
    // "Unlimited" survives the u32 saturation too.
    let idx = FixIndex::build(
        &mut coll,
        FixOptions::large_document(4).with_max_parse_depth(usize::MAX),
    );
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert_eq!(loaded.1.options().max_parse_depth, usize::MAX);
}

#[test]
fn corrupt_files_are_rejected() {
    let path = temp("bad.fixdb");
    std::fs::write(&path, b"not a database").unwrap();
    assert!(matches!(
        load_impl(&path),
        Err(FixError::Corrupt { section, .. }) if section == "header"
    ));
    std::fs::write(&path, b"FIXDB\x00\x01\x00trunc").unwrap();
    assert!(load_impl(&path).is_err());
    std::fs::write(&path, b"FIX").unwrap();
    assert!(matches!(load_impl(&path), Err(FixError::Corrupt { .. })));
}

#[test]
fn v2_header_is_rejected_with_a_migration_hint() {
    let path = temp("legacy.fixdb");
    let image = b"FIXDB\x00\x02\x00whatever a v2 body held";
    std::fs::write(&path, image).unwrap();
    let migrate = |detail: &str| {
        assert!(detail.contains("no longer supported"), "{detail}");
        assert!(detail.contains("previous release"), "{detail}");
    };
    for refused in [
        load_impl(&path).map(drop),
        salvage_file(&path, &temp("legacy-out.fixdb")).map(drop),
    ] {
        match refused {
            Err(FixError::Corrupt { section, detail }) => {
                assert_eq!(section, "header");
                migrate(&detail);
            }
            other => panic!("v2 file was not refused with a header error: {other:?}"),
        }
    }
    let report = verify_bytes(image);
    assert_eq!(report.corrupt_count(), 1, "{report}");
    assert_eq!(report.sections[0].section, "header");
    match &report.sections[0].status {
        SectionStatus::Corrupt(d) => migrate(d),
        SectionStatus::Ok => panic!("v2 header verified clean: {report}"),
    }
}

#[test]
fn every_byte_flip_is_detected() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::large_document(4).clustered());
    let path = temp("flip.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let good = std::fs::read(&path).unwrap();
    for i in (0..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        match load_bytes(&bad) {
            Err(FixError::Corrupt { .. }) => {}
            Err(e) => panic!("flip at {i} produced a non-Corrupt error: {e}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::large_document(4));
    let path = temp("trunc.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let good = std::fs::read(&path).unwrap();
    for t in (0..good.len()).step_by(11).chain([good.len() - 1]) {
        match load_bytes(&good[..t]) {
            Err(FixError::Corrupt { .. }) => {}
            Err(e) => panic!("truncation to {t} produced a non-Corrupt error: {e}"),
            Ok(_) => panic!("truncation to {t} bytes went undetected"),
        }
    }
}

#[test]
fn salvage_rebuilds_from_intact_sections() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::large_document(4).clustered());
    let src = temp("salv-src.fixdb");
    let dst = temp("salv-dst.fixdb");
    save_impl(&src, &coll, &idx).unwrap();
    let good = std::fs::read(&src).unwrap();

    // Corrupt the B-tree frame: load must fail, salvage must recover.
    let mut bad = good.clone();
    bad[mid_payload(&good, Kind::BTree)] ^= 0xFF;
    std::fs::write(&src, &bad).unwrap();
    assert!(matches!(
        load_impl(&src),
        Err(FixError::Corrupt { section, .. }) if section == "btree"
    ));

    let summary = salvage_file(&src, &dst).unwrap();
    assert_eq!(summary.documents, 3);
    assert_eq!(summary.skipped_documents, 0);
    assert!(summary.options_recovered);
    assert!(summary.dropped.iter().any(|d| d.starts_with("btree")));
    let recovered = load_impl(&dst).unwrap();
    assert!(verify_file(&dst).unwrap().is_ok());
    same_outcomes(
        &(coll, idx),
        &recovered,
        &["//article[author]/ee", "//author[phone][email]"],
    );
}

#[test]
fn delta_round_trips_and_stays_optional() {
    for clustered in [false, true] {
        let mut coll = sample_collection();
        let mut opts = FixOptions::large_document(4).with_compact_ratio(0.0);
        opts.clustered = clustered;
        let mut idx = FixIndex::build(&mut coll, opts);
        let path = temp(&format!("delta-{clustered}.fixdb"));

        // Empty delta: the file carries no delta frame — byte-identical
        // to the pre-delta v3 layout (8 verify rows: 7 sections+footer).
        save_impl(&path, &coll, &idx).unwrap();
        let report = verify_file(&path).unwrap();
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.sections.len(), 8);
        assert!(!report.sections.iter().any(|s| s.section == "delta"));

        // Insert post-build: the save grows an optional delta frame.
        idx.insert_xml(
            &mut coll,
            "<bib><book><author><phone/></author></book></bib>",
        )
        .unwrap();
        idx.insert_xml(
            &mut coll,
            "<bib><article><author><email/></author><ee/></article></bib>",
        )
        .unwrap();
        assert!(idx.delta_len() > 0);
        save_impl(&path, &coll, &idx).unwrap();
        let report = verify_file(&path).unwrap();
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.sections.len(), 9, "7 sections + delta + footer");
        assert!(report.sections.iter().any(|s| s.section == "delta"));

        let loaded = load_impl(&path).unwrap();
        assert_eq!(loaded.1.delta_len(), idx.delta_len());
        assert_eq!(loaded.1.entry_count(), idx.entry_count());
        let a: Vec<_> = idx.entries().collect();
        let b: Vec<_> = loaded.1.entries().collect();
        assert_eq!(a, b, "merged entry stream must survive the round trip");
        if clustered {
            assert_eq!(idx.clustered_records(), loaded.1.clustered_records());
        }
        same_outcomes(
            &(coll, idx),
            &loaded,
            &["//article[author]/ee", "//author[email]"],
        );
    }
}

#[test]
fn delta_byte_flips_are_detected() {
    let mut coll = sample_collection();
    let mut idx = FixIndex::build(
        &mut coll,
        FixOptions::large_document(4).with_compact_ratio(0.0),
    );
    idx.insert_xml(
        &mut coll,
        "<bib><article><author><email/></author><ee/></article></bib>",
    )
    .unwrap();
    let path = temp("delta-flip.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let good = std::fs::read(&path).unwrap();
    for i in (0..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        match load_bytes(&bad) {
            Err(FixError::Corrupt { .. }) => {}
            Err(e) => panic!("flip at {i} produced a non-Corrupt error: {e}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }
}

#[test]
fn salvage_treats_the_delta_as_derived() {
    let mut coll = sample_collection();
    let mut idx = FixIndex::build(
        &mut coll,
        FixOptions::large_document(4).with_compact_ratio(0.0),
    );
    idx.insert_xml(
        &mut coll,
        "<bib><article><author><email/></author><ee/></article></bib>",
    )
    .unwrap();
    let src = temp("delta-salv-src.fixdb");
    let dst = temp("delta-salv-dst.fixdb");
    save_impl(&src, &coll, &idx).unwrap();
    let good = std::fs::read(&src).unwrap();

    // Corrupt the delta frame itself: load fails naming it; salvage
    // recovers every document (the documents section holds them all)
    // and rebuilds a compacted, delta-free index.
    let mut bad = good.clone();
    bad[mid_payload(&good, Kind::Delta)] ^= 0xFF;
    std::fs::write(&src, &bad).unwrap();
    assert!(matches!(
        load_impl(&src),
        Err(FixError::Corrupt { section, .. }) if section == "delta"
    ));
    let summary = salvage_file(&src, &dst).unwrap();
    assert_eq!(summary.documents, 4, "post-build insert is recovered too");
    let recovered = load_impl(&dst).unwrap();
    assert_eq!(recovered.1.delta_len(), 0);
    assert_eq!(recovered.1.entry_count(), idx.entry_count());
    // Same answers; delta_candidates legitimately differs (the
    // salvaged index folded everything into the base).
    let q = "//article[author]/ee";
    let ra = idx.query(&coll, q).unwrap();
    let rb = recovered.1.query(&recovered.0, q).unwrap();
    assert_eq!(ra.results, rb.results);
    assert_eq!(ra.metrics.candidates, rb.metrics.candidates);
    assert_eq!(ra.metrics.producing, rb.metrics.producing);
    assert_eq!(rb.metrics.delta_candidates, 0);
}

#[test]
fn injected_faults_leave_the_old_database_intact() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, FixOptions::large_document(4));
    let path = temp("atomic.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let before = std::fs::read(&path).unwrap();

    let mut coll2 = Collection::new();
    coll2.add_xml("<solo><a/></solo>").unwrap();
    let idx2 = FixIndex::build(&mut coll2, FixOptions::collection());
    for kind in [
        FaultKind::Error,
        FaultKind::Torn { keep: 2 },
        FaultKind::Truncate,
    ] {
        let err = save_with_faults(&path, &coll2, &idx2, Some(FaultPlan::new(3, kind)));
        assert!(err.is_err(), "{kind:?} should abort the save");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "{kind:?} must leave the old file byte-identical"
        );
        assert!(load_impl(&path).is_ok());
    }
    // And without a fault the new content replaces the old atomically.
    save_with_faults(&path, &coll2, &idx2, None).unwrap();
    assert_eq!(load_impl(&path).unwrap().0.len(), 1);
}

// ---------------------------------------------------- paged format (v4)

fn paged_opts() -> FixOptions {
    let mut o = FixOptions::large_document(4);
    o.storage = StorageMode::Paged;
    o
}

#[test]
fn paged_round_trip_unclustered() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-uncl.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    assert_eq!(&std::fs::read(&path).unwrap()[..8], MAGIC_V4);
    let loaded = load_impl(&path).unwrap();
    assert_eq!(loaded.1.options().storage, StorageMode::Paged);
    assert_eq!(loaded.0.len(), 3);
    same_outcomes(
        &(coll, idx),
        &loaded,
        &[
            "//article[author]/ee",
            "//author[phone][email]",
            "//book/title",
        ],
    );
}

#[test]
fn paged_round_trip_clustered_with_values_and_delta() {
    let mut coll = sample_collection();
    let mut opts = FixOptions::large_document(4).clustered().with_values(16);
    opts.storage = StorageMode::Paged;
    let mut idx = FixIndex::build(&mut coll, opts);
    // A delta run rides along in the metadata tail.
    idx.insert_xml(&mut coll, "<bib><article><author/><ee/></article></bib>")
        .unwrap();
    let path = temp("paged-clust.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert!(loaded.1.options().clustered);
    assert_eq!(loaded.0.len(), 4);
    same_outcomes(
        &(coll, idx),
        &loaded,
        &["//article[author]/ee", r#"//article[title="joins"]/author"#],
    );
}

#[test]
fn paged_open_reads_only_the_metadata_tail() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-cold.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();
    let (_, _, bytes) = load_any(&path, None).unwrap();
    assert!(
        bytes < file_len,
        "open read {bytes} of {file_len} bytes — not metadata-only"
    );
}

#[test]
fn paged_verify_reports_clean_pages() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-verify.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let report = verify_file(&path).unwrap();
    assert_eq!(report.version, 4);
    assert!(report.is_ok(), "{report}");
    assert!(report.sections.iter().any(|s| s.section == "pages"));
}

#[test]
fn paged_torn_page_is_isolated() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-torn.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    // Flip a byte in the middle of the first data page (the document
    // heap) — metadata stays intact, exactly one page goes bad.
    let mut data = std::fs::read(&path).unwrap();
    let page0 = PAGE_SIZE + PAGE_SIZE / 2;
    data[page0] ^= 0xFF;
    std::fs::write(&path, &data).unwrap();

    let report = verify_bytes(&data);
    assert_eq!(report.version, 4);
    assert_eq!(report.corrupt_count(), 1, "{report}");
    assert!(report
        .sections
        .iter()
        .any(|s| s.section == "page 0" && matches!(s.status, SectionStatus::Corrupt(_))));

    // Salvage recovers every document NOT on the torn page.
    let dst = temp("paged-torn-out.fixdb");
    let summary = salvage_file(&path, &dst).unwrap();
    assert!(
        summary.documents + summary.skipped_documents > 0,
        "{summary}"
    );
    assert!(!summary.dropped.is_empty(), "{summary}");
    let recovered = load_impl(&dst).unwrap();
    assert_eq!(recovered.0.len(), summary.documents);
}

#[test]
fn paged_salvage_clean_file_recovers_everything() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-salv.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let dst = temp("paged-salv-out.fixdb");
    let summary = salvage_file(&path, &dst).unwrap();
    assert_eq!(summary.documents, 3, "{summary}");
    assert_eq!(summary.skipped_documents, 0);
    assert!(summary.options_recovered);
    // The rebuilt output is a fully materialized v3 file.
    assert_eq!(&std::fs::read(&dst).unwrap()[..8], MAGIC_V3);
    assert!(load_impl(&dst).is_ok());
}

#[test]
fn paged_corrupt_superblock_is_rejected_at_open() {
    let mut coll = sample_collection();
    let idx = FixIndex::build(&mut coll, paged_opts());
    let path = temp("paged-meta.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let mut data = std::fs::read(&path).unwrap();
    data[12] ^= 0xFF;
    std::fs::write(&path, &data).unwrap();
    assert!(matches!(
        load_any(&path, None),
        Err(FixError::Corrupt { ref section, .. }) if section == "superblock"
    ));
}

#[test]
fn paged_tombstones_round_trip() {
    let mut coll = sample_collection();
    let mut idx = FixIndex::build(&mut coll, paged_opts());
    idx.removed.insert(DocId(1));
    let path = temp("paged-tomb.fixdb");
    save_impl(&path, &coll, &idx).unwrap();
    let loaded = load_impl(&path).unwrap();
    assert!(loaded.1.removed.contains(&DocId(1)));
    let out = loaded.1.query(&loaded.0, "//book/title").unwrap();
    assert!(out.results.is_empty(), "tombstoned doc still queried");
}
