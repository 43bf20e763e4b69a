//! The traced run (`--trace 1`): every per-layer metric, measured from
//! outside by timing calls into each layer's public functions on the
//! workload's own corpus, op list and commit stream.
//!
//! Where the workload's own path includes a layer, the metric comes from
//! that path (the op list replayed stage by stage under a `Tracer`, a
//! commit round, `PoolStats` deltas). Where it does not — the WAL under
//! the sharded facade, the wire under an embedded workload — the probe
//! drives the layer directly with the same inputs, so every workload
//! reports every name and a layer's number can be compared across them.

use std::path::Path;
use std::time::Instant;

use fix_bisim::{BisimBuilder, BisimGraph};
use fix_btree::BTree;
use fix_core::key::KEY_LEN;
use fix_core::shard::DEFAULT_PARALLEL_MIN_DOCS;
use fix_core::{Durability, FixDatabase, FixError, IndexKey, ShardRouter, ShardedDatabase};
use fix_server::proto::{decode_response, encode_response};
use fix_server::{serve, Response, ServerConfig, WireMetrics};
use fix_spectral::{perron_bounds_sparse, EdgeEncoder, EigOptions, FeatureExtractor, SkewMatrix};
use fix_storage::pool::FileBackend;
use fix_storage::{BufferPool, PageId, PageSpace, Wal};
use fix_xml::{parse_document, LabelTable, TreeEventSource};
use fix_xpath::{decompose, normalize, parse_path, TwigQuery};

use crate::embedded::run_passes;
use crate::inputs::{self, Corpus, OpList};
use crate::lifecycle::{
    dir_bytes, hits, per_position, reference_db, warm_up, PhaseClock, Round, Step, Stream, Subject,
};
use crate::plan::Plan;
use crate::report::Report;
use crate::served::{self, SHARDS};
use crate::spec::Workload;
use crate::stats::{median, per_call_seconds, percentile, timed, Answer};
use crate::trace::Tracer;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// One pass of the op list through compile → scan → refine, the three
/// stages `QuerySession::query` hides, optionally under spans. Returns
/// the pass's seconds, rows examined and results.
fn staged_pass(
    db: &FixDatabase,
    ops: &OpList,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (f64, u64, u64) {
    let (coll, index) = (db.collection(), db.index().expect("built"));
    let (mut candidates, mut results) = (0u64, 0u64);
    let start = Instant::now();
    for (i, op) in ops.ops.iter().enumerate() {
        let request = i as u64;
        let out = match tracer.as_deref_mut() {
            Some(t) => t.span("op", request, |t| {
                let plan = t.span("compile", request, |_| index.compile(coll, &op.query));
                plan.map(|plan| {
                    let cands = t.span("scan", request, |_| index.scan_plan(&plan));
                    t.span("refine", request, |_| {
                        index.refine(coll, plan.path(), cands)
                    })
                })
            }),
            None => index.compile(coll, &op.query).map(|plan| {
                let cands = index.scan_plan(&plan);
                index.refine(coll, plan.path(), cands)
            }),
        };
        match out {
            Ok(out) => {
                report
                    .tally
                    .check(out.results.len() as u64 == op.expect.hits, || {
                        format!(
                            "{} staged: {} hits, reference {}",
                            op.query,
                            out.results.len(),
                            op.expect.hits
                        )
                    });
                candidates += out.metrics.candidates;
                results += out.results.len() as u64;
            }
            Err(e) => report
                .tally
                .check(false, || format!("{} staged: {e}", op.query)),
        }
    }
    (start.elapsed().as_secs_f64(), candidates, results)
}

/// fix-core query + fix-storage pool + fix-exec refine, on the database
/// opened the way the workload opens it.
fn query_layers(
    plan: &Plan,
    db: &FixDatabase,
    ops: &OpList,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), FixError> {
    let queries: Vec<&str> = ops.ops.iter().map(|o| o.query.as_str()).collect();
    let session = db.session()?;
    let (_, fnv) = warm_up(ops, report, |q| {
        session
            .query(q)
            .map(|o| Answer::of(hits(&o)))
            .map_err(|e| e.to_string())
    });
    println!("answers_fnv: {fnv:016x}");

    // One session pass between two snapshots of the pool and the plan cache.
    let (pool0, cache0) = (db.pool_stats(), session.cache_stats());
    let passes = run_passes(
        &queries,
        3,
        |q| session.query(q).map(|o| o.results.len()),
        |_, _| {},
    );
    let (pool1, cache1) = (db.pool_stats(), session.cache_stats());
    report.tally.passed((3 * queries.len()) as u64);
    drop(session);
    let n = (3 * queries.len()) as f64;
    let per_op = per_position(&passes);
    let simple: Vec<f64> = per_op
        .iter()
        .zip(&ops.ops)
        .filter(|(_, o)| o.simple)
        .map(|(u, _)| *u)
        .collect();
    let share = |v: &[f64], limit: f64| {
        if v.is_empty() {
            1.0
        } else {
            v.iter().filter(|u| **u < limit).count() as f64 / v.len() as f64
        }
    };

    // Two untraced and two traced staged passes, alternating; the last
    // traced one is the pass the per-stage metrics are read from.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    untraced.push(staged_pass(db, ops, None, report).0);
    traced.push(staged_pass(db, ops, Some(&mut Tracer::default()), report).0);
    untraced.push(staged_pass(db, ops, None, report).0);
    let (last, candidates, results) = staged_pass(db, ops, Some(tracer), report);
    traced.push(last);
    let stage_sum: f64 = ["compile", "scan", "refine"]
        .iter()
        .map(|s| tracer.durations_ns(s).iter().sum::<f64>())
        .sum();
    let op_sum: f64 = tracer.durations_ns("op").iter().sum();
    let refine_sum: f64 = tracer.durations_ns("refine").iter().sum();
    let ratio = stage_sum / op_sum;

    let samples = format!("{} ops, 1 traced pass", queries.len());
    report.metric(
        "core.compile_us",
        median(&tracer.self_times_ns("compile")) / 1e3,
        &samples,
    );
    report.metric(
        "core.scan_us",
        median(&tracer.self_times_ns("scan")) / 1e3,
        &samples,
    );
    report.metric(
        "core.refine_us",
        median(&tracer.self_times_ns("refine")) / 1e3,
        &samples,
    );
    report.metric("core.stage_sum_over_wall", ratio, &samples);
    report.valid(
        (0.9..=1.1).contains(&ratio),
        &format!("stage spans sum to {ratio:.3} of their op spans (0.9..1.1)"),
    );
    report.metric(
        "core.candidates_per_result",
        candidates as f64 / results.max(1) as f64,
        &format!("{candidates} rows examined, {results} results"),
    );
    report.metric(
        "exec.refine_us_per_candidate",
        refine_sum / 1e3 / candidates.max(1) as f64,
        &format!("{candidates} candidates"),
    );
    let lookups = (cache1.hits + cache1.misses - cache0.hits - cache0.misses).max(1);
    report.metric(
        "core.plan_cache_hit_rate",
        (cache1.hits - cache0.hits) as f64 / lookups as f64,
        &format!("{lookups} lookups"),
    );
    report.metric(
        "core.query_p99_us",
        percentile(&per_op, 99.0),
        &format!("{} ops x 3 passes", per_op.len()),
    );
    report.metric(
        "core.share_under_10ms",
        share(&per_op, 10_000.0),
        &format!("{} ops", per_op.len()),
    );
    report.metric(
        "core.simple_share_under_1ms",
        share(&simple, 1_000.0),
        &format!("{} single-step ops", simple.len()),
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
        "2 traced vs 2 untraced staged passes",
    );

    let (p0, p1) = (pool0.unwrap_or_default(), pool1.unwrap_or_default());
    let pins = (p1.hits + p1.misses - p0.hits - p0.misses) as f64;
    let hit_rate = if pins > 0.0 {
        (p1.hits - p0.hits) as f64 / pins
    } else {
        1.0
    };
    let evictions = (p1.evictions - p0.evictions) as f64 / n;
    report.metric(
        "pool.hit_rate",
        hit_rate,
        &format!("{pins} pins in 3 passes"),
    );
    report.metric("pool.pins_per_query", pins / n, "3 passes");
    report.metric(
        "pool.misses_per_query",
        (p1.misses - p0.misses) as f64 / n,
        "3 passes",
    );
    report.metric(
        "pool.evictions_per_query",
        evictions,
        &format!("pool of {} frames", p1.capacity),
    );
    if plan.workload == Workload::TwigPaged {
        report.valid(hit_rate > 0.5 && hit_rate < 0.999 && evictions > 0.0, &format!("paged reads run under memory pressure: hit rate {hit_rate:.4} inside (0.5, 0.999), {evictions:.1} evictions per query"));
    }
    Ok(())
}

/// fix-xml, fix-xpath, fix-bisim, fix-spectral, fix-btree, fix-exec
/// merge: standalone probes over the corpus and the op list.
fn construction_layers(
    corpus: &Corpus,
    reference: &FixDatabase,
    ops: &OpList,
    report: &mut Report,
) {
    let distinct = ops.distinct();
    let mb = corpus.raw_bytes as f64 / 1e6;

    let parse_s: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut labels = LabelTable::new();
                for d in &corpus.docs {
                    std::hint::black_box(
                        parse_document(d, &mut labels).expect("generated XML parses"),
                    );
                }
            })
            .1
        })
        .collect();
    report.metric(
        "xml.parse_mb_per_s",
        mb / median(&parse_s),
        &format!("3 passes over {mb:.3} MB"),
    );

    let xpath_us: Vec<f64> = distinct
        .iter()
        .map(|q| {
            us(per_call_seconds(5, 50, || {
                drop(std::hint::black_box(parse_path(q)))
            }))
        })
        .collect();
    report.metric(
        "xpath.parse_us",
        median(&xpath_us),
        &format!("{} distinct queries x 5 batches of 50", distinct.len()),
    );

    let coll = reference.collection();
    let bisim_s: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut g = BisimGraph::new();
                for (_, doc) in coll.iter() {
                    std::hint::black_box(
                        BisimBuilder::new(&mut g)
                            .record_all_elements()
                            .run(&mut TreeEventSource::whole(doc)),
                    );
                }
            })
            .1
        })
        .collect();
    report.metric(
        "bisim.build_ms",
        median(&bisim_s) * 1e3,
        &format!("3 passes over {} document(s)", coll.len()),
    );

    // Each distinct query's top twig block as a bisimulation pattern.
    let extractor = FeatureExtractor::default();
    let mut enc = EdgeEncoder::new();
    let (mut feature_us, mut eigen_us) = (Vec::new(), Vec::new());
    for q in &distinct {
        let path = normalize(&parse_path(q).expect("op-list queries parse"));
        let Ok(twig) = TwigQuery::from_path(&decompose(&path)[0], &coll.labels) else {
            continue;
        };
        let (pattern, info) = fix_bisim::query_pattern(&twig.strip_values());
        feature_us.push(us(per_call_seconds(5, 20, || {
            std::hint::black_box(extractor.extract_interning(&pattern, info.root, &mut enc));
        })));
        let m = SkewMatrix::from_pattern_interning(&pattern, info.root, &mut enc);
        let n = m.dim();
        let edges: Vec<(u32, u32, f64)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter_map(|(i, j)| {
                let w = m.get(i, j).abs();
                (w > 0.0).then_some((i as u32, j as u32, w))
            })
            .collect();
        let opts = EigOptions::default();
        eigen_us.push(us(per_call_seconds(5, 20, || {
            std::hint::black_box(perron_bounds_sparse(n, &edges, &opts));
        })));
    }
    report.metric(
        "spectral.query_features_us",
        median(&feature_us),
        &format!("{} patterns x 5 batches of 20", feature_us.len()),
    );
    report.metric(
        "spectral.eigen_us",
        median(&eigen_us),
        &format!("{} patterns x 5 batches of 20", eigen_us.len()),
    );

    let index = reference.index().expect("built");
    let entries: Vec<(Vec<u8>, u64)> = index
        .entries()
        .map(|(k, v)| (k.encode().to_vec(), v))
        .collect();
    let frames = entries.len() / 64 + 64;
    let mut tree = None;
    let load_s: Vec<f64> = (0..3)
        .map(|_| {
            let input = entries.clone();
            let (t, s) = timed(|| BTree::bulk_load(PageSpace::in_memory(frames), KEY_LEN, input));
            tree = Some(t);
            s
        })
        .collect();
    report.metric(
        "btree.bulk_load_ms",
        median(&load_s) * 1e3,
        &format!("3 loads of {} entries", entries.len()),
    );
    let tree = tree.expect("loaded");
    let (mut scan_us, mut scanned) = (Vec::new(), 0u64);
    for op in &ops.ops {
        let Ok(plan) = index.compile(coll, &op.query) else {
            continue;
        };
        let Some(f) = plan.features() else {
            continue;
        };
        let (lo, hi) = (IndexKey::scan_start(f), IndexKey::scan_end(f));
        let t = Instant::now();
        let n = tree.range(&lo, Some(&hi)).count();
        scan_us.push(us(t.elapsed().as_secs_f64()));
        scanned += n as u64;
    }
    report.metric(
        "btree.scan_us",
        median(&scan_us),
        &format!("{} scans", scan_us.len()),
    );
    report.metric(
        "btree.entries_per_scan",
        scanned as f64 / scan_us.len().max(1) as f64,
        &format!("{scanned} entries"),
    );

    let mut merge_us = Vec::new();
    for q in &distinct {
        let answer: Vec<(u32, u32)> = reference
            .query(q)
            .map(|o| hits(&o).collect())
            .unwrap_or_default();
        let mut legs = vec![Vec::new(); SHARDS];
        for (i, hit) in answer.iter().enumerate() {
            legs[i % SHARDS].push(*hit);
        }
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let input = legs.clone();
                timed(|| std::hint::black_box(fix_exec::merge_k_sorted(input, |h| *h))).1
            })
            .collect();
        merge_us.push(us(median(&samples)));
    }
    report.metric(
        "exec.merge_k_us",
        median(&merge_us),
        &format!("{} answers x 5, {SHARDS} streams each", merge_us.len()),
    );
}

/// fix-storage pool: a standalone pool over a scratch page file.
fn pool_layer(dir: &Path, report: &mut Report) -> Result<(), FixError> {
    const PAGES: u64 = 512;
    let path = dir.join("pool-probe.pages");
    std::fs::remove_file(&path).ok();
    {
        let space = BufferPool::shared(64).attach(Box::new(FileBackend::create(&path)?));
        for i in 0..PAGES {
            let id = space.allocate();
            space.with_page_mut(id, |p| p[..8].copy_from_slice(&i.to_le_bytes()));
        }
        space
            .flush()
            .map_err(|e| FixError::from(std::io::Error::other(e.to_string())))?;
    }
    let warm = BufferPool::shared(64).attach(Box::new(FileBackend::open(&path)?));
    drop(warm.pin(PageId(0)));
    let hit_s = per_call_seconds(7, 100_000, || {
        drop(std::hint::black_box(warm.pin(PageId(0))))
    });
    report.metric(
        "pool.pin_hit_ns",
        hit_s * 1e9,
        "7 batches of 100000 pins of a resident page",
    );
    // 8 frames swept over 512 pages: LRU never has the next page.
    let cold = BufferPool::shared(8).attach(Box::new(FileBackend::open(&path)?));
    let mut next = 0u64;
    let miss_s = per_call_seconds(7, PAGES as usize, || {
        drop(std::hint::black_box(cold.pin(PageId(next % PAGES))));
        next += 1;
    });
    let stats = cold.pool_stats();
    report
        .tally
        .check(stats.hits == 0 && stats.misses == 7 * PAGES, || {
            format!("cold sweep hit {} times", stats.hits)
        });
    report.metric(
        "pool.pin_miss_us",
        us(miss_s),
        &format!("7 sweeps of {PAGES} pages through 8 frames"),
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

/// fix-core persist: save, open alone, verify, bytes. Returns the image.
fn persist_layer(
    plan: &Plan,
    corpus: &Corpus,
    image: &Path,
    report: &mut Report,
) -> Result<(), FixError> {
    FixDatabase::remove_files(image);
    let db = FixDatabase::build_at(image, corpus, plan)?;
    let (saved, save_s) = timed(|| db.save());
    saved?;
    let entries = db.index().expect("built").entry_count();
    let (verified, verify_s) = timed(|| db.verify());
    report.tally.check(verified?.is_ok(), || {
        "saved image does not verify".to_string()
    });
    drop(db);
    let bytes = dir_bytes(image);
    let mut open_s = Vec::new();
    let mut bytes_read = 0;
    for _ in 0..3 {
        let (db, s) = timed(|| FixDatabase::open_at(image, plan));
        let db = db?;
        open_s.push(s);
        bytes_read = db
            .metrics()
            .snapshot()
            .counter(fix_obs::names::PERSIST_BYTES_READ)
            .unwrap_or(0);
    }
    report.metric(
        "persist.save_mb_per_s",
        bytes as f64 / 1e6 / save_s,
        &format!("1 save of {bytes} bytes"),
    );
    report.metric("persist.open_only_ms", median(&open_s) * 1e3, "3 opens");
    report.metric(
        "persist.open_bytes_read",
        bytes_read as f64,
        "fix_persist_bytes_read_total",
    );
    report.metric("persist.verify_ms", verify_s * 1e3, "1 verify");
    report.metric(
        "persist.bytes_per_entry",
        bytes as f64 / entries.max(1) as f64,
        &format!("{entries} entries"),
    );
    Ok(())
}

/// fix-storage wal, driven directly with the commit stream's documents.
/// Returns the median append in microseconds.
fn wal_layer(adds: &[String], dir: &Path, report: &mut Report) -> Result<f64, FixError> {
    let wal_dir = dir.join("wal-probe");
    std::fs::remove_dir_all(&wal_dir).ok();
    let token = Some([7u8; 12]);
    let seal = fix_core::FixOptions::collection().wal_seal_bytes;
    let (wal, _) = Wal::recover(&wal_dir, token, Durability::Async, seal)?;
    let mut append_us = Vec::with_capacity(adds.len());
    for xml in adds {
        let t = Instant::now();
        wal.append(xml.as_bytes())?;
        append_us.push(us(t.elapsed().as_secs_f64()));
    }
    let mut fsync_us = Vec::new();
    for xml in adds.iter().take(300) {
        wal.append(xml.as_bytes())?;
        let t = Instant::now();
        wal.sync()?;
        fsync_us.push(us(t.elapsed().as_secs_f64()));
    }
    let records = wal.stats().appends;
    drop(wal);
    let (replayed, replay_s) = timed(|| Wal::recover(&wal_dir, token, Durability::Async, seal));
    let (wal, segments) = replayed?;
    let n: usize = segments.iter().map(|s| s.records.len()).sum();
    report.tally.check(n as u64 == records, || {
        format!("WAL replayed {n} of {records} records")
    });
    drop(wal);
    std::fs::remove_dir_all(&wal_dir).ok();
    let append = median(&append_us);
    report.metric(
        "wal.append_us",
        append,
        &format!("{} appends", append_us.len()),
    );
    report.metric(
        "wal.fsync_disk_us",
        median(&fsync_us),
        &format!("{} syncs on this sandbox's disk", fsync_us.len()),
    );
    report.metric(
        "wal.replay_us_per_record",
        us(replay_s) / n.max(1) as f64,
        &format!("{n} records"),
    );
    Ok(append)
}

/// fix-core database + delta + the WAL's own counters: one round of the
/// commit stream as acknowledged (Async), a shorter one under Sync, and
/// the flight recorder on against off.
fn write_layers(
    plan: &Plan,
    corpus: &Corpus,
    image: &Path,
    adds: &[String],
    ops: &OpList,
    dir: &Path,
    report: &mut Report,
) -> Result<(), FixError> {
    let append_us = wal_layer(adds, dir, report)?;
    let reads: Vec<&str> = ops.ops.iter().map(|o| o.query.as_str()).collect();
    let (reads, probes) = (reads.as_slice(), ops.probes.as_slice());
    let copy = dir.join("write-probe.fixdb");
    FixDatabase::remove_files(&copy);
    FixDatabase::copy_files(image, &copy)?;
    let mut db = FixDatabase::open_at(&copy, plan)?;
    let round: Round = db.write_round(plan, corpus, adds, reads, probes)?;
    report.tally.passed(round.commit_us.len() as u64);
    let wal = db.wal_stats().unwrap_or_default();
    let snapshot_s = per_call_seconds(5, 100, || {
        drop(std::hint::black_box(db.metrics().snapshot()))
    });
    drop(db);

    let adds_us = round.of(Step::Add);
    let n = round.commit_us.len();
    report.metric(
        "db.apply_us",
        median(&adds_us) - append_us,
        &format!("{} add commits", adds_us.len()),
    );
    report.metric(
        "db.remove_us",
        median(&round.of(Step::Remove)),
        &format!("{} remove commits", n - adds_us.len()),
    );
    report.metric(
        "db.commit_p99_us",
        percentile(&round.commit_us, 99.0),
        &format!("{n} commits"),
    );
    report.metric(
        "db.commit_max_ms",
        percentile(&round.commit_us, 100.0) / 1e3,
        &format!("{n} commits"),
    );
    report.metric("delta.levels", round.levels as f64, "end of round");
    report.metric("delta.tier_merges", round.tier_merges as f64, "1 round");
    report.metric("delta.compactions", round.compactions as f64, "1 round");
    report.metric(
        "delta.compact_ms",
        round.compact_ns as f64 / 1e6 / round.compactions.max(1) as f64,
        &format!("{} compactions", round.compactions),
    );
    let sources = if round.sources.is_empty() {
        1.0
    } else {
        round.sources.iter().sum::<f64>() / round.sources.len() as f64
    };
    report.metric(
        "delta.sources_per_scan",
        sources,
        &format!("{} read points", round.sources.len()),
    );
    report.metric("wal.seals", round.seals as f64, "1 round");
    report.metric(
        "wal.bytes_per_user_byte",
        wal.appended_bytes as f64 / round.added_bytes.max(1) as f64,
        &format!(
            "{} bytes logged for {} XML bytes",
            wal.appended_bytes, round.added_bytes
        ),
    );
    report.metric("obs.snapshot_us", us(snapshot_s), "5 batches of 100");
    if plan.workload == Workload::ChurnTcmd {
        let live_constant = round.live_docs == corpus.docs.len();
        let exercised =
            plan.smoke || (round.seals >= 5 && round.tier_merges >= 1 && round.compactions >= 1);
        report.valid(exercised && live_constant, &format!("a round seals {} segments (>= 5), merges {} tiers (>= 1), compacts {} times (>= 1) and keeps {} documents live", round.seals, round.tier_merges, round.compactions, round.live_docs));
    }

    // The same stream, shorter, with one fsync per commit.
    let short = Plan {
        commits_per_round: plan.commits_per_round.min(2000),
        read_every: 0,
        ..plan.clone()
    };
    FixDatabase::remove_files(&copy);
    FixDatabase::copy_files(image, &copy)?;
    let mut db = FixDatabase::open_at(&copy, plan)?;
    db.set_durability(Durability::Sync);
    let sync_round = db.write_round(&short, corpus, adds, reads, probes)?;
    let sync_wal = db.wal_stats().unwrap_or_default();
    drop(db);
    let commits = sync_round.commit_us.len() as f64;
    let per_commit = sync_wal.fsyncs as f64 / commits;
    report.tally.passed(sync_round.commit_us.len() as u64);
    report.metric(
        "db.commit_sync_us",
        median(&sync_round.of(Step::Add)),
        &format!(
            "{} add commits under Durability::Sync",
            sync_round.of(Step::Add).len()
        ),
    );
    report.metric(
        "wal.fsyncs_per_commit",
        per_commit,
        &format!("{} fsyncs, {commits} commits", sync_wal.fsyncs),
    );
    // Seals fsync too; allow exactly those on top of one per commit.
    let expected = commits + sync_round.seals as f64;
    report.valid(
        (commits..=expected).contains(&(sync_wal.fsyncs as f64)),
        &format!("Durability::Sync flushes once per commit ({per_commit:.4})"),
    );

    // Flight recorder at its default capacity against event_capacity(0).
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (side, capacity) in [(0usize, plan.opts.event_capacity), (1, 0)] {
        let mut opts = plan.opts.clone();
        opts.event_capacity = capacity;
        opts.durability = Durability::Async;
        for _ in 0..2 {
            FixDatabase::remove_files(&copy);
            let mut db = FixDatabase::build_at(
                &copy,
                corpus,
                &Plan {
                    opts: opts.clone(),
                    ..plan.clone()
                },
            )?;
            db.save()?;
            let r = db.write_round(&short, corpus, adds, reads, probes)?;
            walls[side].push(r.commit_us.iter().sum::<f64>());
        }
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric(
        "obs.recorder_overhead_pct",
        100.0 * (best(&walls[0]) / best(&walls[1]) - 1.0),
        &format!(
            "best of 2 rounds of {} commits each side",
            short.commits_per_round
        ),
    );
    FixDatabase::remove_files(&copy);
    Ok(())
}

/// fix-core shard + fix-server: three hash shards over the corpus,
/// scatter-gathered in process and then over loopback on one connection.
fn served_layers(
    plan: &Plan,
    corpus: &Corpus,
    ops: &OpList,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), FixError> {
    let distinct = ops.distinct();
    let db = ShardedDatabase::build(
        &corpus.docs,
        SHARDS,
        ShardRouter::Hash,
        plan.reference_opts.clone(),
    )?;
    let session = db.session();
    let (mut leg_max, mut leg_sum, mut scatter) = (Vec::new(), Vec::new(), Vec::new());
    for q in &distinct {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let (out, wall) = timed(|| session.query_detailed(q));
            let (_, timings) = out?;
            let legs: Vec<f64> = timings
                .iter()
                .map(|t| us(t.elapsed.as_secs_f64()))
                .collect();
            let slowest = legs.iter().copied().fold(0.0, f64::max);
            samples.push((slowest, legs.iter().sum::<f64>(), us(wall) - slowest));
        }
        leg_max.push(median(&samples.iter().map(|s| s.0).collect::<Vec<_>>()));
        leg_sum.push(median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()));
        scatter.push(median(&samples.iter().map(|s| s.2).collect::<Vec<_>>()));
    }
    drop(session);
    let samples = format!("{} distinct queries x 3", distinct.len());
    report.metric("shard.leg_max_us", median(&leg_max), &samples);
    report.metric("shard.leg_sum_us", median(&leg_sum), &samples);
    report.metric("shard.scatter_self_us", median(&scatter), &samples);

    let handle = serve(
        &db,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )?;
    let connect_us: Vec<f64> = (0..20)
        .map(|_| timed(|| served::connect(handle.addr())).1)
        .map(us)
        .collect();
    let mut client = served::connect(handle.addr())?;
    let ping_us: Vec<f64> = (0..200)
        .map(|_| timed(|| client.ping()).1)
        .map(us)
        .collect();
    let (mut reported_us, mut encode_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut wrong = 0usize;
    for (i, op) in ops.ops.iter().enumerate() {
        let out = tracer.span("rpc", i as u64, |t| {
            let out = client.query(&op.query);
            if let Ok(o) = &out {
                t.reported("server", i as u64, o.elapsed_ns);
            }
            out
        });
        let out = out.map_err(served::server_error)?;
        wrong += usize::from(Answer::of(out.results.iter().copied()) != op.expect);
        reported_us.push(out.elapsed_ns as f64 / 1e3);
        let response = Response::Hits {
            results: out.results,
            metrics: WireMetrics::default(),
            elapsed_ns: out.elapsed_ns,
        };
        let (frame, enc_s) = timed(|| encode_response(&response));
        let (decoded, dec_s) = timed(|| decode_response(&frame[4..]));
        wrong += usize::from(decoded.as_ref() != Ok(&response));
        encode_us.push(us(enc_s));
        decode_us.push(us(dec_s));
    }
    report.tally.passed(ops.ops.len() as u64);
    report.tally.check(wrong == 0, || {
        format!("{wrong} served answers or codec round trips differ from the reference")
    });
    let mut probe_hits = 0usize;
    for p in &ops.probes {
        probe_hits += client.query(p).map_err(served::server_error)?.results.len();
    }
    drop(client);
    handle.shutdown();
    let ops_n = format!("{} ops on 1 connection", ops.ops.len());
    report.metric("server.connect_us", median(&connect_us), "20 connects");
    report.metric("server.ping_rtt_us", median(&ping_us), "200 pings");
    report.metric("server.reported_us", median(&reported_us), &ops_n);
    report.metric(
        "server.wire_self_us",
        median(&tracer.self_times_ns("rpc")) / 1e3,
        &ops_n,
    );
    report.metric("proto.encode_response_us", median(&encode_us), &ops_n);
    report.metric("proto.decode_response_us", median(&decode_us), &ops_n);
    if plan.workload == Workload::ServeTcmd {
        let fans_out = plan.smoke || corpus.docs.len() >= DEFAULT_PARALLEL_MIN_DOCS;
        report.valid(fans_out && probe_hits == 0, &format!("{} documents reach the scoped-thread fan-out (>= {DEFAULT_PARALLEL_MIN_DOCS}) and the {} probes return {probe_hits} hits", corpus.docs.len(), ops.probes.len()));
    }
    Ok(())
}

/// The traced run of any workload. Spans are written to `trace_path`.
pub fn run(
    plan: &Plan,
    seed: u64,
    dir: &Path,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), FixError> {
    let mut clock = PhaseClock::default();
    clock.lap("start");
    let mut tracer = Tracer::default();
    let corpus = inputs::corpus(plan.corpus, seed, plan.scale);
    let image = dir.join("traced.fixdb");
    persist_layer(plan, &corpus, &image, report)?;
    clock.lap("persist probes");

    let reference = reference_db(&corpus, &plan.reference_opts)?;
    let ops = inputs::op_list(&reference, plan.corpus, seed, plan.ops, plan.probes);
    println!("{}", ops.summary());
    let db = FixDatabase::open_at(&image, plan)?;
    query_layers(plan, &db, &ops, &mut tracer, report)?;
    drop(db);
    clock.lap("query, pool and refine probes");

    construction_layers(&corpus, &reference, &ops, report);
    drop(reference);
    pool_layer(dir, report)?;
    clock.lap("xml, xpath, bisim, spectral, btree, merge and pool probes");

    let adds = inputs::commit_docs(
        plan.corpus,
        seed,
        Stream::adds_needed(plan.commits_per_round, plan.window),
    );
    write_layers(plan, &corpus, &image, &adds, &ops, dir, report)?;
    clock.lap("wal, commit, delta and recorder probes");

    served_layers(plan, &corpus, &ops, &mut tracer, report)?;
    clock.lap("shard and server probes");
    FixDatabase::remove_files(&image);
    tracer.write(trace_path)?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        trace_path.display()
    );
    Ok(())
}
