//! `fixdb` — command-line front end for the FIX index.
//!
//! ```text
//! fixdb build       <db> [--depth-limit K] [--clustered] [--values BETA] [--bloom] [--paged] [--pool-pages N] [--threads N] [--max-depth D] <file.xml>...
//! fixdb query       <db> <xpath> [--metrics] [--show N] [--explain] [--analyze] [--trace] [--json] [--timeout-ms MS]
//! fixdb bench-query <db> <xpath>... [--threads N] [--repeat R] [--json]
//! fixdb add         <db> [--batch DIR] [--durability sync|group[:MS]|async] [--seal-bytes N] [--full-save] <file.xml>...   (alias: insert)
//! fixdb remove      <db> [--durability sync|group[:MS]|async] [--full-save] <doc-id>...
//! fixdb wal         <db>
//! fixdb vacuum      <db>
//! fixdb compact     <db>
//! fixdb repair      <db>
//! fixdb verify      <db> [--salvage OUT]
//! fixdb stats       <db> [--prometheus] [--json] [--interval SECS] [--count N]
//! fixdb events      <db> [--json] [--follow] [--for-ms MS] [--category C[,C…]] [--slow] [--slow-ns NS] [--seal-bytes N] [--commit FILE]...
//! fixdb top         <db> [--interval SECS] [--count N]
//! fixdb gen         <tcmd|dblp|xmark|treebank> [--scale S] [--out PATH]
//! ```
//!
//! `build` indexes XML files into a self-contained database file; `query`
//! runs an XPath twig over it (`--trace` prints the per-stage pipeline
//! breakdown, `--json` emits the machine-readable equivalent, `--analyze`
//! is EXPLAIN ANALYZE — the static plan plus one real traced execution);
//! `bench-query` serves a batch of queries through a
//! [`QuerySession`](fix::core::QuerySession) — plan cache plus parallel
//! refinement — and reports timings, cache hit-rate, and a verification
//! against the sequential path (`--json` adds per-stage p50/p95/p99 from
//! the registry histograms); `verify` is the offline integrity check
//! (fsck): it walks every checksummed frame of the file and reports
//! per-section health with byte offsets, and `--salvage OUT` recovers the
//! intact sections into a fresh, rebuilt database; `stats
//! --prometheus|--json` renders the metrics registry; `add` appends
//! documents incrementally through the delta index (every index kind,
//! clustered included) and `compact` folds the delta run into the base
//! B+-tree; `gen` writes the paper-shaped synthetic corpora for
//! experimentation. Everything routes through the [`FixDatabase`] facade.
//!
//! `build --paged` writes the v4 paged format instead of the in-memory
//! (v3) one: pages are then demand-read through a buffer pool of
//! `--pool-pages` frames when the database is opened, so cold start and
//! resident memory stop scaling with file size. `stats --json` exposes
//! the pool counters as `fix_pool_*` gauges.
//!
//! Mutations (`add`, `remove`) commit through the write-ahead log beside
//! the database file (`<db>.wal/`) instead of rewriting it — `add
//! --batch DIR` commits every `.xml` under DIR as one atomic batch,
//! `--durability` picks the fsync policy (`sync`, `group[:MS]`,
//! `async`), and `--full-save` restores the old rewrite-on-every-run
//! behavior (checkpointing the log away). `wal` shows the log and the
//! delta tier levels; the same numbers appear in `stats` as `fix_wal_*`
//! and `fix_level_*` metrics.
//!
//! `repair` is the *online* half of recovery: where `verify --salvage`
//! rebuilds a corrupt file offline into a new path, `repair` re-derives
//! the index state (B+-tree, clustered copies, directories) in memory
//! from the primary documents, clears any pages the buffer pool
//! quarantined after failed reads, and checkpoints the clean image in
//! place. `query --timeout-ms MS` runs with a cooperative deadline:
//! the scan and refine loops poll a cancel token and the command exits
//! nonzero with a `deadline exceeded` error instead of running away.
//! Setting `FIXDB_READ_FAULT=nth:error|short|torn:KEEP` injects a
//! deterministic fault into the nth physical read (page fetch, WAL
//! recovery read, metadata tail) for fault-drill testing, mirroring
//! `FIXDB_WAL_FAULT` on the write side.
//!
//! `events` dumps the flight recorder: opening the database replays its
//! WAL, so the dump narrates recovery (`recovery.replay`, torn tails,
//! token mismatches) and the tier work replay triggered (`tier.freeze`,
//! `tier.merge`); `--commit FILE` additionally commits documents
//! in-process so the full live chain — `commit` → `wal.seal` →
//! `tier.freeze` → `tier.merge` — lands in the same dump. `--slow` shows
//! the slow-op log instead (`--slow-ns` adjusts the promotion threshold
//! before any in-process work runs). `top` is a live terminal dashboard
//! and `stats --interval` its plain-text sibling: both diff
//! `MetricsSnapshot`s over the interval and print rates (queries/s,
//! commits/s, window fsync latency, pool hit rate) plus current levels
//! (WAL tail depth, tier shape) — the same arithmetic, one renderer each.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fix::core::Collection;
use fix::datagen::GenConfig;
use fix::{Durability, FixDatabase, FixError, FixOptions, StorageMode, WriteBatch};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = arm_read_fault() {
        eprintln!("fixdb: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("bench-query") => bench_query(&args[1..]),
        Some("insert") | Some("add") => insert(&args[1..]),
        Some("remove") => remove(&args[1..]),
        Some("wal") => wal(&args[1..]),
        Some("vacuum") => vacuum(&args[1..]),
        Some("compact") => compact(&args[1..]),
        Some("repair") => repair(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("events") => events_cmd(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("remote-query") => remote_query(&args[1..]),
        _ => {
            eprintln!(
                "usage: fixdb <build|query|bench-query|add|remove|wal|vacuum|compact|repair|verify|stats|events|top|gen|serve|remote-query> ...\n\
                 \n\
                 fixdb build       <db> [--depth-limit K] [--clustered] [--values BETA] [--bloom] [--paged] [--pool-pages N] [--threads N] [--max-depth D] <file.xml>...\n\
                 fixdb query       <db> <xpath> [--metrics] [--show N] [--explain] [--analyze] [--trace] [--json] [--timeout-ms MS]\n\
                 fixdb bench-query <db> <xpath>... [--threads N] [--repeat R] [--json]\n\
                 fixdb add         <db> [--batch DIR] [--durability sync|group[:MS]|async] [--seal-bytes N] [--full-save] <file.xml>...   (alias: insert)\n\
                 fixdb remove      <db> [--durability sync|group[:MS]|async] [--full-save] <doc-id>...\n\
                 fixdb wal         <db>\n\
                 fixdb vacuum      <db>\n\
                 fixdb compact     <db>\n\
                 fixdb repair      <db>\n\
                 fixdb verify      <db> [--salvage OUT]\n\
                 fixdb stats       <db> [--prometheus] [--json] [--interval SECS] [--count N]\n\
                 fixdb events      <db> [--json] [--follow] [--for-ms MS] [--category C[,C…]] [--slow] [--slow-ns NS] [--seal-bytes N] [--commit FILE]...\n\
                 fixdb top         <db> [--interval SECS] [--count N]\n\
                 fixdb gen         <tcmd|dblp|xmark|treebank> [--scale S] [--out PATH]\n\
                 fixdb serve       {}\n\
                 fixdb remote-query <host:port> <xpath> [--tenant T] [--show N] [--raw] [--json]",
                fix_server::DAEMON_USAGE
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fixdb: {e}");
            ExitCode::FAILURE
        }
    }
}

fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    msg.into().into()
}

/// Opens an existing database, rejecting paths that do not exist yet
/// (`FixDatabase::open` would silently start an empty one).
fn open_existing(path: &str) -> Result<FixDatabase, Box<dyn std::error::Error>> {
    if !std::path::Path::new(path).exists() {
        return Err(err(format!("no such database: {path}")));
    }
    Ok(FixDatabase::open(path)?)
}

/// The `<db>` argument of a verb that takes nothing else.
fn lone_db_path(args: &[String]) -> Result<&str, Box<dyn std::error::Error>> {
    match args {
        [] => Err(err("missing database path")),
        [db] if !db.starts_with('-') => Ok(db),
        [flag] => Err(err(format!("unknown flag `{flag}`"))),
        [_, extra, ..] => Err(err(format!("unexpected argument `{extra}`"))),
    }
}

fn build(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut builder = FixOptions::builder();
    let mut max_depth = fix::xml::DEFAULT_MAX_DEPTH;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--depth-limit" => {
                let k: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--depth-limit needs an integer"))?;
                builder = builder.depth_limit(k);
            }
            "--clustered" => builder = builder.clustered(true),
            "--values" => {
                let beta: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&b| b > 0)
                    .ok_or_else(|| err("--values needs a positive integer"))?;
                builder = builder.values(beta);
            }
            "--bloom" => builder = builder.edge_bloom(true),
            "--paged" => builder = builder.storage(StorageMode::Paged),
            "--pool-pages" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err("--pool-pages needs a positive integer"))?;
                builder = builder.pool_pages(n);
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--threads needs an integer (0 = all cores)"))?;
                builder = builder.threads(n);
            }
            "--max-depth" => {
                let d: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&d| d > 0)
                    .ok_or_else(|| err("--max-depth needs a positive integer"))?;
                max_depth = d;
                builder = builder.max_parse_depth(d);
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as an input file.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(PathBuf::from(a)),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    if files.is_empty() {
        return Err(err("no input files"));
    }

    let mut coll = Collection::new();
    for f in &files {
        // Stream from disk — documents never need to fit in memory twice.
        let file = std::fs::File::open(f).map_err(|e| err(format!("{}: {e}", f.display())))?;
        let file = std::io::BufReader::new(file);
        let doc = fix::xml::parse_document_from_reader_limited(file, &mut coll.labels, max_depth)
            .map_err(|e| err(format!("{}: {e}", f.display())))?;
        coll.add_document(doc);
    }
    let mut db = FixDatabase::from_parts(coll, None);
    db.build(builder.build())?;
    db.save_as(&db_path)?;
    let s = *db.stats().expect("freshly built");
    println!(
        "indexed {} documents ({} entries, {} distinct patterns) in {:?}",
        db.len(),
        s.entries,
        s.distinct_patterns,
        s.build_time
    );
    if s.threads > 1 {
        println!(
            "threads: {} (stream {:?}, discover {:?}, extract {:?}, load {:?})",
            s.threads, s.stream_time, s.discover_time, s.extract_time, s.load_time
        );
    }
    println!(
        "index size: {} KiB (B-tree {} KiB{})",
        s.index_bytes() / 1024,
        s.btree_bytes / 1024,
        if s.clustered_bytes > 0 {
            format!(", clustered copies {} KiB", s.clustered_bytes / 1024)
        } else {
            String::new()
        }
    );
    println!("written to {}", db_path.display());
    Ok(())
}

fn query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut xpath: Option<&str> = None;
    let mut metrics = false;
    let mut explain = false;
    let mut analyze = false;
    let mut trace = false;
    let mut json = false;
    let mut raw = false;
    let mut show = 10usize;
    let mut timeout: Option<Duration> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => metrics = true,
            "--explain" => explain = true,
            "--analyze" => analyze = true,
            "--trace" => trace = true,
            "--json" => json = true,
            "--raw" => raw = true,
            "--show" => {
                show = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--show needs an integer"))?;
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--timeout-ms needs a number of milliseconds"))?;
                timeout = Some(Duration::from_millis(ms));
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            _ if xpath.is_none() => xpath = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    let xpath = xpath.ok_or_else(|| err("missing query"))?;
    if timeout.is_some() && (explain || analyze) {
        return Err(err(
            "--timeout-ms applies to query execution; drop --explain/--analyze",
        ));
    }
    let db = open_existing(db_path)?;
    let coll = db.collection();
    if explain {
        let idx = db.index().ok_or(FixError::NoIndex)?;
        let path = fix::xpath::parse_path(xpath).map_err(|e| err(e.to_string()))?;
        let e = idx.explain(coll, &path).map_err(|e| err(e.to_string()))?;
        print!("{e}");
        return Ok(());
    }
    if analyze {
        // EXPLAIN ANALYZE: the static plan plus one real traced execution
        // with the Section 6.2 effectiveness numbers from actual counts.
        let idx = db.index().ok_or(FixError::NoIndex)?;
        let ea = idx
            .explain_analyze(coll, xpath, 1)
            .map_err(|e| err(e.to_string()))?;
        print!("{ea}");
        return Ok(());
    }
    if trace || json {
        // Route through a session so the trace covers the full serving
        // pipeline, plan-cache probe included.
        let session = db.session()?;
        let traced = match timeout {
            // The deadline variant hands back the partial trace alongside
            // the error so an expired query still shows where the time
            // went.
            Some(tmo) => match session.query_with_deadline_traced(xpath, tmo) {
                (Ok(v), qtrace) => Ok((v, qtrace)),
                (Err(FixError::DeadlineExceeded { elapsed }), qtrace) => {
                    eprint!("{qtrace}");
                    return Err(err(format!(
                        "deadline exceeded after {elapsed:?} (partial trace above; raise --timeout-ms)"
                    )));
                }
                (Err(e), _) => Err(e),
            },
            None => session.query_traced(xpath),
        };
        let (out, qtrace) = match traced {
            Ok(v) => v,
            Err(FixError::NotCovered {
                query_depth,
                depth_limit,
            }) => {
                return Err(err(format!(
                    "query depth {query_depth} exceeds the index depth limit {depth_limit}; \
                     rebuild with a larger --depth-limit"
                )))
            }
            Err(e) => return Err(err(e.to_string())),
        };
        let m = out.metrics;
        if json {
            let mut w = fix::obs::json::JsonWriter::new();
            w.begin_object();
            w.key("query").string(xpath);
            w.key("results").u64(out.results.len() as u64);
            w.key("metrics").begin_object();
            w.key("entries").u64(m.entries);
            w.key("candidates").u64(m.candidates);
            w.key("producing").u64(m.producing);
            w.key("sel").f64(m.sel());
            w.key("pp").f64(m.pp());
            w.key("fpr").f64(m.fpr());
            w.end_object();
            w.key("trace");
            qtrace.write_json(&mut w);
            w.end_object();
            println!("{}", w.finish());
            return Ok(());
        }
        println!("{} results in {:?}", out.results.len(), qtrace.total);
        for (doc, node) in out.results.iter().take(show) {
            let d = coll.doc(*doc);
            let label = coll.labels.resolve(d.label(*node).expect("element result"));
            println!("  doc {} node {} <{}>", doc.0, node.0, label);
        }
        if out.results.len() > show {
            println!("  … and {} more (use --show N)", out.results.len() - show);
        }
        print!("{qtrace}");
        if metrics {
            println!(
                "metrics: entries {} candidates {} producing {} | sel {:.2}% pp {:.2}% fpr {:.2}%",
                m.entries,
                m.candidates,
                m.producing,
                100.0 * m.sel(),
                100.0 * m.pp(),
                100.0 * m.fpr()
            );
        }
        return Ok(());
    }
    let t = std::time::Instant::now();
    let res = match timeout {
        Some(tmo) => db.session()?.query_with_deadline(xpath, tmo),
        None => db.query(xpath),
    };
    let out = match res {
        Ok(o) => o,
        Err(FixError::NotCovered {
            query_depth,
            depth_limit,
        }) => {
            return Err(err(format!(
                "query depth {query_depth} exceeds the index depth limit {depth_limit}; \
                 rebuild with a larger --depth-limit"
            )))
        }
        Err(FixError::DeadlineExceeded { elapsed }) => {
            return Err(err(format!(
                "deadline exceeded after {elapsed:?} (raise --timeout-ms)"
            )))
        }
        Err(e) => return Err(err(e.to_string())),
    };
    let elapsed = t.elapsed();
    if raw {
        // One `doc node` pair per line, nothing else: byte-comparable
        // with `fixdb remote-query --raw` (the serve-smoke CI job diffs
        // the two).
        let mut stdout = String::new();
        for (doc, node) in &out.results {
            stdout.push_str(&format!("{} {}\n", doc.0, node.0));
        }
        print!("{stdout}");
        return Ok(());
    }
    println!("{} results in {elapsed:?}", out.results.len());
    for (doc, node) in out.results.iter().take(show) {
        let d = coll.doc(*doc);
        let label = coll.labels.resolve(d.label(*node).expect("element result"));
        let preview = d.text_content(*node);
        let preview: String = preview.chars().take(40).collect();
        println!("  doc {} node {} <{}> {:?}", doc.0, node.0, label, preview);
    }
    if out.results.len() > show {
        println!("  … and {} more (use --show N)", out.results.len() - show);
    }
    if metrics {
        let m = out.metrics;
        println!(
            "metrics: entries {} candidates {} producing {} | sel {:.2}% pp {:.2}% fpr {:.2}%",
            m.entries,
            m.candidates,
            m.producing,
            100.0 * m.sel(),
            100.0 * m.pp(),
            100.0 * m.fpr()
        );
    }
    Ok(())
}

/// Serves a batch of queries through a `QuerySession` — the concurrent
/// query path with plan caching and parallel refinement — and reports
/// round timings plus cache effectiveness. Every outcome is verified
/// byte-identical against the sequential `FixDatabase::query` path.
fn bench_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut queries: Vec<&str> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut repeat = 5usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("--threads needs an integer (0 = all cores)"))?,
                );
            }
            "--repeat" => {
                repeat = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&r| r > 0)
                    .ok_or_else(|| err("--repeat needs a positive integer"))?;
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            _ => queries.push(a),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    if queries.is_empty() {
        return Err(err("no queries"));
    }
    let db = open_existing(db_path)?;
    let mut session = db.session()?;
    if let Some(n) = threads {
        session = session.with_threads(n);
    }
    if !json {
        println!(
            "serving {} queries × {} rounds, {} refinement thread(s)",
            queries.len(),
            repeat,
            session.threads()
        );
    }
    let mut total = Duration::ZERO;
    for q in &queries {
        let t = Instant::now();
        let cold = session.query(q).map_err(|e| err(format!("{q}: {e}")))?;
        let cold_time = t.elapsed();
        let mut warm_time = Duration::ZERO;
        for _ in 1..repeat {
            let t = Instant::now();
            let warm = session.query(q).map_err(|e| err(format!("{q}: {e}")))?;
            warm_time += t.elapsed();
            if warm != cold {
                return Err(err(format!("non-deterministic results on `{q}`")));
            }
        }
        // The session's parallel, cached path must be byte-identical to
        // the sequential facade path.
        let sequential = db.query(q).map_err(|e| err(format!("{q}: {e}")))?;
        if sequential != cold {
            return Err(err(format!(
                "session diverged from the sequential path on `{q}`"
            )));
        }
        total += cold_time + warm_time;
        if json {
            continue;
        }
        if repeat > 1 {
            println!(
                "  {q}: {} results, cold {cold_time:?}, warm avg {:?}",
                cold.results.len(),
                warm_time / (repeat - 1) as u32
            );
        } else {
            println!("  {q}: {} results in {cold_time:?}", cold.results.len());
        }
    }
    let s = session.cache_stats();
    if json {
        // Per-stage latency distributions come from the registry the
        // session recorded into (shared with the database).
        session.report_cache_stats();
        db.report_metrics();
        let snap = db.metrics().snapshot();
        let mut w = fix::obs::json::JsonWriter::new();
        let quantiles = |w: &mut fix::obs::json::JsonWriter, h: &fix::obs::HistogramSnapshot| {
            w.key("count").u64(h.count);
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                w.key(label);
                match h.quantile(q) {
                    Some(v) => w.u64(v),
                    None => w.null(),
                };
            }
        };
        w.begin_object();
        w.key("queries").u64(queries.len() as u64);
        w.key("rounds").u64(repeat as u64);
        w.key("threads").u64(session.threads() as u64);
        w.key("total_ns")
            .u64(u64::try_from(total.as_nanos()).unwrap_or(u64::MAX));
        if let Some(h) = snap.histogram("fix_query_wall_ns") {
            w.key("query_wall_ns").begin_object();
            quantiles(&mut w, h);
            w.end_object();
        }
        w.key("stages").begin_object();
        for stage in fix::core::Stage::ALL {
            if let Some(h) = snap.histogram(stage.metric_name()) {
                w.key(stage.name()).begin_object();
                quantiles(&mut w, h);
                w.end_object();
            }
        }
        w.end_object();
        w.key("plan_cache").begin_object();
        w.key("hits").u64(s.hits);
        w.key("misses").u64(s.misses);
        w.key("evictions").u64(s.evictions);
        w.key("entries").u64(s.entries as u64);
        w.key("capacity").u64(s.capacity as u64);
        w.end_object();
        // Buffer-pool traffic this process generated — for a paged
        // database, the live view of demand reads and evictions.
        if let Some(p) = db.pool_stats() {
            w.key("pool").begin_object();
            w.key("resident").u64(p.resident as u64);
            w.key("capacity").u64(p.capacity as u64);
            w.key("hits").u64(p.hits);
            w.key("misses").u64(p.misses);
            w.key("evictions").u64(p.evictions);
            w.key("crc_failures").u64(p.crc_failures);
            w.end_object();
        }
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }
    println!(
        "total {total:?} | plan cache: {} hits / {} misses ({:.1}% hit rate, {} cached)",
        s.hits,
        s.misses,
        100.0 * s.hit_rate(),
        s.entries
    );
    println!("all outcomes verified against the sequential path");
    Ok(())
}

/// Parses a `--durability` operand: `sync`, `group` / `group:MS`, or
/// `async`.
fn parse_durability(s: &str) -> Result<Durability, Box<dyn std::error::Error>> {
    match s {
        "sync" => Ok(Durability::Sync),
        "async" => Ok(Durability::Async),
        "group" => Ok(Durability::Group {
            max_wait: Duration::from_millis(5),
        }),
        _ => match s.strip_prefix("group:").and_then(|ms| ms.parse().ok()) {
            Some(ms) => Ok(Durability::Group {
                max_wait: Duration::from_millis(ms),
            }),
            None => Err(err(format!(
                "bad durability `{s}` (expected sync, group, group:MS, or async)"
            ))),
        },
    }
}

/// Deterministic WAL fault injection for crash testing, armed via
/// `FIXDB_WAL_FAULT=nth:error|truncate|torn:KEEP|disk-full` (e.g.
/// `0:torn:5` tears the first record write after 5 bytes; `0:disk-full`
/// makes it fail with ENOSPC, flipping the database read-only). Hidden
/// behind an env var so it can never be tripped by a stray CLI flag.
fn arm_wal_fault(db: &mut FixDatabase) -> Result<(), Box<dyn std::error::Error>> {
    let Ok(spec) = std::env::var("FIXDB_WAL_FAULT") else {
        return Ok(());
    };
    use fix::storage::{FaultKind, FaultPlan};
    let bad = || {
        err(format!(
            "bad FIXDB_WAL_FAULT `{spec}` (nth:error|truncate|torn:KEEP|disk-full)"
        ))
    };
    let mut parts = spec.split(':');
    let nth: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let kind = match (parts.next(), parts.next()) {
        (Some("error"), None) => FaultKind::Error,
        (Some("truncate"), None) => FaultKind::Truncate,
        (Some("disk-full"), None) => FaultKind::DiskFull,
        (Some("torn"), Some(keep)) => FaultKind::Torn {
            keep: keep.parse().map_err(|_| bad())?,
        },
        _ => return Err(bad()),
    };
    db.set_wal_fault(Some(FaultPlan::new(nth, kind)));
    Ok(())
}

/// Deterministic *read*-path fault injection, armed via
/// `FIXDB_READ_FAULT=nth:error|short|torn:KEEP` before any database I/O
/// happens — the nth physical read on this thread (buffer-pool page
/// fetch, WAL recovery read, metadata tail) then fails, comes back
/// short, or comes back bit-flipped. One-shot: the fault disarms after
/// firing, so the command demonstrates detection + structured error
/// rather than a hard loop.
fn arm_read_fault() -> Result<(), Box<dyn std::error::Error>> {
    let Ok(spec) = std::env::var("FIXDB_READ_FAULT") else {
        return Ok(());
    };
    let plan = fix::storage::ReadFaultPlan::parse(&spec)
        .map_err(|e| err(format!("bad FIXDB_READ_FAULT `{spec}`: {e}")))?;
    fix::storage::set_read_fault(Some(plan));
    Ok(())
}

/// `fixdb add` / `fixdb insert`: incremental insertion through the delta
/// index. Each document is feature-extracted on its own (no rebuild of
/// the existing entries); when the delta outgrows
/// `FixOptions::compact_ratio` × the base tree it is folded automatically.
/// Durability comes from the write-ahead log — the database file itself
/// is only rewritten under `--full-save`. `--batch DIR` commits every
/// `.xml` file under DIR as one atomic batch.
fn insert(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut batch_dirs: Vec<PathBuf> = Vec::new();
    let mut durability: Option<Durability> = None;
    let mut seal_bytes: Option<u64> = None;
    let mut full_save = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--batch" => {
                batch_dirs.push(PathBuf::from(
                    it.next().ok_or_else(|| err("--batch needs a directory"))?,
                ));
            }
            "--durability" => {
                durability = Some(parse_durability(
                    it.next()
                        .ok_or_else(|| err("--durability needs a policy"))?,
                )?);
            }
            "--seal-bytes" => {
                seal_bytes = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("--seal-bytes needs a number of bytes"))?,
                );
            }
            "--full-save" => full_save = true,
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    if files.is_empty() && batch_dirs.is_empty() {
        return Err(err("no input files (positional <file.xml> or --batch DIR)"));
    }
    let mut db = open_existing(db_path)?;
    if db.index().is_none() {
        return Err(err("database has no index"));
    }
    if let Some(d) = durability {
        db.set_durability(d);
    }
    if let Some(b) = seal_bytes {
        db.set_wal_seal_bytes(b);
    }
    arm_wal_fault(&mut db)?;

    let mut batch = WriteBatch::new();
    for f in &files {
        let xml = std::fs::read_to_string(f).map_err(|e| err(format!("{}: {e}", f.display())))?;
        batch.add_xml(xml);
    }
    for dir in &batch_dirs {
        let mut xmls: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| err(format!("{}: {e}", dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        xmls.sort(); // deterministic id assignment
        if xmls.is_empty() {
            return Err(err(format!("no .xml files under {}", dir.display())));
        }
        for f in xmls {
            let xml =
                std::fs::read_to_string(&f).map_err(|e| err(format!("{}: {e}", f.display())))?;
            batch.add_xml(xml);
        }
    }
    let n = batch.len();
    let t = Instant::now();
    let ids = db.write(batch)?;
    let committed = t.elapsed();
    if full_save {
        db.save()?;
    }
    let idx = db.index().expect("checked above");
    println!(
        "committed {n} documents in {committed:?} (ids {}..{}); database now holds {} documents, {} entries ({} in the delta)",
        ids.first().map(|d| d.0).unwrap_or(0),
        ids.last().map(|d| d.0).unwrap_or(0),
        db.len(),
        idx.entry_count(),
        idx.delta_len()
    );
    if let Some(w) = db.wal_stats() {
        println!(
            "wal: {} records across {} segments ({} fsyncs, durability {})",
            w.records,
            w.segments,
            w.fsyncs,
            db.durability().name()
        );
    } else if full_save {
        println!("checkpointed to {db_path} (no live log)");
    }
    Ok(())
}

/// `fixdb compact`: explicitly folds the delta run into the base B+-tree
/// (the automatic trigger is `FixOptions::compact_ratio`).
fn compact(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = lone_db_path(args)?;
    let mut db = open_existing(db_path)?;
    let before = db.index().map(|i| i.delta_len()).unwrap_or(0);
    let t = Instant::now();
    db.compact()?;
    let elapsed = t.elapsed();
    db.save()?;
    let idx = db.index().expect("compact requires an index");
    println!(
        "compacted {} delta entries into the base tree in {:?}; {} entries total",
        before,
        elapsed,
        idx.entry_count()
    );
    Ok(())
}

fn remove(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut ids: Vec<u32> = Vec::new();
    let mut durability: Option<Durability> = None;
    let mut full_save = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--durability" => {
                durability = Some(parse_durability(
                    it.next()
                        .ok_or_else(|| err("--durability needs a policy"))?,
                )?);
            }
            "--full-save" => full_save = true,
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            _ => ids.push(a.parse().map_err(|_| err(format!("bad doc id `{a}`")))?),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    if ids.is_empty() {
        return Err(err("no document ids"));
    }
    let mut db = open_existing(db_path)?;
    if let Some(d) = durability {
        db.set_durability(d);
    }
    arm_wal_fault(&mut db)?;
    // One atomic batch: either every tombstone commits or none does
    // (a bad id rejects the lot before anything is logged).
    let mut batch = WriteBatch::new();
    for id in &ids {
        batch.remove_document(fix::core::DocId(*id));
    }
    let n = batch.len();
    db.write(batch)?;
    if full_save {
        db.save()?;
    }
    println!(
        "{} documents tombstoned ({} total live); run `fixdb vacuum` to reclaim space",
        n,
        db.len() - db.index().map(|i| i.removed_count()).unwrap_or(0)
    );
    Ok(())
}

/// `fixdb wal`: shows the write-ahead log beside the database (segments,
/// records, sync counters) and the delta index's tier levels it feeds.
fn wal(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = lone_db_path(args)?;
    let db = open_existing(db_path)?;
    let wal_dir = fix::storage::wal_dir(std::path::Path::new(db_path));
    println!("log directory:     {}", wal_dir.display());
    match db.wal_stats() {
        None => println!("log:               none (no logged writes since the last checkpoint)"),
        Some(w) => {
            println!("segments:          {}", w.segments);
            println!(
                "records:           {} (replayed on this open: {})",
                w.records, w.replayed
            );
            println!(
                "tail:              {} records / {} bytes unsealed",
                w.tail_records, w.tail_bytes
            );
            println!("sealed segments:   {}", w.seals);
            println!("durability:        {}", db.durability().name());
        }
    }
    if let Some(idx) = db.index() {
        let d = idx.delta_stats();
        println!(
            "delta:             {} entries ({} unsealed, {} in frozen runs)",
            d.entries,
            d.tail_entries,
            d.entries - d.tail_entries
        );
        let levels = db.level_stats();
        if levels.is_empty() {
            println!("tiers:             empty (nothing sealed yet)");
        } else {
            println!("tiers:");
            for l in &levels {
                println!(
                    "  L{}: {} run(s), {} entries, {} KiB",
                    l.level,
                    l.runs,
                    l.entries,
                    l.bytes / 1024
                );
            }
        }
        println!(
            "read amplification: {} sorted source(s) per scan",
            1 + levels.iter().map(|l| l.runs).sum::<usize>() + usize::from(d.tail_entries > 0)
        );
    }
    Ok(())
}

fn vacuum(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = lone_db_path(args)?;
    let mut db = open_existing(db_path)?;
    let before = db.index().map(|i| i.removed_count()).unwrap_or(0);
    db.vacuum()?;
    db.save()?;
    println!(
        "vacuumed {} tombstoned documents; database now holds {} documents / {} entries",
        before,
        db.len(),
        db.index().map(|i| i.entry_count()).unwrap_or(0)
    );
    Ok(())
}

/// Online repair: re-derives the index state (B+-tree, clustered
/// copies, directories) from the primary documents, clearing any pages
/// the buffer pool quarantined after failed reads, then checkpoints the
/// clean image in place. The primary documents must still be readable —
/// if they are not, the error points at `fixdb verify --salvage`, the
/// offline recovery path.
fn repair(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = lone_db_path(args)?;
    let mut db = open_existing(db_path)?;
    let quarantined = db.quarantined_pages();
    if quarantined.is_empty() {
        println!("no pages quarantined; repairing derived state anyway");
    } else {
        let pages: Vec<String> = quarantined.iter().map(|p| p.0.to_string()).collect();
        println!(
            "{} quarantined page(s): {}",
            quarantined.len(),
            pages.join(", ")
        );
    }
    let report = db.repair().map_err(|e| {
        err(format!(
            "{e}\nprimary documents unreadable? try `fixdb verify {db_path} --salvage <out>`"
        ))
    })?;
    println!("{report}");
    Ok(())
}

/// Offline integrity check (fsck). Walks every checksummed frame of the
/// file — deliberately *without* loading it through `FixDatabase`, which
/// would refuse a corrupt file — and prints per-section health with byte
/// offsets. Exits nonzero on corruption unless `--salvage OUT` recovers
/// the intact sections into a fresh database (which is then verified).
fn verify(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut salvage: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--salvage" => {
                salvage = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| err("--salvage needs an output path"))?,
                ));
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    let db_path = std::path::Path::new(db_path);
    if !db_path.exists() {
        return Err(err(format!("no such database: {}", db_path.display())));
    }
    let report = fix::core::verify_file(db_path)?;
    println!("{report}");
    if report.is_ok() {
        return Ok(());
    }
    let Some(out) = salvage else {
        return Err(err(format!(
            "{} corrupt section(s); run `fixdb verify {} --salvage <out>` to recover the intact sections",
            report.corrupt_count(),
            db_path.display()
        )));
    };
    let summary = fix::core::salvage_file(db_path, &out)?;
    print!("{summary}");
    let check = fix::core::verify_file(&out)?;
    if !check.is_ok() {
        return Err(err(format!(
            "salvaged output failed verification:\n{check}"
        )));
    }
    println!(
        "salvaged database written to {} (verified ok)",
        out.display()
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut prometheus = false;
    let mut json = false;
    let mut interval: Option<f64> = None;
    let mut count = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--prometheus" => prometheus = true,
            "--json" => json = true,
            "--interval" => {
                interval = Some(parse_interval(it.next())?);
            }
            "--count" => {
                count = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--count needs a number"))?;
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    let db = open_existing(db_path)?;
    if let Some(secs) = interval {
        if prometheus || json {
            return Err(err(
                "--interval prints text rates; drop --prometheus/--json",
            ));
        }
        rate_watch(&db, secs, count, false);
        return Ok(());
    }
    if prometheus || json {
        // Refresh the level-style gauges and materialize the standard
        // per-query instruments before rendering.
        db.report_metrics();
        if prometheus {
            print!("{}", db.metrics().render_prometheus());
        }
        if json {
            println!("{}", db.metrics().render_json());
        }
        return Ok(());
    }
    let coll = db.collection();
    let idx = db.index().ok_or_else(|| err("database has no index"))?;
    let cs = coll.stats();
    let is = idx.stats();
    let o = idx.options();
    println!("documents:         {}", coll.len());
    println!("elements:          {}", cs.elements);
    println!("max depth:         {}", cs.max_depth);
    println!("distinct labels:   {}", coll.labels.len());
    println!("depth limit:       {}", o.depth_limit);
    println!("clustered:         {}", o.clustered);
    println!("value index β:     {:?}", o.value_beta);
    println!("edge bloom:        {}", o.edge_bloom);
    println!("storage:           {:?}", o.storage);
    if let Some(p) = db.pool_stats() {
        println!(
            "buffer pool:       {}/{} frames resident ({} pinned)",
            p.resident, p.capacity, p.pinned
        );
    }
    println!("index entries:     {}", is.entries);
    println!("index size:        {} KiB", is.index_bytes() / 1024);
    println!("delta entries:     {}", idx.delta_len());
    println!("delta size:        {} KiB", idx.delta_bytes() / 1024);
    let levels = db.level_stats();
    println!(
        "delta tiers:       {} level(s), {} frozen run(s)",
        levels.len(),
        levels.iter().map(|l| l.runs).sum::<usize>()
    );
    if let Some(w) = db.wal_stats() {
        println!(
            "wal:               {} records / {} segments (replayed {})",
            w.records, w.segments, w.replayed
        );
    }
    println!("tombstoned docs:   {}", idx.removed_count());
    // Top element labels by frequency.
    let mut counts: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (_, d) in coll.iter() {
        for n in d.descendants_or_self(d.root()) {
            if let Some(l) = d.label(n) {
                *counts.entry(coll.labels.resolve(l)).or_insert(0) += 1;
            }
        }
    }
    let mut top: Vec<(&str, u64)> = counts.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("top labels:");
    for (name, n) in top.iter().take(8) {
        println!("  {name:<24} {n}");
    }
    Ok(())
}

/// Parses a `--interval` operand: positive fractional seconds.
fn parse_interval(arg: Option<&String>) -> Result<f64, Box<dyn std::error::Error>> {
    arg.and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| err("--interval needs a positive number of seconds"))
}

/// Dumps the flight recorder. Opening the database replays its WAL, so
/// the recorder already narrates recovery and any replay-triggered tier
/// work by the time we read it; `--commit FILE` drives additional live
/// commits through the open database first, and `--slow-ns` moves the
/// slow-op promotion threshold before that work runs.
fn events_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut json = false;
    let mut follow = false;
    let mut for_ms: Option<u64> = None;
    let mut categories: Vec<fix::Category> = Vec::new();
    let mut slow = false;
    let mut slow_ns: Option<u64> = None;
    let mut seal_bytes: Option<u64> = None;
    let mut commits: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--follow" => follow = true,
            "--for-ms" => {
                for_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("--for-ms needs a number of milliseconds"))?,
                );
            }
            "--category" => {
                let list = it.next().ok_or_else(|| err("--category needs a name"))?;
                for part in list.split(',') {
                    categories.push(fix::Category::parse(part).ok_or_else(|| {
                        err(format!(
                            "unknown category `{part}` (commit|wal|tier|compact|persist|recovery|pool)"
                        ))
                    })?);
                }
            }
            "--slow" => slow = true,
            "--slow-ns" => {
                slow_ns = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("--slow-ns needs a number of nanoseconds"))?,
                );
            }
            "--seal-bytes" => {
                seal_bytes = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("--seal-bytes needs a number of bytes"))?,
                );
            }
            "--commit" => {
                commits.push(PathBuf::from(
                    it.next().ok_or_else(|| err("--commit needs an XML file"))?,
                ));
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    let mut db = open_existing(db_path)?;
    if let Some(ns) = slow_ns {
        db.event_recorder().set_slow_threshold_ns(ns);
    }
    if let Some(b) = seal_bytes {
        db.set_wal_seal_bytes(b);
    }
    for f in &commits {
        let xml = std::fs::read_to_string(f).map_err(|e| err(format!("{}: {e}", f.display())))?;
        let mut batch = WriteBatch::new();
        batch.add_xml(xml);
        db.write(batch)?;
    }
    let keep =
        |e: &fix::Event| -> bool { categories.is_empty() || categories.contains(&e.category) };
    let read = |db: &FixDatabase| -> Vec<fix::Event> {
        let all = if slow { db.slow_ops() } else { db.events() };
        all.into_iter().filter(keep).collect()
    };
    if follow {
        // Poll the recorder, printing only events newer than the last seen
        // sequence number (the ring is read non-destructively, so repeated
        // reads overlap). JSON follow mode streams one object per line.
        let deadline = for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut next_seq = 0u64;
        loop {
            for e in read(&db) {
                if e.seq < next_seq {
                    continue;
                }
                next_seq = e.seq + 1;
                if json {
                    println!("{}", e.to_json());
                } else {
                    println!("{e}");
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    let events = read(&db);
    if json {
        let mut w = fix::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("slow_threshold_ns")
            .u64(db.event_recorder().slow_threshold_ns());
        w.key("dropped").u64(db.event_recorder().dropped());
        w.key("events").begin_array();
        for e in &events {
            e.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        for e in &events {
            println!("{e}");
        }
        eprintln!(
            "{} event(s){}, {} dropped from the ring",
            events.len(),
            if slow { " in the slow-op log" } else { "" },
            db.event_recorder().dropped()
        );
    }
    Ok(())
}

/// Live terminal dashboard: repaints one screen of snapshot-delta rates
/// every `--interval` seconds. `--count N` stops after N frames (0 runs
/// until interrupted); the rate arithmetic is shared with
/// `stats --interval` via [`rate_watch`].
fn top(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut db_path: Option<&str> = None;
    let mut interval = 1.0f64;
    let mut count = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => interval = parse_interval(it.next())?,
            "--count" => {
                count = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--count needs a number"))?;
            }
            // Reject unknown flags before the positional fallback, so a
            // typoed flag cannot be silently taken as a path/argument.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if db_path.is_none() => db_path = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let db_path = db_path.ok_or_else(|| err("missing database path"))?;
    let db = open_existing(db_path)?;
    rate_watch(&db, interval, count, true);
    Ok(())
}

/// The shared loop behind `top` and `stats --interval`: snapshot, sleep,
/// snapshot again, diff, render. `clear` repaints over an ANSI-cleared
/// screen (`top`); otherwise each window prints as its own block.
/// `count == 0` runs until interrupted.
fn rate_watch(db: &FixDatabase, interval: f64, count: usize, clear: bool) {
    db.report_metrics();
    let mut prev = db.metrics().snapshot();
    let mut frames = 0usize;
    loop {
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(interval));
        db.report_metrics();
        let cur = db.metrics().snapshot();
        let d = fix::obs::SnapshotDelta::new(&prev, &cur, t0.elapsed());
        if clear {
            // Clear the screen and home the cursor, like top(1).
            print!("\x1b[2J\x1b[H");
            println!("fixdb top — {:.1}s window (Ctrl-C to quit)", d.secs());
        } else {
            println!("-- {:.1}s window --", d.secs());
        }
        for line in rate_lines(&d, db) {
            println!("{line}");
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = cur;
        frames += 1;
        if count != 0 && frames >= count {
            return;
        }
    }
}

/// One window's rates and levels as text lines — the arithmetic `top`
/// repaints and `stats --interval` prints as blocks. Rates and latency
/// quantiles are window-local ([`SnapshotDelta`](fix::obs::SnapshotDelta)
/// diffs the two snapshots); residency, tail depth, and tier shape are
/// current levels.
fn rate_lines(d: &fix::obs::SnapshotDelta, db: &FixDatabase) -> Vec<String> {
    use fix::obs::names;
    let latency = |name: &str| -> String {
        match d.histogram_delta(name) {
            Some(h) => {
                let q = |q: f64| match h.quantile(q) {
                    Some(ns) => format!("{:.3}ms", ns as f64 / 1e6),
                    None => "-".into(),
                };
                format!(
                    "p50 {} / p95 {} / p99 {} ({} sample(s))",
                    q(0.5),
                    q(0.95),
                    q(0.99),
                    h.count
                )
            }
            None => "idle".into(),
        }
    };
    let mut out = vec![
        format!(
            "queries/s:     {:10.1}    commits/s: {:10.1}",
            d.counter_rate("fix_queries_total"),
            d.counter_rate(names::WAL_APPENDS),
        ),
        format!(
            "wal:           {:10.1} KiB/s appended, {:.1} fsyncs/s, {:.1} group flushes/s",
            d.counter_rate(names::WAL_APPENDED_BYTES) / 1024.0,
            d.counter_rate(names::WAL_FSYNCS),
            d.counter_rate(names::WAL_GROUP_COMMITS),
        ),
        format!("append window: {}", latency(names::WAL_APPEND_NS)),
        format!("fsync window:  {}", latency(names::WAL_FSYNC_NS)),
    ];
    // The pool reports cumulative hit/miss counts as gauges, so the
    // window's hit rate comes from gauge movement, not counter deltas.
    if let (Some(resident), Some(capacity)) = (
        d.gauge("fix_pool_resident_pages"),
        d.gauge("fix_pool_capacity_pages"),
    ) {
        let hits = d.gauge_delta("fix_pool_hits").max(0) as f64;
        let misses = d.gauge_delta("fix_pool_misses").max(0) as f64;
        let rate = if hits + misses > 0.0 {
            format!("{:.1}% window hit rate", 100.0 * hits / (hits + misses))
        } else {
            "idle".into()
        };
        out.push(format!(
            "pool:          {resident}/{capacity} pages resident, {rate}"
        ));
    }
    out.push(format!(
        "wal tail:      {} record(s) / {} bytes across {} segment(s), group queue depth {}",
        d.gauge(names::WAL_TAIL_RECORDS).unwrap_or(0),
        d.gauge(names::WAL_TAIL_BYTES).unwrap_or(0),
        d.gauge(names::WAL_SEGMENTS).unwrap_or(0),
        d.gauge(names::WAL_GROUP_QUEUE_DEPTH).unwrap_or(0),
    ));
    out.push(format!(
        "delta entries: {}",
        d.gauge(names::DELTA_ENTRIES).unwrap_or(0)
    ));
    let levels = db.level_stats();
    if levels.is_empty() {
        out.push("tiers:         empty".into());
    } else {
        let shape: Vec<String> = levels
            .iter()
            .map(|l| format!("L{}:{}r/{}e", l.level, l.runs, l.entries))
            .collect();
        out.push(format!("tiers:         {}", shape.join("  ")));
    }
    out
}

fn gen(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let which = args.first().ok_or_else(|| err("missing data set name"))?;
    let mut scale = 1.0f64;
    let mut out: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--scale needs a number"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().ok_or_else(|| err("--out needs a path"))?,
                ));
            }
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let cfg = GenConfig::scaled(scale);
    match which.as_str() {
        "tcmd" => {
            let dir = out.unwrap_or_else(|| PathBuf::from("tcmd"));
            std::fs::create_dir_all(&dir)?;
            let docs = fix::datagen::tcmd(cfg);
            for (i, d) in docs.iter().enumerate() {
                std::fs::write(dir.join(format!("doc{i:05}.xml")), d)?;
            }
            println!("wrote {} documents to {}", docs.len(), dir.display());
        }
        name @ ("dblp" | "xmark" | "treebank") => {
            let xml = match name {
                "dblp" => fix::datagen::dblp(cfg),
                "xmark" => fix::datagen::xmark(cfg),
                _ => fix::datagen::treebank(cfg),
            };
            let path = out.unwrap_or_else(|| PathBuf::from(format!("{name}.xml")));
            std::fs::write(&path, &xml)?;
            println!("wrote {} bytes to {}", xml.len(), path.display());
        }
        other => return Err(err(format!("unknown data set `{other}`"))),
    }
    Ok(())
}

/// `fixdb serve <db> [--addr HOST:PORT] [--shards N] [--max-inflight N]
/// [--tenant-quota N]` — put a database behind the network: the same
/// front door as the `fixd` daemon. Blocks until SIGTERM/SIGINT, then
/// drains cleanly.
fn serve_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    fix_server::run_daemon("fixdb", args).map_err(err)
}

/// `fixdb remote-query <host:port> <xpath> [--tenant T] [--show N]
/// [--raw] [--json]` — run one query against a running `fixd`/`fixdb
/// serve` over the binary protocol. `--raw` prints bare `doc node` pairs,
/// byte-comparable with `fixdb query --raw` against the same data.
fn remote_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut addr: Option<&str> = None;
    let mut xpath: Option<&str> = None;
    let mut tenant = String::new();
    let mut show = 10usize;
    let mut raw = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tenant" => {
                tenant = it
                    .next()
                    .ok_or_else(|| err("--tenant needs a name"))?
                    .clone()
            }
            "--show" => {
                show = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("--show needs an integer"))?;
            }
            "--raw" => raw = true,
            "--json" => json = true,
            // Reject unknown flags before the positional fallbacks, so a
            // typo like `--adrr` cannot be silently taken as the address.
            flag if flag.starts_with('-') => return Err(err(format!("unknown flag `{flag}`"))),
            _ if addr.is_none() => addr = Some(a),
            _ if xpath.is_none() => xpath = Some(a),
            other => return Err(err(format!("unexpected argument `{other}`"))),
        }
    }
    let addr = addr.ok_or_else(|| err("missing server address"))?;
    let xpath = xpath.ok_or_else(|| err("missing query"))?;
    let mut client = fix_server::Client::connect(addr)
        .map_err(|e| err(e.to_string()))?
        .with_tenant(&tenant);
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| err(e.to_string()))?;
    let out = client.query(xpath).map_err(|e| err(e.to_string()))?;
    if raw {
        let mut text = String::new();
        for (doc, node) in &out.results {
            text.push_str(&format!("{doc} {node}\n"));
        }
        print!("{text}");
        return Ok(());
    }
    if json {
        let mut w = fix::obs::json::JsonWriter::new();
        w.begin_object();
        w.key("query").string(xpath);
        w.key("results").begin_array();
        for &(doc, node) in &out.results {
            w.begin_array();
            w.u64(doc as u64);
            w.u64(node as u64);
            w.end_array();
        }
        w.end_array();
        w.key("metrics").begin_object();
        w.key("entries").u64(out.metrics.entries);
        w.key("candidates").u64(out.metrics.candidates);
        w.key("producing").u64(out.metrics.producing);
        w.end_object();
        w.key("elapsed_ns").u64(out.elapsed_ns);
        w.end_object();
        println!("{}", w.finish());
        return Ok(());
    }
    println!(
        "{} results in {:?} (server-side)",
        out.results.len(),
        Duration::from_nanos(out.elapsed_ns)
    );
    for (doc, node) in out.results.iter().take(show) {
        println!("  doc {doc} node {node}");
    }
    if out.results.len() > show {
        println!("  … and {} more (use --show N)", out.results.len() - show);
    }
    Ok(())
}
