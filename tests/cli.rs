//! End-to-end CLI test: generate a corpus, build a database file, query
//! it, inspect stats — the full `fixdb` surface a downstream user touches.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn fixdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fixdb"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fixdb-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_build_query_stats_round_trip() {
    let dir = workdir("roundtrip");
    let xml = dir.join("dblp.xml");
    let db = dir.join("db.fixdb");

    let out = fixdb()
        .args(["gen", "dblp", "--scale", "0.03", "--out"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixdb()
        .args(["build"])
        .arg(&db)
        .args(["--depth-limit", "6", "--values", "32", "--bloom"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("indexed 1 documents"), "{stdout}");

    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .args(["//inproceedings[url]/title", "--metrics"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("results in"), "{stdout}");
    assert!(stdout.contains("metrics:"), "{stdout}");

    let out = fixdb().args(["stats"]).arg(&db).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("depth limit:       6"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_and_insert_small_collection() {
    let dir = workdir("insert");
    let a = dir.join("a.xml");
    let b = dir.join("b.xml");
    let db = dir.join("db.fixdb");
    std::fs::write(&a, "<bib><article><author/><ee/></article></bib>").unwrap();
    std::fs::write(&b, "<bib><book><author/></book></bib>").unwrap();

    let out = fixdb().args(["build"]).arg(&db).arg(&a).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixdb().args(["insert"]).arg(&db).arg(&b).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 documents"), "{stdout}");

    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .arg("//book/author")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("1 results"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn add_compact_flow_round_trips() {
    // build → add (clustered!) → remove → query → compact → verify:
    // the incremental maintenance surface end to end.
    let dir = workdir("add-compact");
    let a = dir.join("a.xml");
    let b = dir.join("b.xml");
    let c = dir.join("c.xml");
    let db = dir.join("db.fixdb");
    std::fs::write(&a, "<bib><article><author/><ee/></article></bib>").unwrap();
    std::fs::write(&b, "<bib><book><author/></book></bib>").unwrap();
    std::fs::write(&c, "<bib><article><author/><ee/></article></bib>").unwrap();

    let out = fixdb()
        .args(["build"])
        .arg(&db)
        .arg("--clustered")
        .arg(&a)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `add` (the `insert` alias) works on clustered databases too.
    let out = fixdb()
        .args(["add"])
        .arg(&db)
        .arg(&b)
        .arg(&c)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("3 documents"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = fixdb().args(["remove"]).arg(&db).arg("1").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Merged (base + delta, tombstone-filtered) answers.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .arg("//article[author]/ee")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("2 results"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .arg("//book/author")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("0 results"),
        "tombstoned doc leaked: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = fixdb().args(["compact"]).arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("compacted"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = fixdb().args(["stats"]).arg(&db).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delta entries:     0"), "{stdout}");

    // Same answers after compaction, and the file verifies clean.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .arg("//article[author]/ee")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("2 results"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = fixdb().args(["verify"]).arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_query_serves_and_verifies() {
    let dir = workdir("bench-query");
    let xml = dir.join("dblp.xml");
    let db = dir.join("db.fixdb");

    let out = fixdb()
        .args(["gen", "dblp", "--scale", "0.03", "--out"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fixdb().args(["build"]).arg(&db).arg(&xml).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixdb()
        .args(["bench-query"])
        .arg(&db)
        .args([
            "//inproceedings[url]/title",
            "//article[number]/author",
            "--threads",
            "2",
            "--repeat",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 refinement thread(s)"), "{stdout}");
    assert!(stdout.contains("plan cache: 4 hits / 2 misses"), "{stdout}");
    assert!(
        stdout.contains("verified against the sequential path"),
        "{stdout}"
    );

    // Unservable queries surface as errors, not bogus timings.
    let out = fixdb()
        .args(["bench-query"])
        .arg(&db)
        .arg("not a path")
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observability_flags_round_trip() {
    let dir = workdir("observability");
    let xml = dir.join("dblp.xml");
    let db = dir.join("db.fixdb");

    let out = fixdb()
        .args(["gen", "dblp", "--scale", "0.03", "--out"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = fixdb().args(["build"]).arg(&db).arg(&xml).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --trace prints the per-stage pipeline breakdown; a cold session
    // shows a cache miss and every stage.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .args(["//inproceedings[url]/title", "--trace"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for stage in ["cache_probe", "parse", "compile", "eigen", "scan", "refine"] {
        assert!(stdout.contains(stage), "missing {stage} in: {stdout}");
    }
    assert!(stdout.contains("miss"), "{stdout}");
    assert!(stdout.contains("total"), "{stdout}");

    // --json emits one machine-readable document with the same stages.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .args(["//inproceedings[url]/title", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_end().starts_with('{') && stdout.trim_end().ends_with('}'));
    for key in [
        "\"trace\"",
        "\"metrics\"",
        "\"stage\":\"refine\"",
        "\"cache_hit\":false",
    ] {
        assert!(stdout.contains(key), "missing {key} in: {stdout}");
    }

    // --analyze is EXPLAIN ANALYZE: plan plus one real traced run.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .args(["//inproceedings[url]/title", "--analyze"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("normalized:"), "{stdout}");
    assert!(stdout.contains("sel "), "{stdout}");
    assert!(stdout.contains("refine"), "{stdout}");

    // stats renders the registry in both exposition formats, counters
    // present even before any query has run in this process.
    let out = fixdb()
        .args(["stats"])
        .arg(&db)
        .arg("--prometheus")
        .output()
        .unwrap();
    assert!(out.status.success());
    let prom = String::from_utf8_lossy(&out.stdout);
    for name in [
        "fix_plan_cache_hits",
        "fix_plan_cache_misses",
        "fix_plan_cache_evictions",
        "fix_btree_scans",
        "fix_refine_candidates_total",
        "fix_queries_total",
    ] {
        assert!(prom.contains(name), "prometheus missing {name}");
    }
    assert!(prom.contains("# TYPE"), "{prom}");

    let out = fixdb()
        .args(["stats"])
        .arg(&db)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"fix_plan_cache_evictions\""), "{json}");
    assert!(json.contains("\"fix_btree_scans\""), "{json}");

    // bench-query --json reports per-stage quantiles and cache counters.
    let out = fixdb()
        .args(["bench-query"])
        .arg(&db)
        .args(["//inproceedings[url]/title", "--repeat", "3", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"stages\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
        "\"plan_cache\"",
        "\"hits\":2",
        "\"misses\":1",
    ] {
        assert!(stdout.contains(key), "missing {key} in: {stdout}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_corrupt_salvage_round_trip() {
    let dir = workdir("verify");
    let a = dir.join("a.xml");
    let db = dir.join("db.fixdb");
    let recovered = dir.join("recovered.fixdb");
    std::fs::write(&a, "<bib><article><author/><ee/></article></bib>").unwrap();

    let out = fixdb().args(["build"]).arg(&db).arg(&a).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A freshly built database verifies clean.
    let out = fixdb().args(["verify"]).arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_end().ends_with("ok"), "{stdout}");
    for section in ["options", "documents", "btree", "footer"] {
        assert!(stdout.contains(section), "missing {section} in: {stdout}");
    }

    // Flip one byte mid-file: verify must fail and name corrupt sections.
    let mut bytes = std::fs::read(&db).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&db, &bytes).unwrap();

    let out = fixdb().args(["verify"]).arg(&db).output().unwrap();
    assert!(!out.status.success(), "corrupt file verified clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CORRUPT"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--salvage"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A corrupt database refuses to open for queries.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .arg("//article/ee")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Salvage recovers the intact sections into a fresh verified file.
    let out = fixdb()
        .args(["verify"])
        .arg(&db)
        .arg("--salvage")
        .arg(&recovered)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified ok"), "{stdout}");

    let out = fixdb().args(["verify"]).arg(&recovered).output().unwrap();
    assert!(out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_max_depth_flag_limits_nesting() {
    let dir = workdir("max-depth");
    let xml = dir.join("deep.xml");
    let db = dir.join("db.fixdb");
    std::fs::write(&xml, "<a>".repeat(40) + &"</a>".repeat(40)).unwrap();

    let out = fixdb()
        .args(["build"])
        .arg(&db)
        .args(["--max-depth", "8"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(!out.status.success(), "40-deep document beat --max-depth 8");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("depth"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixdb()
        .args(["build"])
        .arg(&db)
        .args(["--max-depth", "64"])
        .arg(&xml)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = fixdb().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = fixdb()
        .args(["query", "/nonexistent.fixdb", "//a"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = fixdb().args(["gen", "bogus"]).output().unwrap();
    assert!(!out.status.success());

    // The histogram planner is gone: `--plan` is an unknown flag.
    let out = fixdb()
        .args(["query", "/nonexistent.fixdb", "//a", "--plan"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--plan`"), "{stderr}");

    // A manifest whose counts nothing on disk backs is a typed error, not
    // a `capacity overflow` panic (exit code 101).
    let manifest = workdir("bad-manifest").join("m");
    let text = "fix-sharded v1\nrouter hash\nshards 1000000000000000000\ndocs 0\n";
    std::fs::write(&manifest, text).unwrap();
    let out = fixdb().arg("serve").arg(&manifest).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shard manifest"), "{stderr}");

    // Arguments a verb does not take are usage errors, never ignored —
    // and the verbs that rewrite the database must not touch it.
    let dir = workdir("bad-usage");
    let xml = dir.join("a.xml");
    std::fs::write(&xml, "<a><b/></a>").unwrap();
    let db = dir.join("db.fixdb");
    let out = fixdb().arg("build").arg(&db).arg(&xml).output().unwrap();
    assert!(out.status.success());
    let image = std::fs::read(&db).unwrap();
    for verb in ["compact", "vacuum", "repair", "wal"] {
        let out = fixdb()
            .arg(verb)
            .arg(&db)
            .args(["--bogus", "--count", "1"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb} accepted --bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--bogus"), "{verb}: {stderr}");
        assert_eq!(std::fs::read(&db).unwrap(), image, "{verb} rewrote the db");
    }

    // A typoed build flag is not an input file; a missing input file is
    // named in the error.
    let out = fixdb()
        .arg("build")
        .arg(dir.join("typo.fixdb"))
        .arg("--clusterd")
        .arg(&xml)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--clusterd`"), "{stderr}");
    let missing = dir.join("missing.xml");
    let out = fixdb()
        .arg("build")
        .arg(dir.join("missing.fixdb"))
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing.xml"), "{stderr}");

    // `--out` with no value is an error, not a silent write to ./tcmd.
    let out = fixdb()
        .args(["gen", "tcmd", "--scale", "0.01", "--out"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!dir.join("tcmd").exists());
}

#[test]
fn serve_drains_and_exits_cleanly_on_sigterm() {
    let dir = workdir("serve-sigterm");
    let xml = dir.join("a.xml");
    std::fs::write(&xml, "<a><b/></a>").unwrap();
    let db = dir.join("db.fixdb");
    let out = fixdb().arg("build").arg(&db).arg(&xml).output().unwrap();
    assert!(out.status.success());

    let mut child = fixdb()
        .arg("serve")
        .arg(&db)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The handlers are installed before the announcement, so a signal
    // sent once it is read always gets a drain.
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("serving on 127.0.0.1:"), "{line}");

    let start = Instant::now();
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            panic!("fixdb serve still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let took = start.elapsed();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "exit {status:?}: {stderr}");
    assert!(stderr.contains("clean shutdown"), "{stderr}");
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
}

#[test]
fn paged_build_query_verify_stats_round_trip() {
    let dir = workdir("paged");
    let corpus = dir.join("tcmd");
    let db = dir.join("db.fixdb");

    let out = fixdb()
        .args(["gen", "tcmd", "--scale", "0.03", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let out = fixdb()
        .args(["build"])
        .arg(&db)
        .args(["--clustered", "--paged", "--pool-pages", "16"])
        .args(&files)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The file on disk is the paged (v4) format and verifies clean.
    let out = fixdb().args(["verify"]).arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("v4"), "{stdout}");

    // Queries read pages on demand through the pool.
    let out = fixdb()
        .args(["query"])
        .arg(&db)
        .args(["//article/prolog/authors/author", "--metrics"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("results in"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Human stats name the storage mode and the pool budget; the JSON
    // exposition carries the fix_pool_* gauges the smoke job scrapes.
    let out = fixdb().args(["stats"]).arg(&db).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("storage:           Paged"), "{stdout}");
    assert!(stdout.contains("buffer pool:"), "{stdout}");

    let out = fixdb()
        .args(["stats"])
        .arg(&db)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fix_pool_resident"), "{stdout}");
    assert!(stdout.contains("fix_pool_capacity"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn events_top_and_interval_stats_round_trip() {
    // The flight-recorder surface: `events` narrating recovery replay on
    // reopen, the slow-op log with a 0ns threshold, category filters, and
    // the two rate viewers (`top`, `stats --interval`) sharing one
    // snapshot-delta arithmetic.
    let dir = workdir("events");
    let a = dir.join("a.xml");
    let b = dir.join("b.xml");
    let c = dir.join("c.xml");
    let db = dir.join("db.fixdb");
    std::fs::write(&a, "<bib><article><author/><ee/></article></bib>").unwrap();
    std::fs::write(&b, "<bib><book><author/></book></bib>").unwrap();
    std::fs::write(&c, "<bib><phdthesis><author/></phdthesis></bib>").unwrap();

    let out = fixdb().args(["build"]).arg(&db).arg(&a).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `add` commits through the WAL and leaves the record there (no full
    // save), so the *next* open replays it — and the recorder sees it.
    let out = fixdb().args(["add"]).arg(&db).arg(&b).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = fixdb()
        .args(["events"])
        .arg(&db)
        .arg("--json")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"name\":\"open\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"recovery.replay\""), "{stdout}");
    assert!(stdout.contains("\"records\":1"), "{stdout}");

    // Slow-op log with a floor threshold: the in-process `--commit` span
    // promotes, payload intact.
    let out = fixdb()
        .args(["events"])
        .arg(&db)
        .args(["--slow", "--slow-ns", "0", "--commit"])
        .arg(&c)
        .arg("--json")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"slow_threshold_ns\":0"), "{stdout}");
    assert!(stdout.contains("\"name\":\"commit\""), "{stdout}");
    assert!(stdout.contains("\"duration_ns\":"), "{stdout}");

    // Category filter: recovery lines only.
    let out = fixdb()
        .args(["events"])
        .arg(&db)
        .args(["--category", "recovery"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recovery.replay"), "{stdout}");
    assert!(stdout.lines().all(|l| l.contains(" recovery ")), "{stdout}");

    // An unknown category is a usage error, not a silent empty dump.
    let out = fixdb()
        .args(["events"])
        .arg(&db)
        .args(["--category", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // `top` paints at least one frame with the rate lines…
    let out = fixdb()
        .args(["top"])
        .arg(&db)
        .args(["--interval", "0.05", "--count", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fixdb top"), "{stdout}");
    assert!(stdout.contains("commits/s:"), "{stdout}");
    assert!(stdout.contains("fsync window:"), "{stdout}");
    assert!(stdout.contains("wal tail:"), "{stdout}");

    // …and `stats --interval` prints the same lines as plain blocks,
    // one per window.
    let out = fixdb()
        .args(["stats"])
        .arg(&db)
        .args(["--interval", "0.05", "--count", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("window --").count(),
        2,
        "two windows: {stdout}"
    );
    assert!(stdout.contains("queries/s:"), "{stdout}");
    assert!(!stdout.contains('\x1b'), "no ANSI outside top: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
