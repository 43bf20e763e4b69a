//! The benchmark's definition as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` and the table in
//! `README.md` are generated from here (`fix-perfbench spec`), and the
//! smoke test fails when either file drifts from it.

use crate::json::Value;

/// How long one run measures, in seconds (`run_seconds` of
/// `BENCHMARK.json`). Pass counts scale with `--seconds / RUN_SECONDS`.
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TwigResident,
    TwigPaged,
    ServeTcmd,
    ChurnTcmd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TwigResident,
        Workload::TwigPaged,
        Workload::ServeTcmd,
        Workload::ChurnTcmd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TwigResident => "twig_resident",
            Workload::TwigPaged => "twig_paged",
            Workload::ServeTcmd => "serve_tcmd",
            Workload::ChurnTcmd => "churn_tcmd",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line: why the workload exists (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TwigResident => {
                "Treebank twigs through a QuerySession over an in-memory (v3) index: \
                 eigen/scan/refine do all the work, no wire, no disk; the small-DB baseline."
            }
            Workload::TwigPaged => {
                "Same corpus and op list on the clustered index saved paged (v4) and opened \
                 under a pool of a quarter of its pages: pool pins, misses, evictions and CRCs dominate."
            }
            Workload::ServeTcmd => {
                "TCMD (4800 docs, 3 hash shards) served over loopback to 2 closed-loop binary \
                 connections: wire, admission, scoped-thread scatter and k-way merge do the work."
            }
            Workload::ChurnTcmd => {
                "TCMD (3200 docs) under 25000 one-op WAL commits per round with reads between them: \
                 the only workload running WAL, delta tiers, compaction and recovery beside reads."
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
    /// The layer (crate) a per-layer metric belongs to; `"end to end"`
    /// otherwise.
    pub layer: &'static str,
    pub definition: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    definition: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end to end",
        definition,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    definition: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        definition,
    }
}

/// What a user of the database sees. Every workload reports every one.
///
/// The bounds are set from measurement, not hope: over four sets of ten
/// seeds on the builder's shared 2-core box the interquartile spread of a
/// timing was 2–7 % of its median on most (metric, workload) pairs and up
/// to 10–11 % on the worst (`build_mb_per_s` follows the seed's handful of
/// near-`max_edges` patterns; `miss_p50_us` and the paged `query_p50_us`
/// follow the box's minute-long slow spells). A bound is about twice the
/// worst spread seen for its metric, so a run-to-run difference inside
/// it is noise and one outside it is not.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25,
        "median set-up round (generate corpus, build, save, open through the first answer) plus the one warm-up pass"),
    e2e("build_mb_per_s", "MB/s", "higher", 0.25,
        "raw XML bytes / wall of parsing every document into a fresh database and building its index; median of the set-up rounds"),
    e2e("save_ms", "ms", "lower", 0.15,
        "saving the built database to its path (v3, v4 paged on twig_paged, one file per shard on serve_tcmd); median of the set-up rounds"),
    e2e("open_ms", "ms", "lower", 0.15,
        "opening the saved database through the first answer to the corpus's Table-2 'md' query; median of the set-up rounds"),
    e2e("recover_ms", "ms", "lower", 0.20,
        "restart after the write phase: reopen a copy of what is on disk (image + WAL directory; the last saved shards on serve_tcmd) through the first answer; median of 5"),
    e2e("queries_per_s", "1/s", "higher", 0.15,
        "queries in a pass / median pass wall (time inside query calls per round on churn_tcmd)"),
    e2e("query_p50_us", "us", "lower", 0.20,
        "each op's latency is its median across passes; the midmean over ops (mean of the ops between the quartiles: a median smoothed over the cost-class boundary it sits on)"),
    e2e("query_p95_us", "us", "lower", 0.15,
        "the same per-op latencies, mean of the ops ranked 92.5th to 97.5th percentile"),
    e2e("miss_p50_us", "us", "lower", 0.20,
        "midmean latency of the zero-hit probes (perturbed twigs the index answers without touching a document)"),
    e2e("commits_per_s", "1/s", "higher", 0.20,
        "one-op commits in a round / time inside the commit calls; median round"),
    e2e("commit_p50_us", "us", "lower", 0.15,
        "median acknowledged add-one-document commit (validate, parse, extract, WAL append, apply); per-position median across rounds, then median over positions"),
    e2e("disk_bytes_per_raw_byte", "B/B", "lower", 0.03,
        "database files plus WAL directory after the write phase / live raw XML bytes; exact for a seed"),
    e2e("peak_rss_mb", "MB", "lower", 0.15,
        "VmHWM of the benchmark process, read before the naive-oracle check"),
];

/// One layer each, measured from outside by timing calls into the
/// layer's public functions on the workload's own corpus and op list
/// (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer(
        "fix-xml",
        "xml.parse_mb_per_s",
        "MB/s",
        "higher",
        "parse_document over the corpus",
    ),
    layer(
        "fix-xpath",
        "xpath.parse_us",
        "us",
        "lower",
        "parse_path per distinct query of the op list, median",
    ),
    layer(
        "fix-bisim",
        "bisim.build_ms",
        "ms",
        "lower",
        "BisimBuilder over every parsed document of the corpus",
    ),
    layer(
        "fix-spectral",
        "spectral.query_features_us",
        "us",
        "lower",
        "FeatureExtractor::extract_interning on each distinct query's top twig pattern, median",
    ),
    layer(
        "fix-spectral",
        "spectral.eigen_us",
        "us",
        "lower",
        "perron_bounds_sparse on those patterns' edge lists, median",
    ),
    layer(
        "fix-btree",
        "btree.bulk_load_ms",
        "ms",
        "lower",
        "BTree::bulk_load of the index's own entries into a fresh in-memory page space",
    ),
    layer(
        "fix-btree",
        "btree.scan_us",
        "us",
        "lower",
        "range scan of that tree between each op's scan_start and scan_end keys, median",
    ),
    layer(
        "fix-btree",
        "btree.entries_per_scan",
        "count",
        "lower",
        "entries those scans yield, mean per scan (exact)",
    ),
    layer(
        "fix-exec",
        "exec.refine_us_per_candidate",
        "us",
        "lower",
        "time inside FixIndex::refine / candidates refined, over the traced pass",
    ),
    layer(
        "fix-exec",
        "exec.merge_k_us",
        "us",
        "lower",
        "merge_k_sorted over each answer dealt into 3 sorted streams, median",
    ),
    layer(
        "fix-core query",
        "core.compile_us",
        "us",
        "lower",
        "self time of the span around FixIndex::compile, median over ops",
    ),
    layer(
        "fix-core query",
        "core.scan_us",
        "us",
        "lower",
        "self time of the span around FixIndex::scan_plan, median over ops",
    ),
    layer(
        "fix-core query",
        "core.refine_us",
        "us",
        "lower",
        "self time of the span around FixIndex::refine, median over ops",
    ),
    layer(
        "fix-core query",
        "core.stage_sum_over_wall",
        "ratio",
        "higher",
        "sum of the three stage spans / sum of their parent op spans; asserted within 0.9..1.1",
    ),
    layer(
        "fix-core query",
        "core.candidates_per_result",
        "ratio",
        "lower",
        "rows examined per result over the op list (exact; the paper's false-positive cost)",
    ),
    layer(
        "fix-core query",
        "core.plan_cache_hit_rate",
        "ratio",
        "higher",
        "CacheStats hits / lookups over one session pass after warm-up",
    ),
    layer(
        "fix-core query",
        "core.query_p99_us",
        "us",
        "lower",
        "99th percentile over ops of session query latency (median of 3 passes)",
    ),
    layer(
        "fix-core query",
        "core.share_under_10ms",
        "ratio",
        "higher",
        "share of ops answered in under 10 ms (the perlin-core budget line)",
    ),
    layer(
        "fix-core query",
        "core.simple_share_under_1ms",
        "ratio",
        "higher",
        "share of single-step ops answered in under 1 ms",
    ),
    layer(
        "fix-storage pool",
        "pool.hit_rate",
        "ratio",
        "higher",
        "PoolStats hits / (hits + misses) over one session pass",
    ),
    layer(
        "fix-storage pool",
        "pool.pins_per_query",
        "count",
        "lower",
        "PoolStats (hits + misses) delta / ops",
    ),
    layer(
        "fix-storage pool",
        "pool.misses_per_query",
        "count",
        "lower",
        "PoolStats misses delta / ops",
    ),
    layer(
        "fix-storage pool",
        "pool.evictions_per_query",
        "count",
        "lower",
        "PoolStats evictions delta / ops",
    ),
    layer(
        "fix-storage pool",
        "pool.pin_hit_ns",
        "ns",
        "lower",
        "pin of a resident page in a standalone BufferPool over a scratch page file",
    ),
    layer(
        "fix-storage pool",
        "pool.pin_miss_us",
        "us",
        "lower",
        "pin that must evict and read (8-frame pool swept over 512 pages of that file)",
    ),
    layer(
        "fix-core persist",
        "persist.save_mb_per_s",
        "MB/s",
        "higher",
        "saved bytes / save wall",
    ),
    layer(
        "fix-core persist",
        "persist.open_only_ms",
        "ms",
        "lower",
        "FixDatabase::open alone, before any query",
    ),
    layer(
        "fix-core persist",
        "persist.open_bytes_read",
        "B",
        "lower",
        "fix_persist_bytes_read_total after that open",
    ),
    layer(
        "fix-core persist",
        "persist.verify_ms",
        "ms",
        "lower",
        "FixDatabase::verify of the saved file",
    ),
    layer(
        "fix-core persist",
        "persist.bytes_per_entry",
        "B",
        "lower",
        "saved bytes / index entries",
    ),
    layer(
        "fix-storage wal",
        "wal.append_us",
        "us",
        "lower",
        "Wal::append of the commit stream's documents under Durability::Async, median",
    ),
    layer(
        "fix-storage wal",
        "wal.fsync_disk_us",
        "us",
        "lower",
        "Wal::sync after an append, median; the sandbox's disk, not the program",
    ),
    layer(
        "fix-storage wal",
        "wal.fsyncs_per_commit",
        "ratio",
        "lower",
        "WalStats fsyncs / commits over a Durability::Sync stream (must be 1)",
    ),
    layer(
        "fix-storage wal",
        "wal.bytes_per_user_byte",
        "ratio",
        "lower",
        "WalStats appended bytes / XML bytes committed",
    ),
    layer(
        "fix-storage wal",
        "wal.seals",
        "count",
        "lower",
        "segments sealed in one round of the commit stream",
    ),
    layer(
        "fix-storage wal",
        "wal.replay_us_per_record",
        "us",
        "lower",
        "Wal::recover of that stream's log / records replayed",
    ),
    layer(
        "fix-core database",
        "db.apply_us",
        "us",
        "lower",
        "median add commit minus wal.append_us: validate, parse, extract, apply",
    ),
    layer(
        "fix-core database",
        "db.commit_sync_us",
        "us",
        "lower",
        "median add commit of the same stream under Durability::Sync (one fsync each)",
    ),
    layer(
        "fix-core database",
        "db.remove_us",
        "us",
        "lower",
        "median remove-oldest commit",
    ),
    layer(
        "fix-core database",
        "db.commit_p99_us",
        "us",
        "lower",
        "99th percentile commit of one round",
    ),
    layer(
        "fix-core database",
        "db.commit_max_ms",
        "ms",
        "lower",
        "slowest commit of one round: the seal, tier-merge and compaction stalls a median hides",
    ),
    layer(
        "fix-core delta",
        "delta.levels",
        "count",
        "lower",
        "tier-stack depth at the end of a round",
    ),
    layer(
        "fix-core delta",
        "delta.tier_merges",
        "count",
        "lower",
        "run merges in a round",
    ),
    layer(
        "fix-core delta",
        "delta.compactions",
        "count",
        "lower",
        "auto-compactions in a round",
    ),
    layer(
        "fix-core delta",
        "delta.compact_ms",
        "ms",
        "lower",
        "mean wall of those compactions",
    ),
    layer(
        "fix-core delta",
        "delta.sources_per_scan",
        "count",
        "lower",
        "base tree + frozen runs + active run, mean over the round's read points",
    ),
    layer(
        "fix-core shard",
        "shard.leg_max_us",
        "us",
        "lower",
        "slowest leg of ShardedSession::query_detailed over 3 hash shards, median over ops",
    ),
    layer(
        "fix-core shard",
        "shard.leg_sum_us",
        "us",
        "lower",
        "sum of the legs, median over ops",
    ),
    layer(
        "fix-core shard",
        "shard.scatter_self_us",
        "us",
        "lower",
        "query_detailed wall minus the slowest leg: spawn, remap, merge",
    ),
    layer(
        "fix-server",
        "server.connect_us",
        "us",
        "lower",
        "Client::connect to the loopback server, median",
    ),
    layer(
        "fix-server",
        "server.ping_rtt_us",
        "us",
        "lower",
        "Client::ping round trip, median",
    ),
    layer(
        "fix-server",
        "server.reported_us",
        "us",
        "lower",
        "RemoteOutcome::elapsed_ns, median over ops",
    ),
    layer(
        "fix-server",
        "server.wire_self_us",
        "us",
        "lower",
        "round trip minus reported: framing, syscalls, admission, thread wake-up",
    ),
    layer(
        "fix-server",
        "proto.encode_response_us",
        "us",
        "lower",
        "encode_response of each answer, median",
    ),
    layer(
        "fix-server",
        "proto.decode_response_us",
        "us",
        "lower",
        "decode_response of each answer, median",
    ),
    layer(
        "fix-obs",
        "obs.snapshot_us",
        "us",
        "lower",
        "MetricsRegistry::snapshot of the database's registry",
    ),
    layer(
        "fix-obs",
        "obs.recorder_overhead_pct",
        "%",
        "lower",
        "commit stream wall with the flight recorder at its default capacity vs event_capacity(0)",
    ),
    layer(
        "bench",
        "trace.overhead_pct",
        "%",
        "lower",
        "stage-by-stage traced pass vs the same stages untraced",
    ),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Value::Num(b)));
        }
        Value::obj(pairs)
    };
    let strs = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["bench"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The metric table of `README.md`, between its `metrics:begin` and
/// `metrics:end` markers.
pub fn readme_table() -> String {
    let mut out = String::from(
        "| layer | name | unit | better | bound | definition |\n|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m.bound.map_or_else(|| "—".to_string(), |b| format!("{b}"));
        out.push_str(&format!(
            "| {} | `{}` | {} | {} | {} | {} |\n",
            m.layer, m.name, m.unit, m.better, bound, m.definition
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn spec_is_inside_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for w in Workload::ALL {
            assert!(
                w.why().chars().count() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }
}
