//! `fix-perfbench repeat`: runs every workload several times, each with
//! another seed and each in a process of its own (so `peak_rss_mb` is a
//! run's, not the sum), and checks the benchmark against its own bounds
//! the way the driver does: for every end-to-end metric the distance
//! between the quartiles of its values, as a share of their median, must
//! stay within the metric's bound. It also runs the traced run twice on
//! one seed and requires `answers_fnv` and every count-type per-layer
//! metric to repeat exactly.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Value};
use crate::spec::{self, Workload};
use crate::stats::{median, relative_spread};

/// Per-layer metrics that are exact counts: identical for one seed.
pub const EXACT: &[&str] = &[
    "btree.entries_per_scan",
    "core.candidates_per_result",
    "core.plan_cache_hit_rate",
    "persist.open_bytes_read",
    "persist.bytes_per_entry",
    "wal.fsyncs_per_commit",
    "wal.bytes_per_user_byte",
    "wal.seals",
    "delta.levels",
    "delta.tier_merges",
    "delta.compactions",
    "delta.sources_per_scan",
];

struct Outcome {
    metrics: BTreeMap<String, f64>,
    answers_fnv: String,
}

fn child(
    workload: Workload,
    seed: u64,
    seconds: u32,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--dir")
    .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let what = format!("{} seed {seed} trace {}", workload.name(), u8::from(traced));
    if !output.status.success() {
        return Err(format!(
            "{what}: exit {:?}\n{stdout}{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let result =
        json::parse(last).map_err(|e| format!("{what}: result line does not parse: {e}"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{what}: not correct: {last}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{what}: no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let answers_fnv = stdout
        .lines()
        .find_map(|l| l.strip_prefix("answers_fnv: "))
        .unwrap_or_default()
        .to_string();
    Ok(Outcome {
        metrics,
        answers_fnv,
    })
}

fn shell(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// `HEAD`, marked when the working tree differs from it (the baseline is
/// measured before the change that adds it is committed).
fn commit() -> String {
    let head = shell("git", &["rev-parse", "HEAD"]);
    match shell("git", &["status", "--porcelain"]).as_str() {
        "" | "unknown" => head,
        _ => format!("{head}+uncommitted"),
    }
}

pub fn run(
    runs: usize,
    first_seed: u64,
    seconds: u32,
    smoke: bool,
    out: &Path,
    file: Option<&Path>,
) -> bool {
    let runs = runs.max(2);
    let mut values: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..runs {
        // Alternate the order so no workload always runs after the same one.
        let mut order = Workload::ALL.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = first_seed + i as u64;
            match child(w, seed, seconds, false, smoke, out) {
                Ok(o) => {
                    eprintln!("{} seed {seed}: done", w.name());
                    for (k, v) in o.metrics {
                        values.entry((w.name(), k)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }

    println!(
        "{:<14} {:<26} {:>6} {:>13} {:>13} {:>13} {:>8} {:>6}",
        "workload", "metric", "unit", "min", "median", "max", "spread", "bound"
    );
    let mut workloads_json = Vec::new();
    for w in Workload::ALL {
        let mut metrics_json = Vec::new();
        for m in spec::END_TO_END {
            let Some(v) = values
                .get(&(w.name(), m.name.to_string()))
                .filter(|v| v.len() >= 2)
            else {
                ok = false;
                eprintln!("{} reported {} fewer than twice", w.name(), m.name);
                continue;
            };
            let (lo, hi) = (
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            let spread = relative_spread(v);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // The driver does not hold setup_s's spread to its bound.
            let within = spread <= bound || m.name == "setup_s";
            ok &= within;
            println!(
                "{:<14} {:<26} {:>6} {:>13.4} {:>13.4} {:>13.4} {:>7.2}% {:>5.0}%{}",
                w.name(),
                m.name,
                m.unit,
                lo,
                median(v),
                hi,
                100.0 * spread,
                100.0 * bound,
                if within { "" } else { "  EXCEEDS BOUND" }
            );
            metrics_json.push((
                m.name,
                Value::obj([
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better)),
                    ("bound", Value::Num(bound)),
                    ("min", Value::Num(lo)),
                    ("median", Value::Num(median(v))),
                    ("max", Value::Num(hi)),
                    ("spread", Value::Num(spread)),
                    (
                        "values",
                        Value::Arr(v.iter().map(|x| Value::Num(*x)).collect()),
                    ),
                ]),
            ));
        }
        workloads_json.push((w.name(), Value::obj(metrics_json)));
    }

    // The traced run, twice on the first seed: counts must repeat exactly.
    let mut layers_json = Vec::new();
    for w in Workload::ALL {
        match (
            child(w, first_seed, seconds, true, smoke, out),
            child(w, first_seed, seconds, true, smoke, out),
        ) {
            (Ok(a), Ok(b)) => {
                if a.answers_fnv != b.answers_fnv || a.answers_fnv.is_empty() {
                    ok = false;
                    eprintln!(
                        "{}: answers_fnv {} then {}",
                        w.name(),
                        a.answers_fnv,
                        b.answers_fnv
                    );
                }
                for name in EXACT {
                    if a.metrics.get(*name) != b.metrics.get(*name) {
                        ok = false;
                        eprintln!(
                            "{}: {name} is {:?} then {:?} for one seed",
                            w.name(),
                            a.metrics.get(*name),
                            b.metrics.get(*name)
                        );
                    }
                }
                let pairs = spec::PER_LAYER
                    .iter()
                    .filter_map(|m| Some((m.name, Value::Num(*a.metrics.get(m.name)?))));
                layers_json.push((
                    w.name(),
                    Value::obj(pairs.chain([("answers_fnv", Value::str(a.answers_fnv.clone()))])),
                ));
                eprintln!(
                    "{} traced twice: exact counts and answers_fnv {} repeat",
                    w.name(),
                    a.answers_fnv
                );
            }
            (a, b) => {
                ok = false;
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("{e}");
                }
            }
        }
    }

    if let Some(path) = file {
        let doc = Value::obj([
            ("benchmark", Value::str("fix-perfbench repeat")),
            ("commit", Value::str(commit())),
            ("kernel", Value::str(shell("uname", &["-sr"]))),
            (
                "nproc",
                Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("runs", Value::Num(runs as f64)),
            ("first_seed", Value::Num(first_seed as f64)),
            ("seconds", Value::Num(f64::from(seconds))),
            ("within_bounds", Value::Bool(ok)),
            ("end_to_end", Value::obj(workloads_json)),
            ("per_layer", Value::obj(layers_json)),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "repeat: every end-to-end metric repeats within its bound"
        } else {
            "repeat: FAILED"
        }
    );
    ok
}
