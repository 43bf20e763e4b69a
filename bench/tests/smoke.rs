//! Proves the harness runs end to end and that what it prints, what
//! `BENCHMARK.json` promises and what `README.md` documents are the same
//! set of names — the guard against a benchmark that fails to run.

use std::path::Path;
use std::process::Command;

use fix_perfbench::json::{self, Value};
use fix_perfbench::spec::{self, Workload};

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `fix-perfbench spec --json > BENCHMARK.json`"
    );
    let keys: Vec<&str> = on_disk
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn readme_table_is_the_spec() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md");
    let begin = readme.find("<!-- metrics:begin -->").expect("begin marker")
        + "<!-- metrics:begin -->".len();
    let end = readme.find("<!-- metrics:end -->").expect("end marker");
    assert_eq!(
        readme[begin..end].trim(),
        spec::readme_table().trim(),
        "regenerate with `fix-perfbench spec --readme`"
    );
}

/// All four workloads, untraced and traced, at tiny scale: every result
/// line parses, is correct, and carries exactly the promised names.
#[test]
fn smoke_run_reports_every_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let started = std::time::Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_fix-perfbench"))
        .arg("--smoke")
        .arg("--dir")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(
        results.len(),
        2 * Workload::ALL.len(),
        "one untraced and one traced result per workload"
    );

    let spec_json = spec::benchmark_json();
    let end_to_end = names(spec_json.get("end_to_end").unwrap());
    let per_layer = names(spec_json.get("per_layer").unwrap());
    for (i, r) in results.iter().enumerate() {
        let keys: Vec<&str> = r
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
        assert!(r.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = r.get("metrics").and_then(Value::as_obj).unwrap();
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(&got, if i % 2 == 0 { &end_to_end } else { &per_layer });
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} has no value"));
            assert!(value.is_finite(), "{name} is not finite");
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(spec::find(name).unwrap().unit)
            );
            if i % 2 == 0 {
                assert!(value > 0.0, "end-to-end metric {name} is {value}");
            }
        }
    }
    for w in Workload::ALL {
        let trace = out.join(format!("trace-{}.json", w.name()));
        let spans = json::parse(&std::fs::read_to_string(&trace).expect("trace file"))
            .expect("trace parses");
        assert!(!spans
            .get("spans")
            .and_then(Value::as_arr)
            .unwrap()
            .is_empty());
    }
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke mode took {:?}",
        started.elapsed()
    );
    std::fs::remove_dir_all(&out).ok();
}
