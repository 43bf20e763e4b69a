//! `fix-perfbench`: the command `BENCHMARK.json` names.
//!
//! ```text
//! fix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dir <out>]
//! fix-perfbench --smoke [--dir <out>]      every workload, untraced and traced, at tiny scale
//! fix-perfbench repeat [--runs <n>] [--seed <first>] [--seconds <s>] [--out <file>] [--dir <out>]
//! fix-perfbench spec --json | --readme     BENCHMARK.json / the README metric table
//! ```
//!
//! A run prints one line per metric (name, value, unit, sample count) and,
//! last, the JSON object the driver reads. It exits non-zero when any op
//! failed or a workload-validity assert did not hold.

use std::path::PathBuf;
use std::process::ExitCode;

use fix_perfbench::spec::{self, Workload};
use fix_perfbench::{repeat, RunArgs};

struct Cli {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    runs: usize,
    file: Option<PathBuf>,
    json: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        smoke: false,
        // The driver runs the command from the root of a checkout and the
        // benchmark may write only inside it.
        out: PathBuf::from("bench/out"),
        runs: 4,
        file: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cli.traced = value()? == "1",
            "--dir" => cli.out = PathBuf::from(value()?),
            "--runs" => cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => cli.file = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--json" => cli.json = true,
            "--readme" => cli.json = false,
            "repeat" | "spec" if cli.command.is_none() => cli.command = Some(a),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(cli)
}

fn run_one(cli: &Cli, workload: Workload, traced: bool) -> bool {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced,
        smoke: cli.smoke,
    };
    match fix_perfbench::run(&args, &cli.out) {
        Ok(report) => {
            println!("{}", report.result_line());
            report.correct()
        }
        Err(e) => {
            eprintln!("{} failed: {e}", workload.name());
            false
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (cli.command.as_deref(), cli.workload) {
        (Some("spec"), _) => {
            if cli.json {
                print!("{}", spec::benchmark_json().pretty());
            } else {
                print!("{}", spec::readme_table());
            }
            true
        }
        (Some("repeat"), _) => repeat::run(
            cli.runs,
            cli.seed,
            cli.seconds,
            cli.smoke,
            &cli.out,
            cli.file.as_deref(),
        ),
        (_, Some(workload)) => run_one(&cli, workload, cli.traced),
        (_, None) if cli.smoke => Workload::ALL
            .into_iter()
            .all(|w| run_one(&cli, w, false) && run_one(&cli, w, true)),
        (_, None) => {
            eprintln!(
                "--workload <name> is required (one of: {})",
                Workload::ALL.map(Workload::name).join(", ")
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
