//! The FIX benchmark `BENCHMARK.json` names: four fixed-work workloads,
//! thirteen end-to-end metrics every workload reports, and a traced run
//! that attributes time to each layer from outside the program.
//! `README.md` holds the definitions and the measurement rules.

pub mod embedded;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod lifecycle;
pub mod plan;
pub mod repeat;
pub mod report;
pub mod served;
pub mod spec;
pub mod stats;
pub mod trace;

use std::path::Path;

use plan::Plan;
use report::Report;
use spec::Workload;

/// One run of one workload, as the driver invokes it.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub smoke: bool,
}

/// Runs the workload with its database files under `out/run-<pid>`
/// (removed when the run ends); a traced run leaves its spans in
/// `out/trace-<workload>.json`.
pub fn run(args: &RunArgs, out: &Path) -> Result<Report, fix_core::FixError> {
    let dir = &out.join(format!("run-{}", std::process::id()));
    let plan = Plan::new(args.workload, args.seconds, args.smoke);
    let mut report = Report::new(args.workload, args.traced);
    std::fs::create_dir_all(dir)?;
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}; files under {}; {} core(s)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.smoke,
        dir.display(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let trace_path = out.join(format!("trace-{}.json", args.workload.name()));
    let outcome = match (args.workload, args.traced) {
        (_, true) => layers::run(&plan, args.seed, dir, &trace_path, &mut report),
        (Workload::ServeTcmd, false) => {
            lifecycle::run::<fix_core::ShardedDatabase>(&plan, args.seed, dir, &mut report)
        }
        (_, false) => lifecycle::run::<fix_core::FixDatabase>(&plan, args.seed, dir, &mut report),
    };
    std::fs::remove_dir_all(dir).ok();
    outcome?;
    Ok(report)
}
