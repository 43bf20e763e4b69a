//! What each workload runs: corpus, index configuration and the amount
//! of work in every phase. All of it is fixed by `(workload, --seconds,
//! --smoke)`; nothing is sized by a clock while the run measures, so two
//! runs with the same arguments execute the same ops in the same order.

use fix_core::{FixOptions, StorageMode};

use crate::inputs::CorpusKind;
use crate::spec::{Workload, RUN_SECONDS};

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// Tiny scales and 2 passes: proves the harness runs, measures nothing.
    /// Asserts that need the full scale are not enforced.
    pub smoke: bool,
    pub corpus: CorpusKind,
    pub scale: f64,
    /// Options the database under test is built with.
    pub opts: FixOptions,
    /// Options of the reference engine (in-memory, unclustered) whose
    /// answers every other engine must reproduce byte for byte.
    pub reference_opts: FixOptions,
    /// `Some(d)`: open the saved file under a fresh pool of 1/d of its
    /// pages (the memory-pressure configuration).
    pub pool_divisor: Option<u64>,
    pub ops: usize,
    pub probes: usize,
    /// Repeats of generate → build → save → open; the one-shot metrics
    /// are medians over these.
    pub setup_rounds: usize,
    /// Timed passes over the op list (after one untimed warm-up pass).
    pub query_passes: usize,
    /// Timed passes over the probe list.
    pub probe_passes: usize,
    /// Rounds of the commit stream, each from a fresh copy of the image.
    pub commit_rounds: usize,
    /// One-op commits per round (adds and removes together).
    pub commits_per_round: usize,
    /// Documents the stream adds before it starts removing the oldest
    /// (0: the corpus's own documents are the oldest).
    pub window: usize,
    /// Reads (the Table-2 queries and as many probes) every this many
    /// commits; 0 for none.
    pub read_every: usize,
    pub recover_repeats: usize,
    /// Queries compared with the naive oracle.
    pub naive_sample: usize,
}

/// `n` scaled by `--seconds / run_seconds`, never below `floor`.
fn scaled(n: usize, seconds: u32, floor: usize) -> usize {
    ((n as f64 * f64::from(seconds) / f64::from(RUN_SECONDS)).round() as usize).max(floor)
}

impl Plan {
    pub fn new(workload: Workload, seconds: u32, smoke: bool) -> Plan {
        let treebank = FixOptions::large_document(6);
        let tcmd = FixOptions::collection();
        let mut p = match workload {
            Workload::TwigResident => Plan {
                corpus: CorpusKind::Treebank,
                scale: 4.0,
                opts: treebank.clone(),
                reference_opts: treebank,
                pool_divisor: None,
                query_passes: scaled(7, seconds, 5),
                probe_passes: scaled(2000, seconds, 50),
                commit_rounds: 5,
                commits_per_round: 360,
                window: 8,
                read_every: 0,
                ..Plan::base(workload)
            },
            Workload::TwigPaged => Plan {
                corpus: CorpusKind::Treebank,
                scale: 4.0,
                opts: FixOptions::builder()
                    .depth_limit(6)
                    .clustered(true)
                    .storage(StorageMode::Paged)
                    .build(),
                reference_opts: treebank,
                pool_divisor: Some(4),
                query_passes: scaled(5, seconds, 5),
                probe_passes: scaled(2000, seconds, 50),
                commit_rounds: 5,
                commits_per_round: 360,
                window: 8,
                read_every: 0,
                ..Plan::base(workload)
            },
            Workload::ServeTcmd => Plan {
                corpus: CorpusKind::Tcmd,
                scale: 6.0,
                opts: tcmd.clone(),
                reference_opts: tcmd,
                pool_divisor: None,
                query_passes: scaled(24, seconds, 5),
                probe_passes: scaled(400, seconds, 20),
                commit_rounds: 5,
                commits_per_round: 20_000,
                setup_rounds: 9,
                window: 0,
                read_every: 0,
                ..Plan::base(workload)
            },
            Workload::ChurnTcmd => Plan {
                corpus: CorpusKind::Tcmd,
                scale: 4.0,
                opts: tcmd.clone(),
                reference_opts: tcmd,
                pool_divisor: None,
                query_passes: 5,
                probe_passes: 50,
                commit_rounds: scaled(7, seconds, 5),
                commits_per_round: 25_000,
                setup_rounds: 9,
                window: 0,
                read_every: 256,
                ..Plan::base(workload)
            },
        };
        if smoke {
            p.smoke = true;
            p.scale = match p.corpus {
                CorpusKind::Treebank => 0.1,
                CorpusKind::Tcmd => 0.15,
            };
            p.ops = 24;
            p.probes = 8;
            p.setup_rounds = 2;
            p.query_passes = 2;
            p.probe_passes = 4;
            p.commit_rounds = 2;
            p.commits_per_round = p.commits_per_round.min(1200);
            p.read_every = p.read_every.min(64);
            p.recover_repeats = 2;
            p.naive_sample = 8;
        }
        p
    }

    fn base(workload: Workload) -> Plan {
        Plan {
            workload,
            smoke: false,
            corpus: CorpusKind::Tcmd,
            scale: 1.0,
            opts: FixOptions::collection(),
            reference_opts: FixOptions::collection(),
            pool_divisor: None,
            ops: 240,
            probes: 64,
            setup_rounds: 5,
            query_passes: 5,
            probe_passes: 50,
            commit_rounds: 5,
            commits_per_round: 1000,
            window: 0,
            read_every: 0,
            recover_repeats: 5,
            naive_sample: 32,
        }
    }
}
