//! The one life cycle every workload runs — generate, build, save, open,
//! read passes, zero-hit probes, a commit stream, drop and restart — over
//! whichever database facade the workload measures. `embedded.rs`
//! implements `Subject` for `FixDatabase`, `served.rs` for
//! `ShardedDatabase` behind a loopback server; the workloads differ in
//! corpus, configuration and in which phase carries the weight
//! (`plan.rs`), not in code path.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fix_core::{DocId, FixDatabase, FixError, FixOptions, QueryOutcome};
use fix_datagen::naive::NaiveStore;
use fix_datagen::util::rng;
use rand::Rng;

use crate::inputs::{self, Corpus, OpList};
use crate::plan::Plan;
use crate::report::Report;
use crate::stats::{band_percentile, median, peak_rss_mb, timed, Answer};

/// Width, in percentile points, of the rank bands the latency metrics
/// average over (see `stats::band_percentile`): the p50s are midmeans
/// (the ops between the quartiles), p95 the ops ranked 92.5–97.5 %.
pub const P50_BAND: f64 = 50.0;
pub const P95_BAND: f64 = 5.0;

/// Ops of the op list (and probes) run at each read point of a commit
/// round. The issue proposed four fixed queries; the Table-2 queries'
/// cost follows the seed's pruning power (edge weights depend on intern
/// order) and moved `queries_per_s` by 18 % between seeds, so the reads
/// walk the whole stratified op list instead (291 reads cover it 1.2x).
pub const READS_PER_POINT: usize = 3;

/// What the life cycle needs from the database under test.
pub trait Subject: Sized {
    /// Parses every document into a fresh database at `path` and builds
    /// its index: what `build_mb_per_s` times.
    fn build_at(path: &Path, corpus: &Corpus, plan: &Plan) -> Result<Self, FixError>;
    fn save_to(&self, path: &Path) -> Result<(), FixError>;
    /// Opens what is saved at `path` the way the workload's users would.
    fn open_at(path: &Path, plan: &Plan) -> Result<Self, FixError>;
    /// One query through the facade's own one-shot `query`.
    fn results(&self, query: &str) -> Result<Vec<(u32, u32)>, FixError>;
    /// Documents ever added (removed ones keep their slot).
    fn docs(&self) -> usize;
    /// Copies everything a restart would find at `from` to `to`.
    fn copy_files(from: &Path, to: &Path) -> std::io::Result<()>;
    fn remove_files(path: &Path);
    /// Bytes a restart would find at `path`.
    fn disk_bytes(path: &Path) -> u64;

    /// The read phase over the workload's access path: the warm-up pass
    /// (`warm_up`), then the timed passes over ops and probes.
    fn read_phase(&self, plan: &Plan, ops: &OpList, report: &mut Report)
        -> Result<Reads, FixError>;
    /// One round of the commit stream on a database opened at a copy of
    /// the image.
    fn write_round(
        &mut self,
        plan: &Plan,
        corpus: &Corpus,
        adds: &[String],
        reads: &[&str],
        probes: &[String],
    ) -> Result<Round, FixError>;
    /// Ends the last round: leaves at `path` what a restart may rely on
    /// and drops the database *without* a checkpoint where it has a log.
    fn crash(self, path: &Path) -> Result<(), FixError>;
    /// After the last restart: checkpoint and integrity-check the files.
    fn checkpoint_verifies(&self) -> Result<bool, FixError>;

    fn answer(&self, query: &str) -> Result<Answer, FixError> {
        Ok(Answer::of(self.results(query)?.into_iter()))
    }
}

pub fn hits(out: &QueryOutcome) -> impl Iterator<Item = (u32, u32)> + '_ {
    out.results.iter().map(|&(d, n)| (d.0, n.0))
}

/// The in-memory reference engine over `corpus`.
pub fn reference_db(corpus: &Corpus, opts: &FixOptions) -> Result<FixDatabase, FixError> {
    let mut db = FixDatabase::in_memory();
    for d in &corpus.docs {
        db.add_xml(d)?;
    }
    db.build(opts.clone())?;
    Ok(db)
}

pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| dir_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

/// Prints how long each phase of a run took (not a metric: it is how a
/// reader checks the run against its time budget).
#[derive(Default)]
pub struct PhaseClock(Option<Instant>);

impl PhaseClock {
    pub fn lap(&mut self, phase: &str) {
        let now = Instant::now();
        if let Some(then) = self.0 {
            println!("phase: {phase} took {:.2} s", (now - then).as_secs_f64());
        }
        self.0 = Some(now);
    }
}

// ------------------------------------------------------------ set-up rounds

/// What the set-up rounds leave behind.
pub struct Setup<D> {
    pub corpus: Corpus,
    /// What the last round saved: the image every commit round starts from.
    pub image: PathBuf,
    /// The database opened from `image`.
    pub db: D,
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    save_s: Vec<f64>,
    open_s: Vec<f64>,
}

impl<D> Setup<D> {
    /// Reports the four metrics the rounds measured; `warm_s` is the one
    /// warm-up pass that completes `setup_s`.
    fn report(&self, warm_s: f64, report: &mut Report) {
        let r = self.build_s.len();
        let round_s: Vec<f64> = (0..r)
            .map(|i| self.gen_s[i] + self.build_s[i] + self.save_s[i] + self.open_s[i])
            .collect();
        let mb = self.corpus.raw_bytes as f64 / 1e6;
        report.metric(
            "setup_s",
            median(&round_s) + warm_s,
            &format!("median of {r} rounds + 1 warm-up pass of {warm_s:.3} s"),
        );
        report.metric(
            "build_mb_per_s",
            mb / median(&self.build_s),
            &format!("{r} builds of {mb:.3} MB"),
        );
        report.metric("save_ms", median(&self.save_s) * 1e3, &format!("{r} saves"));
        report.metric("open_ms", median(&self.open_s) * 1e3, &format!("{r} opens"));
    }
}

/// Runs the set-up rounds: generate → build → save → open through the
/// first answer, each timed, each round on a fresh path.
pub fn setup_rounds<D: Subject>(
    plan: &Plan,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<Setup<D>, FixError> {
    let md = plan.corpus.md_query();
    let (mut gen_s, mut build_s, mut save_s, mut open_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Corpus, PathBuf, D)> = None;
    for round in 0..plan.setup_rounds {
        if let Some((_, old, db)) = last.take() {
            drop(db);
            D::remove_files(&old);
        }
        let path = dir.join(format!("image-{round}.fixdb"));
        D::remove_files(&path);
        let (corpus, g) = timed(|| inputs::corpus(plan.corpus, seed, plan.scale));
        let (db, b) = timed(|| D::build_at(&path, &corpus, plan));
        let db = db?;
        let (saved, s) = timed(|| db.save_to(&path));
        saved?;
        drop(db);
        let (opened, o) = timed(|| -> Result<(D, Answer), FixError> {
            let db = D::open_at(&path, plan)?;
            let first = db.answer(md)?;
            Ok((db, first))
        });
        let (db, first) = opened?;
        report.tally.check(first.hits > 0, || {
            format!("first answer to {md} after open is empty")
        });
        gen_s.push(g);
        build_s.push(b);
        save_s.push(s);
        open_s.push(o);
        last = Some((corpus, path, db));
    }
    let (corpus, image, db) = last.expect("at least one set-up round");
    Ok(Setup {
        corpus,
        image,
        db,
        gen_s,
        build_s,
        save_s,
        open_s,
    })
}

// --------------------------------------------------------------- read phase

/// What a read phase measured.
pub struct Reads {
    pub warm_s: f64,
    pub answers_fnv: u64,
    /// Ops of a pass / median pass wall.
    pub ops_per_s: f64,
    /// Each op's (each probe's) median latency across passes.
    pub per_op_us: Vec<f64>,
    pub per_probe_us: Vec<f64>,
    /// How many passes, on what, for the sample-count column.
    pub samples: String,
    pub probe_samples: String,
}

/// Each position's median across passes (or rounds).
pub fn per_position<T: AsRef<[f64]>>(lat_us: &[T]) -> Vec<f64> {
    (0..lat_us[0].as_ref().len())
        .map(|i| median(&lat_us.iter().map(|p| p.as_ref()[i]).collect::<Vec<_>>()))
        .collect()
}

/// Warm-up pass: every answer compared byte for byte with the reference
/// engine's, every probe required to return nothing. Returns the pass's
/// seconds and the answers' fingerprint.
pub fn warm_up(
    ops: &OpList,
    report: &mut Report,
    mut exec: impl FnMut(&str) -> Result<Answer, String>,
) -> (f64, u64) {
    let t = Instant::now();
    let mut answers = Vec::with_capacity(ops.ops.len());
    for op in &ops.ops {
        match exec(&op.query) {
            Ok(a) => {
                report.tally.check(a == op.expect, || {
                    format!(
                        "{}: {} hits (fnv {:016x}), reference {} (fnv {:016x})",
                        op.query, a.hits, a.fnv, op.expect.hits, op.expect.fnv
                    )
                });
                answers.push(a);
            }
            Err(e) => report.tally.check(false, || format!("{}: {e}", op.query)),
        }
    }
    for p in &ops.probes {
        match exec(p) {
            Ok(a) => report.tally.check(a.hits == 0, || {
                format!("probe {p} returned {} hits", a.hits)
            }),
            Err(e) => report.tally.check(false, || format!("probe {p}: {e}")),
        }
    }
    (
        t.elapsed().as_secs_f64(),
        inputs::answers_fnv(answers.into_iter()),
    )
}

// ------------------------------------------------------------ commit stream

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Add,
    Remove,
}

pub enum Commit<'a> {
    Add(&'a str),
    Remove(DocId),
}

/// The commit stream both facades replay: add-one-document while no more
/// than `window` added documents are live (window 0: while only the
/// corpus's own documents are, which are then the oldest), else
/// remove-oldest. After the first `window` adds it alternates, so the
/// live size stays constant.
pub struct Stream<'a> {
    adds: std::slice::Iter<'a, String>,
    fifo: VecDeque<(DocId, u64)>,
    target: usize,
    pub live_raw_bytes: u64,
    pub added_bytes: u64,
}

impl<'a> Stream<'a> {
    pub fn new(corpus: &Corpus, adds: &'a [String], window: usize) -> Self {
        let fifo: VecDeque<(DocId, u64)> = if window == 0 {
            corpus
                .docs
                .iter()
                .enumerate()
                .map(|(i, d)| (DocId(i as u32), d.len() as u64))
                .collect()
        } else {
            VecDeque::new()
        };
        Stream {
            adds: adds.iter(),
            target: if window == 0 { fifo.len() } else { window },
            fifo,
            live_raw_bytes: corpus.raw_bytes,
            added_bytes: 0,
        }
    }

    pub fn next_commit(&mut self) -> Commit<'a> {
        if self.fifo.len() > self.target {
            let (oldest, bytes) = self.fifo.pop_front().expect("non-empty");
            self.live_raw_bytes -= bytes;
            Commit::Remove(oldest)
        } else {
            Commit::Add(
                self.adds
                    .next()
                    .expect("the stream was given enough documents"),
            )
        }
    }

    /// Records the id the engine gave the document just added.
    pub fn added(&mut self, id: DocId, xml: &str) {
        self.fifo.push_back((id, xml.len() as u64));
        self.live_raw_bytes += xml.len() as u64;
        self.added_bytes += xml.len() as u64;
    }

    /// Documents the stream needs for `commits` commits.
    pub fn adds_needed(commits: usize, window: usize) -> usize {
        commits / 2 + window + 1
    }
}

/// What one round of the commit stream measured and counted. A facade
/// without a log or delta tiers leaves those counts at zero.
#[derive(Default)]
pub struct Round {
    pub steps: Vec<Step>,
    pub commit_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub probe_us: Vec<f64>,
    pub read_answers: Vec<Answer>,
    pub seals: u64,
    pub tier_merges: u64,
    pub compactions: u64,
    pub compact_ns: u64,
    pub levels: u64,
    /// Scan sources (base + frozen runs + active run) at each read point.
    pub sources: Vec<f64>,
    pub live_docs: usize,
    pub live_raw_bytes: u64,
    pub added_bytes: u64,
}

impl Round {
    pub fn commits_per_s(&self) -> f64 {
        self.commit_us.len() as f64 / (self.commit_us.iter().sum::<f64>() / 1e6)
    }

    pub fn of(&self, step: Step) -> Vec<f64> {
        self.steps
            .iter()
            .zip(&self.commit_us)
            .filter(|(s, _)| **s == step)
            .map(|(_, us)| *us)
            .collect()
    }

    /// The counts that must repeat exactly from round to round.
    pub fn counts(&self) -> (u64, u64, u64, u64, usize, u64) {
        (
            self.seals,
            self.tier_merges,
            self.compactions,
            self.levels,
            self.live_docs,
            self.live_raw_bytes,
        )
    }
}

/// The documents live after a round, `(engine id, xml)` ascending: the
/// stream is deterministic, so this is recomputed rather than recorded.
pub fn live_documents<'a>(
    corpus: &'a Corpus,
    adds: &'a [String],
    window: usize,
    steps: &[Step],
) -> Vec<(u32, &'a str)> {
    let n_added = steps.iter().filter(|s| **s == Step::Add).count();
    let n_removed = steps.len() - n_added;
    let base = corpus.docs.len();
    // Removal order: the corpus's own documents first when they are the
    // oldest (window 0), else only added ones.
    let (removed_base, removed_added) = if window == 0 {
        (n_removed.min(base), n_removed.saturating_sub(base))
    } else {
        (0, n_removed)
    };
    let kept = corpus
        .docs
        .iter()
        .enumerate()
        .skip(removed_base)
        .map(|(i, d)| (i as u32, d.as_str()));
    let added = adds
        .iter()
        .enumerate()
        .take(n_added)
        .skip(removed_added)
        .map(|(i, d)| ((base + i) as u32, d.as_str()));
    kept.chain(added).collect()
}

/// Compares a seeded sample of `queries` (distinct) with the naive oracle over the
/// live documents `(engine id, xml)`, ascending by id.
pub fn naive_check(
    live: &[(u32, &str)],
    queries: &[&str],
    sample: usize,
    seed: u64,
    report: &mut Report,
    mut exec: impl FnMut(&str) -> Result<Vec<(u32, u32)>, FixError>,
) {
    let mut naive = NaiveStore::new();
    for (_, xml) in live {
        naive.add_xml(xml).expect("generated XML parses");
    }
    let mut distinct = queries.to_vec();
    let mut r = rng(inputs::sub_seed(seed, 6), 0x0AC1E);
    for _ in 0..sample.min(distinct.len()) {
        let q = distinct.swap_remove(r.gen_range(0..distinct.len()));
        let want: Vec<(u32, u32)> = naive
            .query_str(q)
            .expect("op-list queries parse")
            .into_iter()
            .map(|(slot, node)| (live[slot as usize].0, node))
            .collect();
        match exec(q) {
            Ok(got) => report.tally.check(got == want, || {
                format!("{q}: {} hits, naive oracle {}", got.len(), want.len())
            }),
            Err(e) => report.tally.check(false, || format!("{q}: {e}")),
        }
    }
}

// ------------------------------------------------------------ the life cycle

/// The whole untraced run of a workload over subject `D`.
pub fn run<D: Subject>(
    plan: &Plan,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), FixError> {
    let mut clock = PhaseClock::default();
    clock.lap("start");
    let setup = setup_rounds::<D>(plan, seed, dir, report)?;
    clock.lap("set-up rounds");
    println!(
        "corpus: {} document(s), {} raw bytes; {} bytes saved",
        setup.corpus.docs.len(),
        setup.corpus.raw_bytes,
        D::disk_bytes(&setup.image)
    );

    let reference = reference_db(&setup.corpus, &plan.reference_opts)?;
    let ops = inputs::op_list(&reference, plan.corpus, seed, plan.ops, plan.probes);
    drop(reference);
    println!("{}", ops.summary());
    let queries: Vec<&str> = ops.ops.iter().map(|o| o.query.as_str()).collect();
    clock.lap("reference engine and op list");

    let reads = setup.db.read_phase(plan, &ops, report)?;
    println!("answers_fnv: {:016x}", reads.answers_fnv);
    setup.report(reads.warm_s, report);
    clock.lap("read passes");

    // Write phase: the database the reads ran on is closed; every round
    // opens a fresh copy of its image and replays the identical stream.
    let Setup {
        corpus, image, db, ..
    } = setup;
    drop(db);
    let adds = inputs::commit_docs(
        plan.corpus,
        seed,
        Stream::adds_needed(plan.commits_per_round, plan.window),
    );
    let survivor = dir.join("survivor.fixdb");
    let mut rounds: Vec<Round> = Vec::with_capacity(plan.commit_rounds);
    let mut before_drop = None;
    for round in 0..plan.commit_rounds {
        D::remove_files(&survivor);
        D::copy_files(&image, &survivor)?;
        let mut db = D::open_at(&survivor, plan)?;
        let r = db.write_round(plan, &corpus, &adds, &queries, &ops.probes)?;
        report
            .tally
            .passed((r.commit_us.len() + r.read_answers.len()) as u64);
        if let Some(first) = rounds.first() {
            report.tally.check(r.counts() == first.counts(), || {
                format!(
                    "round {round} counted {:?}, round 0 {:?}",
                    r.counts(),
                    first.counts()
                )
            });
            report
                .tally
                .check(r.read_answers == first.read_answers, || {
                    format!("round {round} read different answers than round 0")
                });
        }
        rounds.push(r);
        if round + 1 == plan.commit_rounds {
            let answers: Vec<Answer> = plan
                .corpus
                .table2()
                .iter()
                .map(|q| db.answer(q))
                .collect::<Result<_, _>>()?;
            before_drop = Some((db.docs(), answers));
            db.crash(&survivor)?;
        }
    }
    let (docs_before, answers_before) = before_drop.expect("at least one commit round");
    let disk_bytes = D::disk_bytes(&survivor);
    let last = rounds.last().expect("at least one commit round");
    clock.lap("commit rounds");

    // Restart from copies of what the crash left, through the first answer.
    let md = plan.corpus.md_query();
    let copy = dir.join("restart.fixdb");
    let mut recover_s = Vec::with_capacity(plan.recover_repeats);
    let mut recovered = None;
    for _ in 0..plan.recover_repeats {
        drop(recovered.take());
        D::remove_files(&copy);
        D::copy_files(&survivor, &copy)?;
        let (opened, s) = timed(|| -> Result<D, FixError> {
            let db = D::open_at(&copy, plan)?;
            db.answer(md)?;
            Ok(db)
        });
        let db = opened?;
        recover_s.push(s);
        report.tally.check(db.docs() == docs_before, || {
            format!(
                "restart found {} documents, {docs_before} were acknowledged",
                db.docs()
            )
        });
        for (q, want) in plan.corpus.table2().iter().zip(&answers_before) {
            let got = db.answer(q)?;
            report.tally.check(got == *want, || {
                format!("{q} after the restart differs from before the drop")
            });
        }
        recovered = Some(db);
    }
    let recovered = recovered.expect("at least one restart");
    clock.lap("restarts");

    // Reads between commits are what churn reports; elsewhere the passes.
    let (qps, per_op, per_probe, samples, probe_samples) = if plan.read_every > 0 {
        let read_us: Vec<&Vec<f64>> = rounds.iter().map(|r| &r.read_us).collect();
        let probe_us: Vec<&Vec<f64>> = rounds.iter().map(|r| &r.probe_us).collect();
        let round_s: Vec<f64> = read_us
            .iter()
            .map(|r| r.iter().sum::<f64>() / 1e6)
            .collect();
        let between = format!("{} rounds, between commits", rounds.len());
        (
            read_us[0].len() as f64 / median(&round_s),
            per_position(&read_us),
            per_position(&probe_us),
            between.clone(),
            between,
        )
    } else {
        (
            reads.ops_per_s,
            reads.per_op_us,
            reads.per_probe_us,
            reads.samples,
            reads.probe_samples,
        )
    };
    let add_us: Vec<Vec<f64>> = rounds.iter().map(|r| r.of(Step::Add)).collect();
    let add_per_pos = per_position(&add_us);
    let rounds_cps: Vec<f64> = rounds.iter().map(Round::commits_per_s).collect();

    report.metric(
        "recover_ms",
        median(&recover_s) * 1e3,
        &format!(
            "{} restarts after {} commits",
            recover_s.len(),
            last.commit_us.len()
        ),
    );
    report.metric(
        "queries_per_s",
        qps,
        &format!("{} ops x {samples}", per_op.len()),
    );
    report.metric(
        "query_p50_us",
        band_percentile(&per_op, 50.0, P50_BAND),
        &format!("{} ops x {samples}", per_op.len()),
    );
    report.metric(
        "query_p95_us",
        band_percentile(&per_op, 95.0, P95_BAND),
        &format!(
            "{} ops x {samples}, {} beyond",
            per_op.len(),
            per_op.len() / 20
        ),
    );
    report.metric(
        "miss_p50_us",
        band_percentile(&per_probe, 50.0, P50_BAND),
        &format!("{} probes x {probe_samples}", per_probe.len()),
    );
    report.metric(
        "commits_per_s",
        median(&rounds_cps),
        &format!("{} commits x {} rounds", last.commit_us.len(), rounds.len()),
    );
    report.metric(
        "commit_p50_us",
        median(&add_per_pos),
        &format!(
            "{} add commits x {} rounds",
            add_per_pos.len(),
            rounds.len()
        ),
    );
    report.metric(
        "disk_bytes_per_raw_byte",
        disk_bytes as f64 / last.live_raw_bytes as f64,
        &format!(
            "{disk_bytes} bytes on disk, {} live raw bytes",
            last.live_raw_bytes
        ),
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "VmHWM");
    println!(
        "commit rounds: {} seals, {} tier merges, {} compactions, {} levels, {} live documents — identical in every round",
        last.seals, last.tier_merges, last.compactions, last.levels, last.live_docs
    );

    // After the last restart: checkpoint, verify the files, and compare a
    // sample with the naive oracle over the live documents.
    report.tally.check(recovered.checkpoint_verifies()?, || {
        "checkpoint after the restart does not verify".to_string()
    });
    let live = live_documents(&corpus, &adds, plan.window, &last.steps);
    naive_check(
        &live,
        &ops.distinct(),
        plan.naive_sample,
        seed,
        report,
        |q| recovered.results(q),
    );
    clock.lap("checkpoint, verify, naive oracle");
    drop(recovered);
    for path in [&image, &survivor, &copy] {
        D::remove_files(path);
    }
    Ok(())
}
