//! `FixDatabase` as the life cycle's subject: `twig_resident`,
//! `twig_paged` and `churn_tcmd`. Reads go through one `QuerySession` on
//! one thread; commits through `FixDatabase::write` and its WAL, with
//! reads between them through `FixDatabase::query`.

use std::path::Path;
use std::time::Instant;

use fix_core::{BufferPool, Durability, FixDatabase, FixError, WriteBatch};

use crate::inputs::{Corpus, OpList};
use crate::lifecycle::{
    dir_bytes, hits, per_position, warm_up, Commit, Reads, Round, Step, Stream, Subject,
    READS_PER_POINT,
};
use crate::plan::Plan;
use crate::report::Report;
use crate::stats::{median, Answer};

/// Frames in the pool a paged file is opened under: 1/`divisor` of the
/// file's 8 KiB pages.
pub fn pool_frames(path: &Path, divisor: u64) -> usize {
    let pages = std::fs::metadata(path).map_or(0, |m| m.len()) / fix_storage::PAGE_SIZE as u64;
    (pages / divisor).max(8) as usize
}

/// Runs `passes` timed passes of `exec` over `queries`, timing only the
/// call; `check` sees every answer outside the timed interval. Returns
/// `lat_us[pass][op]`.
pub fn run_passes<T>(
    queries: &[&str],
    passes: usize,
    mut exec: impl FnMut(&str) -> T,
    mut check: impl FnMut(usize, T),
) -> Vec<Vec<f64>> {
    (0..passes)
        .map(|_| {
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let t = Instant::now();
                    let out = exec(q);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    check(i, out);
                    us
                })
                .collect()
        })
        .collect()
}

impl Subject for FixDatabase {
    fn build_at(path: &Path, corpus: &Corpus, plan: &Plan) -> Result<Self, FixError> {
        let mut db = FixDatabase::open(path)?;
        for d in &corpus.docs {
            db.add_xml(d)?;
        }
        db.build(plan.opts.clone())?;
        Ok(db)
    }

    fn save_to(&self, _bound_path: &Path) -> Result<(), FixError> {
        self.save()
    }

    /// Plainly, or under a fresh pool a fraction of the file's size.
    /// Commits are acknowledged under `Durability::Async` (README,
    /// "Flush policy").
    fn open_at(path: &Path, plan: &Plan) -> Result<Self, FixError> {
        let mut db = match plan.pool_divisor {
            None => FixDatabase::open(path)?,
            Some(d) => FixDatabase::open_shared(path, &BufferPool::shared(pool_frames(path, d)))?,
        };
        db.set_durability(Durability::Async);
        Ok(db)
    }

    fn results(&self, query: &str) -> Result<Vec<(u32, u32)>, FixError> {
        Ok(hits(&self.query(query)?).collect())
    }

    fn docs(&self) -> usize {
        self.len()
    }

    /// The image and, when present, its WAL directory.
    fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::copy(from, to)?;
        let (wal_from, wal_to) = (fix_storage::wal_dir(from), fix_storage::wal_dir(to));
        if wal_from.is_dir() {
            std::fs::create_dir_all(&wal_to)?;
            for entry in std::fs::read_dir(&wal_from)? {
                let entry = entry?;
                std::fs::copy(entry.path(), wal_to.join(entry.file_name()))?;
            }
        }
        Ok(())
    }

    fn remove_files(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_dir_all(fix_storage::wal_dir(path)).ok();
    }

    fn disk_bytes(path: &Path) -> u64 {
        dir_bytes(path) + dir_bytes(&fix_storage::wal_dir(path))
    }

    /// One `QuerySession`, one thread.
    fn read_phase(
        &self,
        plan: &Plan,
        ops: &OpList,
        report: &mut Report,
    ) -> Result<Reads, FixError> {
        let queries: Vec<&str> = ops.ops.iter().map(|o| o.query.as_str()).collect();
        let probes: Vec<&str> = ops.probes.iter().map(String::as_str).collect();
        let session = self.session()?;
        let (warm_s, answers_fnv) = warm_up(ops, report, |q| {
            session
                .query(q)
                .map(|o| Answer::of(hits(&o)))
                .map_err(|e| e.to_string())
        });
        let mut wrong = 0u64;
        let read_us = run_passes(
            &queries,
            plan.query_passes,
            |q| session.query(q).map(|o| o.results.len() as u64),
            |i, got| wrong += u64::from(got.ok() != Some(ops.ops[i].expect.hits)),
        );
        let probe_us = run_passes(
            &probes,
            plan.probe_passes,
            |q| session.query(q).map(|o| o.results.len() as u64),
            |_, got| wrong += u64::from(got.ok() != Some(0)),
        );
        report
            .tally
            .passed((plan.query_passes * queries.len() + plan.probe_passes * probes.len()) as u64);
        report.tally.check(wrong == 0, || {
            format!("{wrong} timed queries returned a different hit count than the warm-up")
        });
        let pass_s: Vec<f64> = read_us
            .iter()
            .map(|p| p.iter().sum::<f64>() / 1e6)
            .collect();
        Ok(Reads {
            warm_s,
            answers_fnv,
            ops_per_s: queries.len() as f64 / median(&pass_s),
            per_op_us: per_position(&read_us),
            per_probe_us: per_position(&probe_us),
            samples: format!("{} passes in 1 session", plan.query_passes),
            probe_samples: format!("{} passes in 1 session", plan.probe_passes),
        })
    }

    /// One-op `WriteBatch` commits; every `read_every` commits the next
    /// `READS_PER_POINT` ops of the op list and as many probes run through
    /// `FixDatabase::query` (compiled every call, no plan cache).
    fn write_round(
        &mut self,
        plan: &Plan,
        corpus: &Corpus,
        adds: &[String],
        reads: &[&str],
        probes: &[String],
    ) -> Result<Round, FixError> {
        let mut stream = Stream::new(corpus, adds, plan.window);
        let mut r = Round::default();
        let (mut next_read, mut next_probe) = (0usize, 0usize);
        // Compactions in the image's lineage are not this round's; the
        // delta's merge counter restarts at each compaction, so it is
        // folded as it goes.
        let (compactions_before, compact_ns_before) =
            self.index().expect("built").compaction_stats();
        let seals_before = self.wal_stats().map_or(0, |w| w.seals);
        let mut last_merges = 0u64;
        for k in 0..plan.commits_per_round {
            let mut batch = WriteBatch::new();
            let commit = stream.next_commit();
            match commit {
                Commit::Add(xml) => batch.add_xml(xml),
                Commit::Remove(oldest) => batch.remove_document(oldest),
            };
            let t = Instant::now();
            let ids = self.write(batch)?;
            r.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
            r.steps.push(match commit {
                Commit::Add(xml) => {
                    stream.added(ids[0], xml);
                    Step::Add
                }
                Commit::Remove(_) => Step::Remove,
            });
            let idx = self.index().expect("built");
            let d = idx.delta_stats();
            let (compactions, compact_ns) = idx.compaction_stats();
            if compactions - compactions_before != r.compactions {
                last_merges = 0;
            }
            r.tier_merges += d.run_merges.saturating_sub(last_merges);
            last_merges = d.run_merges;
            (r.compactions, r.compact_ns) = (
                compactions - compactions_before,
                compact_ns - compact_ns_before,
            );
            r.levels = d.levels;

            if plan.read_every > 0 && (k + 1) % plan.read_every == 0 {
                r.sources
                    .push((1 + d.frozen_runs + u64::from(d.tail_entries > 0)) as f64);
                for _ in 0..READS_PER_POINT {
                    let q = reads[next_read % reads.len()];
                    next_read += 1;
                    let t = Instant::now();
                    let out = self.query(q)?;
                    r.read_us.push(t.elapsed().as_secs_f64() * 1e6);
                    r.read_answers.push(Answer::of(hits(&out)));
                }
                for _ in 0..READS_PER_POINT {
                    let p = &probes[next_probe % probes.len()];
                    next_probe += 1;
                    let t = Instant::now();
                    let out = self.query(p)?;
                    r.probe_us.push(t.elapsed().as_secs_f64() * 1e6);
                    r.read_answers.push(Answer::of(hits(&out)));
                }
            }
        }
        r.seals = self.wal_stats().map_or(0, |w| w.seals) - seals_before;
        r.live_docs = self.len() - self.index().expect("built").removed_count();
        (r.live_raw_bytes, r.added_bytes) = (stream.live_raw_bytes, stream.added_bytes);
        Ok(r)
    }

    /// Dropped without a save: the image the round started from plus what
    /// the WAL holds is all that is left of the round's commits. The OS
    /// cache stays intact (the `torture` binary owns SIGKILL).
    fn crash(self, _path: &Path) -> Result<(), FixError> {
        Ok(())
    }

    fn checkpoint_verifies(&self) -> Result<bool, FixError> {
        self.save()?;
        Ok(self.verify()?.is_ok())
    }
}
