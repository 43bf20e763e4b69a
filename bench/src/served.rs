//! `ShardedDatabase` behind `fix_server::serve` as the life cycle's
//! subject: `serve_tcmd`, the deployment shape. Reads come from
//! closed-loop binary-protocol connections on loopback (as many as cores,
//! never more). The sharded facade has no WAL yet (ROADMAP item 2): its
//! commits mutate shards in memory, a "crash" keeps only what was last
//! saved, and a restart reopens those shards.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fix_core::shard::{shard_path, DEFAULT_PARALLEL_MIN_DOCS};
use fix_core::{FixError, ShardRouter, ShardedDatabase};
use fix_server::{serve, Client, ClientError, ServerConfig};

use crate::inputs::{Corpus, OpList};
use crate::lifecycle::{
    dir_bytes, hits, per_position, warm_up, Commit, Reads, Round, Step, Stream, Subject,
};
use crate::plan::Plan;
use crate::report::Report;
use crate::stats::{median, Answer};

/// Hash shards under the served workload (and the shard/server probes).
pub const SHARDS: usize = 3;

/// Closed-loop connections: one per core, at most the two the issue
/// sized the workload for.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub fn server_error(e: ClientError) -> FixError {
    FixError::from(std::io::Error::other(e.to_string()))
}

pub fn connect(addr: std::net::SocketAddr) -> Result<Client, FixError> {
    let mut c = Client::connect(addr).map_err(server_error)?;
    c.set_timeout(Some(Duration::from_secs(60)))
        .map_err(server_error)?;
    Ok(c)
}

/// What `served_passes` measured: `lat_us[pass][op]`, each op's hit count
/// in the last pass, and each pass's wall seconds.
struct ServedPasses {
    lat_us: Vec<Vec<f64>>,
    hits: Vec<u64>,
    wall_s: Vec<f64>,
}

/// Timed passes of `queries` split round-robin over the connections,
/// every connection on its own thread, every pass started together.
fn served_passes(
    clients: &mut [Client],
    queries: &[&str],
    passes: usize,
) -> Result<ServedPasses, FixError> {
    let n = clients.len();
    let barrier = Barrier::new(n);
    type PerThread = (Vec<Vec<(usize, f64, u64)>>, Vec<f64>);
    let per_thread: Vec<Result<PerThread, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(passes);
                    let mut walls = Vec::with_capacity(passes);
                    // A failed connection keeps meeting the barriers (with
                    // no work) so the other thread is never left waiting.
                    let mut failed: Option<ClientError> = None;
                    for _ in 0..passes {
                        barrier.wait();
                        let start = Instant::now();
                        let mut lat = Vec::with_capacity(queries.len() / n + 1);
                        for (i, q) in queries.iter().enumerate().filter(|(i, _)| i % n == t) {
                            if failed.is_some() {
                                break;
                            }
                            let t0 = Instant::now();
                            match client.query(q) {
                                Ok(out) => lat.push((
                                    i,
                                    t0.elapsed().as_secs_f64() * 1e6,
                                    out.results.len() as u64,
                                )),
                                Err(e) => failed = Some(e),
                            }
                        }
                        // Every thread leaves the pass together, so the
                        // wall between the barriers is the slowest one's.
                        barrier.wait();
                        walls.push(start.elapsed().as_secs_f64());
                        mine.push(lat);
                    }
                    match failed {
                        Some(e) => Err(e),
                        None => Ok((mine, walls)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut out = ServedPasses {
        lat_us: vec![vec![0.0; queries.len()]; passes],
        hits: vec![0; queries.len()],
        wall_s: Vec::new(),
    };
    for (t, result) in per_thread.into_iter().enumerate() {
        let (mine, walls) = result.map_err(server_error)?;
        for (pass, lat) in mine.into_iter().enumerate() {
            for (i, us, n_hits) in lat {
                out.lat_us[pass][i] = us;
                out.hits[i] = n_hits;
            }
        }
        if t == 0 {
            out.wall_s = walls;
        }
    }
    Ok(out)
}

impl Subject for ShardedDatabase {
    fn build_at(_path: &Path, corpus: &Corpus, plan: &Plan) -> Result<Self, FixError> {
        ShardedDatabase::build(&corpus.docs, SHARDS, ShardRouter::Hash, plan.opts.clone())
    }

    fn save_to(&self, path: &Path) -> Result<(), FixError> {
        self.save(path)
    }

    fn open_at(path: &Path, _plan: &Plan) -> Result<Self, FixError> {
        ShardedDatabase::open(path)
    }

    fn results(&self, query: &str) -> Result<Vec<(u32, u32)>, FixError> {
        Ok(hits(&self.query(query)?).collect())
    }

    fn docs(&self) -> usize {
        self.doc_count()
    }

    /// The manifest and one file per shard.
    fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::copy(from, to)?;
        for i in 0..SHARDS {
            std::fs::copy(shard_path(from, i), shard_path(to, i))?;
        }
        Ok(())
    }

    fn remove_files(path: &Path) {
        std::fs::remove_file(path).ok();
        for i in 0..SHARDS {
            std::fs::remove_file(shard_path(path, i)).ok();
        }
    }

    fn disk_bytes(path: &Path) -> u64 {
        dir_bytes(path)
            + (0..SHARDS)
                .map(|i| dir_bytes(&shard_path(path, i)))
                .sum::<u64>()
    }

    /// Over the wire: `serve` on `127.0.0.1:0`, one closed-loop connection
    /// per core, the warm-up on the first of them.
    fn read_phase(
        &self,
        plan: &Plan,
        ops: &OpList,
        report: &mut Report,
    ) -> Result<Reads, FixError> {
        let queries: Vec<&str> = ops.ops.iter().map(|o| o.query.as_str()).collect();
        let probes: Vec<&str> = ops.probes.iter().map(String::as_str).collect();
        let handle = serve(
            self,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            },
        )?;
        let n_conn = connections();
        let mut clients: Vec<Client> = (0..n_conn)
            .map(|_| connect(handle.addr()))
            .collect::<Result<_, _>>()?;
        println!(
            "serving {SHARDS} hash shards of {:?} documents on {} to {n_conn} closed-loop connection(s); fan-out threshold {DEFAULT_PARALLEL_MIN_DOCS} documents",
            self.shard_doc_counts(),
            handle.addr()
        );
        let first = &mut clients[0];
        let (warm_s, answers_fnv) = warm_up(ops, report, |q| {
            first
                .query(q)
                .map(|o| Answer::of(o.results.iter().copied()))
                .map_err(|e| e.to_string())
        });

        let reads = served_passes(&mut clients, &queries, plan.query_passes)?;
        let misses = served_passes(&mut clients, &probes, plan.probe_passes)?;
        let wrong = reads
            .hits
            .iter()
            .zip(&ops.ops)
            .filter(|(got, op)| **got != op.expect.hits)
            .count()
            + misses.hits.iter().filter(|h| **h != 0).count();
        let timed = plan.query_passes * queries.len() + plan.probe_passes * probes.len();
        report.tally.passed(timed as u64);
        report.tally.check(wrong == 0, || {
            format!("{wrong} timed queries returned a different hit count than the warm-up")
        });
        let served = handle
            .registry()
            .snapshot()
            .counter(fix_obs::names::SERVER_QUERIES)
            .unwrap_or(0);
        let sent = (queries.len() + probes.len() + timed) as u64;
        report.tally.check(served == sent, || {
            format!("server counted {served} queries, the connections sent {sent}")
        });
        drop(clients);
        handle.shutdown();
        Ok(Reads {
            warm_s,
            answers_fnv,
            ops_per_s: queries.len() as f64 / median(&reads.wall_s),
            per_op_us: per_position(&reads.lat_us),
            per_probe_us: per_position(&misses.lat_us),
            samples: format!("{} passes on {n_conn} connections", plan.query_passes),
            probe_samples: format!("{} passes on {n_conn} connections", plan.probe_passes),
        })
    }

    /// The same stream as the embedded facade's, without a log to append
    /// to and without reads (the server holds no session while it runs).
    fn write_round(
        &mut self,
        plan: &Plan,
        corpus: &Corpus,
        adds: &[String],
        _reads: &[&str],
        _probes: &[String],
    ) -> Result<Round, FixError> {
        let mut stream = Stream::new(corpus, adds, plan.window);
        let mut r = Round::default();
        for _ in 0..plan.commits_per_round {
            let t = Instant::now();
            let step = match stream.next_commit() {
                Commit::Remove(oldest) => {
                    self.remove_document(oldest)?;
                    Step::Remove
                }
                Commit::Add(xml) => {
                    let id = self.add_xml(xml)?;
                    stream.added(id, xml);
                    Step::Add
                }
            };
            r.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
            r.steps.push(step);
        }
        r.live_docs = r.steps.iter().fold(corpus.docs.len(), |n, s| {
            if *s == Step::Add {
                n + 1
            } else {
                n - 1
            }
        });
        (r.live_raw_bytes, r.added_bytes) = (stream.live_raw_bytes, stream.added_bytes);
        Ok(r)
    }

    /// With no log, only a save survives: the layout is saved, then the
    /// database dropped.
    fn crash(self, path: &Path) -> Result<(), FixError> {
        self.save(path)
    }

    fn checkpoint_verifies(&self) -> Result<bool, FixError> {
        Ok(true)
    }
}
