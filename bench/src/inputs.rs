//! Everything the program under test is fed, derived from `--seed`: the
//! corpus, the op list, the zero-hit probes and the commit stream.
//!
//! The op list is the repo's Figure-5 mix (`random_twigs`) plus the
//! corpus's three Table-2 queries, drawn by *proportional stratified
//! sampling*: a large candidate sample is grouped by spine (the label
//! path without predicates), each spine gets its share of the op slots
//! by largest remainder, and slots are filled in generation order. Plain
//! draws were tried first: the spine decides a twig's cost (`//NP/NP`
//! examines ~8 ms of candidates on Treebank, `//VB` ~0.6 ms), so 240
//! independent draws moved `queries_per_s` by 6 % of its median between
//! seeds and Zipf-weighted draws by 13 % — more than any bound. With the
//! shares pinned, a seed changes the documents, the twigs inside each
//! spine and the order, but not the cost profile.

use std::collections::BTreeMap;

use fix_core::FixDatabase;
use fix_datagen::util::rng;
use fix_datagen::{random_twigs, tcmd, treebank, GenConfig, QueryGenConfig};
use fix_xpath::PathExpr;
use rand::Rng;

use crate::stats::Answer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// One deep recursive document (the paper's structural worst case).
    Treebank,
    /// A collection of small text-centric documents.
    Tcmd,
}

impl CorpusKind {
    /// The paper's Table-2 queries for the corpus: hi, md, lo selectivity.
    pub fn table2(self) -> [&'static str; 3] {
        match self {
            CorpusKind::Treebank => [
                "//EMPTY/S/NP[PP]/NP",
                "//S[VP]/NP/NP/PP/NP",
                "//EMPTY/S[VP]/NP",
            ],
            CorpusKind::Tcmd => [
                "/article/epilog[acknoledgements]/references/a_id",
                "/article/prolog[keywords]/authors/author/contact[phone]",
                "/article[epilog]/prolog/authors/author",
            ],
        }
    }

    /// The Table-2 "md" query: the first answer `open_ms` waits for.
    pub fn md_query(self) -> &'static str {
        self.table2()[1]
    }
}

/// Independent sub-seeds so the corpus, the twigs, their order and the
/// commit stream do not correlate.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    fix_core::shard::splitmix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub struct Corpus {
    pub kind: CorpusKind,
    pub docs: Vec<String>,
    pub raw_bytes: u64,
}

pub fn corpus(kind: CorpusKind, seed: u64, scale: f64) -> Corpus {
    let cfg = GenConfig {
        seed: sub_seed(seed, 1),
        scale,
    };
    let docs = match kind {
        CorpusKind::Treebank => vec![treebank(cfg)],
        CorpusKind::Tcmd => tcmd(cfg),
    };
    let raw_bytes = docs.iter().map(|d| d.len() as u64).sum();
    Corpus {
        kind,
        docs,
        raw_bytes,
    }
}

/// The documents the commit stream adds, `n` of them, shaped like the
/// corpus. For Treebank they are six-sentence files (a commit stays one
/// small document against the one large one), and only the middle third
/// of 3n candidates by length is kept, in generation order: a round has
/// ~120 adds of ~2.3 ms each, a sentence's size varies fourfold, and with
/// unfiltered draws the seed's luck moved `commit_p50_us` by 11 %.
pub fn commit_docs(kind: CorpusKind, seed: u64, n: usize) -> Vec<String> {
    let seed = sub_seed(seed, 2);
    match kind {
        CorpusKind::Treebank => {
            let candidates: Vec<String> = (0..3 * n as u64)
                .map(|i| {
                    treebank(GenConfig {
                        seed: seed.wrapping_add(i),
                        scale: 0.005,
                    })
                })
                .collect();
            let mut by_len: Vec<usize> = (0..candidates.len()).collect();
            by_len.sort_by_key(|&i| (candidates[i].len(), i));
            let mut keep = by_len[n..2 * n].to_vec();
            keep.sort_unstable();
            keep.into_iter().map(|i| candidates[i].clone()).collect()
        }
        CorpusKind::Tcmd => {
            let mut docs = tcmd(GenConfig {
                seed,
                scale: n as f64 / 800.0 + 0.01,
            });
            assert!(
                docs.len() >= n,
                "tcmd generator returned {} < {n} documents",
                docs.len()
            );
            docs.truncate(n);
            docs
        }
    }
}

/// One query of the op list with the reference engine's answer to it.
#[derive(Debug, Clone)]
pub struct Op {
    pub query: String,
    pub expect: Answer,
    /// Rows the reference engine examined (exact count).
    pub candidates: u64,
    /// A single-step query (`//NN`): the perlin-core "simple query".
    pub simple: bool,
}

pub struct OpList {
    pub ops: Vec<Op>,
    /// Twigs with no hit that the index prunes without examining a row.
    pub probes: Vec<String>,
    pub spines: usize,
}

impl OpList {
    /// The distinct queries of the op list, in first-appearance order.
    pub fn distinct(&self) -> Vec<&str> {
        let mut seen = std::collections::BTreeSet::new();
        self.ops
            .iter()
            .map(|o| o.query.as_str())
            .filter(|q| seen.insert(*q))
            .collect()
    }

    /// One line for the run's log.
    pub fn summary(&self) -> String {
        format!(
            "op list: {} ops, {} distinct queries over {} spines; {} probes",
            self.ops.len(),
            self.distinct().len(),
            self.spines,
            self.probes.len()
        )
    }
}

fn spine(q: &PathExpr) -> String {
    q.steps
        .iter()
        .map(|s| format!("{}{}", s.axis, s.name))
        .collect()
}

fn reference_answer(reference: &FixDatabase, query: &str) -> Option<(Answer, u64)> {
    let out = reference.query(query).ok()?;
    let answer = Answer::of(out.results.iter().map(|&(d, n)| (d.0, n.0)));
    Some((answer, out.metrics.candidates))
}

/// Builds the op list and probes for `reference` (an in-memory database
/// over the corpus). Deterministic in `seed`.
pub fn op_list(
    reference: &FixDatabase,
    kind: CorpusKind,
    seed: u64,
    n_ops: usize,
    n_probes: usize,
) -> OpList {
    let coll = reference.collection();
    let docs: Vec<&fix_xml::Document> = coll.iter().map(|(_, d)| d).collect();
    let table2 = kind.table2();
    // Each Table-2 query takes 1/60 of the slots (4 of 240).
    let per_table2 = (n_ops / 60).max(1);
    let n_twigs = n_ops - 3 * per_table2;

    let candidates = random_twigs(
        &docs,
        &coll.labels,
        QueryGenConfig {
            seed: sub_seed(seed, 3),
            count: 16 * n_twigs,
            max_depth: 5,
            perturb_p: 0.0,
            ..Default::default()
        },
    );
    let mut strata: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for q in &candidates {
        strata.entry(spine(q)).or_default().push(q.to_string());
    }
    // Largest-remainder apportionment of the twig slots over the spines.
    let total = candidates.len() as f64;
    let mut shares: Vec<(String, usize, f64)> = strata
        .iter()
        .map(|(k, v)| {
            let exact = v.len() as f64 / total * n_twigs as f64;
            (k.clone(), exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let mut left = n_twigs - shares.iter().map(|s| s.1).sum::<usize>();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        shares[b]
            .2
            .total_cmp(&shares[a].2)
            .then(shares[a].0.cmp(&shares[b].0))
    });
    for &i in &by_remainder {
        if left == 0 {
            break;
        }
        shares[i].1 += 1;
        left -= 1;
    }

    let mut cache: BTreeMap<String, Option<(Answer, u64)>> = BTreeMap::new();
    let mut lookup = |q: &str| -> Option<(Answer, u64)> {
        *cache
            .entry(q.to_string())
            .or_insert_with(|| reference_answer(reference, q).filter(|(a, _)| a.hits > 0))
    };
    let mut ops: Vec<Op> = Vec::with_capacity(n_ops);
    let push = |ops: &mut Vec<Op>, q: &str, (expect, candidates): (Answer, u64)| {
        ops.push(Op {
            query: q.to_string(),
            expect,
            candidates,
            simple: fix_xpath::parse_path(q)
                .is_ok_and(|p| p.steps.len() == 1 && p.steps[0].predicates.is_empty()),
        });
    };
    for q in table2 {
        let found =
            lookup(q).unwrap_or_else(|| panic!("Table-2 query {q} has no answer on this corpus"));
        for _ in 0..per_table2 {
            push(&mut ops, q, found);
        }
    }
    // Fill each spine's slots with its members in generation order,
    // skipping twigs the index does not cover or that match nothing; a
    // spine that runs dry hands its slots to the next one.
    let mut carry = 0usize;
    for (key, quota, _) in &shares {
        let mut need = quota + carry;
        for q in &strata[key] {
            if need == 0 {
                break;
            }
            if let Some(found) = lookup(q) {
                push(&mut ops, q, found);
                need -= 1;
            }
        }
        carry = need;
    }
    assert!(
        ops.len() + carry == n_ops && carry * 20 <= n_ops,
        "op list came out short: {} of {n_ops} (carry {carry})",
        ops.len()
    );
    // Top up the few slots no spine could fill with Table-2 queries.
    for i in 0..carry {
        let q = table2[i % 3];
        let found = lookup(q).expect("checked above");
        push(&mut ops, q, found);
    }

    // Seeded Fisher-Yates: the order is an input too.
    let mut r = rng(sub_seed(seed, 4), 0x0B5);
    for i in (1..ops.len()).rev() {
        ops.swap(i, r.gen_range(0..=i));
    }

    // Probes: perturbed twigs (one label swapped) that return nothing and
    // that the index answers with zero rows examined.
    let perturbed = random_twigs(
        &docs,
        &coll.labels,
        QueryGenConfig {
            seed: sub_seed(seed, 5),
            count: 64 * n_probes,
            max_depth: 5,
            perturb_p: 1.0,
            ..Default::default()
        },
    );
    let mut probes: Vec<String> = Vec::with_capacity(n_probes);
    for q in &perturbed {
        if probes.len() == n_probes {
            break;
        }
        let text = q.to_string();
        if probes.contains(&text) {
            continue;
        }
        if let Ok(out) = reference.query(&text) {
            if out.results.is_empty() && out.metrics.candidates == 0 {
                probes.push(text);
            }
        }
    }
    assert_eq!(probes.len(), n_probes, "too few zero-hit probes");

    OpList {
        spines: shares.iter().filter(|s| s.1 > 0).count(),
        ops,
        probes,
    }
}

/// The fingerprint of the whole op list's answers, in op order. Two
/// engines that print the same value answered every op identically.
pub fn answers_fnv(answers: impl Iterator<Item = Answer>) -> u64 {
    let mut f = crate::stats::Fnv::default();
    for a in answers {
        f.u64(a.hits);
        f.u64(a.fnv);
    }
    f.0
}
