//! The four workloads and what the durable ones share.

pub mod daemon_stream;
pub mod fleet_churn;
pub mod fleet_query;
pub mod syndrome_refresh;

use std::path::Path;

use fmeter_core::{CheckpointPolicy, DurableOptions, RawSignature, SignatureService, SyncPolicy};
use fmeter_ir::TermCounts;

use crate::gen::{class_signature, Rng};
use crate::measure::{Config, Finish, Recorder, Stored};

/// Recoveries timed per run.
pub const RECOVER_REPEATS: usize = 9;

/// Every record fsynced, as a daemon that must not lose an acked
/// interval runs; a checkpoint every `ops` logged operations.
pub fn durable_options(ops: u64) -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryRecord,
        checkpoint: CheckpointPolicy::Every {
            ops: Some(ops),
            wal_bytes: None,
            interval: None,
        },
    }
}

/// A set-up's corpus: `n` signatures, classes dealt round-robin, with
/// the recorder's reference slices paced through the generation.
pub fn paced_corpus(
    rng: &mut Rng,
    n: usize,
    classes: usize,
    dim: usize,
    rec: &mut Recorder,
) -> Vec<RawSignature> {
    (0..n)
        .map(|i| {
            rec.pace();
            class_signature(rng, i % classes, classes, dim, i as u64)
        })
        .collect()
}

/// Where an eviction cursor points after a vacuum renumbered the ids:
/// the new id of the first surviving slot at or after it.
pub fn translate_cursor(cursor: usize, remap: &[Option<usize>]) -> usize {
    remap
        .get(cursor..)
        .and_then(|tail| tail.iter().flatten().next().copied())
        .unwrap_or(0)
}

/// Bytes of every regular file directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("durable directory exists")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Checkpoints a durable service has taken (its log's generation).
pub fn checkpoints(service: &SignatureService) -> u64 {
    service
        .with_durable_log(|log| log.generation())
        .expect("the workload runs durable")
}

type Answer = (Option<String>, Vec<(usize, u64)>);

fn answers(service: &SignatureService, probes: &[TermCounts], k: usize) -> Vec<Answer> {
    probes
        .iter()
        .map(|p| {
            let hits = service.search(p, k).expect("probe dimension matches");
            (
                service.classify(p, k).expect("probe dimension matches"),
                hits.iter().map(|(d, _, s)| (*d, s.to_bits())).collect(),
            )
        })
        .collect()
}

/// A durable service about to be killed, and what to hold it to.
pub struct Crash<'a> {
    pub service: SignatureService,
    pub opts: DurableOptions,
    /// The insert whose WAL record the kill tears.
    pub doomed: &'a RawSignature,
    pub probes: &'a [TermCounts],
    pub k: usize,
}

/// The durability check of a durable workload, and its recovery timing:
/// kills the service while it appends `doomed` (the record is torn),
/// then recovers. Recovery must detect the torn tail, lose exactly the
/// doomed insert, and answer every probe bit for bit as the service did
/// before the kill; `quality` is the share of probes that do.
///
/// `recover_ms` is timed before that, [`RECOVER_REPEATS`] times, in fresh
/// processes that read the directory and write nothing
/// ([`Recorder::recover_ms`]).
pub fn kill_tear_recover(crash: Crash<'_>, dir: &Path, cfg: &Config, rec: &mut Recorder) -> Finish {
    let Crash {
        service,
        opts,
        doomed,
        probes,
        k,
    } = crash;
    let before = answers(&service, probes, k);
    let live = service.len();
    let inserted = service.insert(doomed).is_ok();
    let generation = checkpoints(&service);
    drop(service); // kill -9: no shutdown save, no final checkpoint
    let wal_path = dir.join(format!("wal-{generation:010}.log"));
    let wal = std::fs::read(&wal_path).expect("the live WAL exists");
    std::fs::write(&wal_path, &wal[..wal.len() - 5]).expect("scratch is writable");
    let bytes_at_rest = dir_bytes(dir);

    let repeats = if cfg.smoke { 1 } else { RECOVER_REPEATS };
    let recover_ms = rec.recover_ms(Stored::Durable, dir, repeats);
    let (identical, checks_passed) = match SignatureService::recover_durable(dir, opts) {
        Ok((recovered, report)) => {
            let after = answers(&recovered, probes, k);
            let same = before.iter().zip(&after).filter(|(b, a)| b == a).count();
            (
                same as f64 / probes.len() as f64,
                inserted && report.torn_tail && recovered.len() == live && same == probes.len(),
            )
        }
        Err(e) => {
            eprintln!("recovery failed: {e:?}");
            (0.0, false)
        }
    };
    Finish {
        recover_ms,
        bytes_at_rest,
        live_signatures: live,
        quality: identical,
        checks_passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_follows_the_first_survivor() {
        let remap = [None, None, Some(0), None, Some(1)];
        assert_eq!(translate_cursor(0, &remap), 0);
        assert_eq!(translate_cursor(3, &remap), 1);
        assert_eq!(translate_cursor(9, &remap), 0);
    }
}
