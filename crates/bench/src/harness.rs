//! Shared experiment harness: standard machines, signature collection
//! runs, dataset preparation, and table formatting for the regeneration
//! binaries.

use fmeter_core::{Fmeter, FmeterError, RawSignature};
use fmeter_ir::{Corpus, SparseVec, TfIdfModel};
use fmeter_kernel_sim::{modules, CpuId, Kernel, KernelConfig, Nanos};
use fmeter_ml::Label;
use fmeter_workloads::{ApacheBench, Dbench, KCompile, NetperfReceive, Scp, WithBackground};

/// The canonical kernel image seed (the "released 2.6.28 build").
// Grouped to read as kernel version 2.6.28, not a byte count.
#[allow(clippy::unusual_byte_groupings)]
pub const PAPER_IMAGE_SEED: u64 = 0x2_6_28;

/// Builds the standard evaluation machine: 16 logical CPUs (dual-socket
/// Nehalem with hyperthreads), 1000 Hz timer, canonical image.
pub fn standard_kernel(seed: u64) -> Kernel {
    Kernel::new(KernelConfig {
        num_cpus: 16,
        seed,
        timer_hz: 1000,
        image_seed: PAPER_IMAGE_SEED,
    })
    .expect("standard image builds")
}

/// The myri10ge driver variants of the Table 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Myri10geVariant {
    /// v1.5.1, default parameters (LRO on) — "normal operation".
    V151,
    /// v1.4.3, default parameters — "older / possibly buggy driver".
    V143,
    /// v1.5.1 with LRO disabled — "compromised configuration".
    V151NoLro,
}

impl Myri10geVariant {
    /// All three variants.
    pub const ALL: [Myri10geVariant; 3] = [
        Myri10geVariant::V151,
        Myri10geVariant::V143,
        Myri10geVariant::V151NoLro,
    ];

    /// Human-readable label matching the paper's Table 5 rows.
    pub fn label(&self) -> &'static str {
        match self {
            Myri10geVariant::V151 => "myri10ge 1.5.1",
            Myri10geVariant::V143 => "myri10ge 1.4.3",
            Myri10geVariant::V151NoLro => "myri10ge 1.5.1 LRO disabled",
        }
    }

    /// Builds the driver module.
    pub fn module(&self) -> fmeter_kernel_sim::KernelModule {
        match self {
            Myri10geVariant::V151 => modules::myri10ge_v151(),
            Myri10geVariant::V143 => modules::myri10ge_v143(),
            Myri10geVariant::V151NoLro => modules::myri10ge_v151_no_lro(),
        }
    }
}

/// A signature-collection workload of the paper's §4.2 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureWorkload {
    /// Kernel compile.
    KCompile,
    /// Secure copy over the network.
    Scp,
    /// dbench disk throughput benchmark.
    Dbench,
    /// apachebench HTTP serving.
    ApacheBench,
    /// Netperf TCP stream receive through a myri10ge variant.
    Netperf(Myri10geVariant),
}

impl SignatureWorkload {
    /// The class label used in datasets.
    pub fn label(&self) -> &'static str {
        match self {
            SignatureWorkload::KCompile => "kcompile",
            SignatureWorkload::Scp => "scp",
            SignatureWorkload::Dbench => "dbench",
            SignatureWorkload::ApacheBench => "apachebench",
            SignatureWorkload::Netperf(v) => v.label(),
        }
    }
}

/// Collects `count` signatures of `workload` on a fresh standard machine,
/// sampling every `interval` of simulated time — one controlled run of
/// the paper's collection methodology ("collected the signatures every 10
/// seconds ... without interference").
///
/// # Errors
///
/// Propagates kernel/workload failures (none on standard images).
pub fn collect_signatures(
    workload: SignatureWorkload,
    count: usize,
    interval: Nanos,
    seed: u64,
) -> Result<Vec<RawSignature>, FmeterError> {
    let mut kernel = standard_kernel(seed);
    let fmeter = Fmeter::install(&mut kernel);
    // The paper's workloads ran alone on the machine; tasks spread over a
    // few CPUs.
    let cpus: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut logger = fmeter.logger(interval, kernel.now());
    let label = workload.label();
    // Every real run carries ambient daemon activity with drifting
    // intensity (paper §5: the logging daemon itself perturbs every
    // signature uniformly) — this is what gives same-class signatures
    // their natural spread.
    const BG_LO: f32 = 0.05;
    const BG_HI: f32 = 0.45;
    match workload {
        SignatureWorkload::KCompile => {
            let mut w = WithBackground::new(KCompile::new(seed ^ 0x6cc), seed, BG_LO, BG_HI);
            logger.collect(&mut kernel, &mut w, &cpus, count, Some(label))
        }
        SignatureWorkload::Scp => {
            let mut w = WithBackground::new(Scp::new(seed ^ 0x5c9), seed, BG_LO, BG_HI);
            logger.collect(&mut kernel, &mut w, &cpus, count, Some(label))
        }
        SignatureWorkload::Dbench => {
            let mut w = WithBackground::new(Dbench::new(seed ^ 0xdbe), seed, BG_LO, BG_HI);
            logger.collect(&mut kernel, &mut w, &cpus, count, Some(label))
        }
        SignatureWorkload::ApacheBench => {
            let mut w = WithBackground::new(ApacheBench::new(seed ^ 0xa9a), seed, BG_LO, BG_HI);
            logger.collect(&mut kernel, &mut w, &cpus, count, Some(label))
        }
        SignatureWorkload::Netperf(variant) => {
            kernel.load_module(variant.module())?;
            let mut w = WithBackground::new(
                NetperfReceive::new(seed ^ 0x4e7, "myri10ge"),
                seed,
                BG_LO,
                BG_HI,
            );
            logger.collect(&mut kernel, &mut w, &cpus, count, Some(label))
        }
    }
}

/// Fits tf-idf over the union corpus and transforms every signature —
/// "the difference is later transformed into tf-idf scores, once an
/// entire corpus is generated" (§3).
///
/// # Errors
///
/// Returns an error for an empty input.
pub fn tfidf_vectors(raw: &[RawSignature]) -> Result<Vec<SparseVec>, FmeterError> {
    let first = raw.first().ok_or(FmeterError::NoSignatures)?;
    let mut corpus = Corpus::new(first.counts.len());
    for r in raw {
        corpus.push(r.to_term_counts());
    }
    let model = TfIdfModel::fit(&corpus)?;
    Ok(corpus.iter().map(|d| model.transform(d)).collect())
}

/// Builds a binary SVM dataset: positives get label `+1`, negatives `-1`,
/// tf-idf fitted over the union.
///
/// # Errors
///
/// Returns an error for empty inputs.
pub fn binary_dataset(
    positives: &[RawSignature],
    negatives: &[RawSignature],
) -> Result<(Vec<SparseVec>, Vec<Label>), FmeterError> {
    let mut all: Vec<RawSignature> = Vec::with_capacity(positives.len() + negatives.len());
    all.extend_from_slice(positives);
    all.extend_from_slice(negatives);
    let vectors = tfidf_vectors(&all)?;
    let labels: Vec<Label> = std::iter::repeat_n(1, positives.len())
        .chain(std::iter::repeat_n(-1, negatives.len()))
        .collect();
    Ok((vectors, labels))
}

/// Signatures a regeneration binary collects per class or pool:
/// `FMETER_SIGS` when it holds a number, else `default`.
pub fn sig_count(default: usize) -> usize {
    std::env::var("FMETER_SIGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Formats a fixed-width text table (the regeneration binaries print
/// paper tables with this).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<String>| {
        let rendered: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        out.push_str(rendered.join("  ").trim_end());
        out.push('\n');
    };
    line(&mut out, headers.iter().map(|s| s.to_string()).collect());
    line(&mut out, widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(&mut out, row.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn workload_labels_are_stable() {
        assert_eq!(SignatureWorkload::KCompile.label(), "kcompile");
        assert_eq!(
            SignatureWorkload::Netperf(Myri10geVariant::V151NoLro).label(),
            "myri10ge 1.5.1 LRO disabled"
        );
    }
}
