//! Detecting a subtly different device driver — the §4.2.1 myri10ge
//! experiment: the driver lives in an *un-instrumented* module, so its
//! behaviour reaches signatures only through the core-kernel functions
//! it calls. A system silently running with LRO disabled (the paper's
//! "compromised machine" scenario) is flagged automatically.
//!
//! ```text
//! cargo run --release --example driver_anomaly
//! ```

use fmeter::core::{Fmeter, RawSignature, SignatureDb};
use fmeter::kernel_sim::{modules, CpuId, Kernel, KernelConfig, KernelModule, Nanos};
use fmeter::workloads::NetperfReceive;

fn receive_run(
    module: KernelModule,
    label: &str,
    n: usize,
    seed: u64,
) -> Result<Vec<RawSignature>, Box<dyn std::error::Error>> {
    let mut kernel = Kernel::new(KernelConfig {
        seed,
        ..KernelConfig::default()
    })?;
    kernel.load_module(module)?;
    let fmeter = Fmeter::install(&mut kernel);
    let cpus: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut logger = fmeter.logger(Nanos::from_millis(10), kernel.now());
    let mut netperf = NetperfReceive::new(seed ^ 7, "myri10ge");
    Ok(logger.collect(&mut kernel, &mut netperf, &cpus, n, Some(label))?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the operator's database from the *known-good* machine:
    //    myri10ge 1.5.1, stock parameters.
    println!("profiling the known-good driver (myri10ge 1.5.1, LRO on)...");
    let good = receive_run(modules::myri10ge_v151(), "normal", 30, 500)?;

    // 2. A fleet machine reports in. Unknown to the operator, a module
    //    with LRO disabled was loaded (paper: "may correspond to a
    //    compromised system ... which increases the propensity of the
    //    machine to DDOS attacks").
    println!("collecting signatures from the suspect machine (LRO silently off)...");
    let suspect = receive_run(modules::myri10ge_v151_no_lro(), "suspect", 12, 600)?;
    // And one healthy control machine.
    let control = receive_run(modules::myri10ge_v151(), "control", 12, 700)?;

    // 3. Index everything together (one corpus, as the paper's daemon
    //    would) and compare each machine's signatures against the
    //    known-good profile.
    let mut all = good.clone();
    all.extend(suspect.clone());
    all.extend(control.clone());
    let db = SignatureDb::build(&all)?;
    let sigs: Vec<&fmeter::core::Signature> = db.signatures().iter().collect();
    let (good_sigs, rest) = sigs.split_at(good.len());
    let (suspect_sigs, control_sigs) = rest.split_at(suspect.len());

    let mean_similarity = |probe: &[&fmeter::core::Signature]| -> f64 {
        let mut total = 0.0;
        for p in probe {
            let best = good_sigs
                .iter()
                .map(|g| p.cosine(g).expect("same space"))
                .fold(f64::MIN, f64::max);
            total += best;
        }
        total / probe.len() as f64
    };
    let suspect_score = mean_similarity(suspect_sigs);
    let control_score = mean_similarity(control_sigs);
    println!("mean best-match cosine vs known-good profile:");
    println!("  control machine: {control_score:.4}");
    println!("  suspect machine: {suspect_score:.4}");

    assert!(
        control_score > suspect_score,
        "the healthy machine must match the known-good profile better"
    );
    let threshold = (control_score + suspect_score) / 2.0;
    println!(
        "verdict: suspect machine {} (threshold {threshold:.4})",
        if suspect_score < threshold {
            "FLAGGED as anomalous"
        } else {
            "looks normal"
        }
    );
    Ok(())
}
